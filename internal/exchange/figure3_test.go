package exchange

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/partition"
	"repro/internal/runtime"
	"repro/internal/topology"
)

// TestFigure3IntermediateState pins the paper's Figure 3 exactly: on a
// dimension-3 cube with partition {2,1}, after the first partial exchange
// (bits 2,1; superblocks of 2), node 000's column must read
//
//	0:0, 0:1, 2:0, 2:1, 4:0, 4:1, 6:0, 6:1
//
// (block s:t = the block source s addressed to destination t), and node
// 010's column must read 0:2, 0:3, 2:2, 2:3, 4:2, 4:3, 6:2, 6:3. The
// second partial exchange (bit 0; superblocks of 4) must then complete
// the exchange.
func TestFigure3IntermediateState(t *testing.T) {
	const d, m = 3, 4
	plan, err := NewPlanOn(topology.MustNew(d), m, partition.Partition{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	phases := plan.Phases()

	// Expected (src, dst) tag per position after phase 1, per Figure 3.
	// Node p's position t should hold the block from source
	// s = (t with bit 0 replaced by p's bit 0) addressed to destination
	// u = (p's bits 2,1 with t's bit 0).
	wantAfterPhase1 := func(p, t int) (src, dst int) {
		src = (t &^ 1) | (p & 1)
		dst = (p &^ 1) | (t & 1)
		return
	}
	// Spot-check the helper against the literal Figure 3 columns.
	for t0, want := range [][2]int{{0, 0}, {0, 1}, {2, 0}, {2, 1}, {4, 0}, {4, 1}, {6, 0}, {6, 1}} {
		s, u := wantAfterPhase1(0, t0)
		if s != want[0] || u != want[1] {
			t.Fatalf("figure-3 oracle wrong at node 0 pos %d: %d:%d want %d:%d",
				t0, s, u, want[0], want[1])
		}
	}
	for t0, want := range [][2]int{{0, 2}, {0, 3}, {2, 2}, {2, 3}, {4, 2}, {4, 3}, {6, 2}, {6, 3}} {
		s, u := wantAfterPhase1(2, t0)
		if s != want[0] || u != want[1] {
			t.Fatalf("figure-3 oracle wrong at node 2 pos %d: %d:%d want %d:%d",
				t0, s, u, want[0], want[1])
		}
	}

	c, err := runtime.NewCluster(plan.Nodes())
	if err != nil {
		t.Fatal(err)
	}
	err = c.Run(func(nd *runtime.Node) error {
		p := nd.ID()
		buf, err := NewBuffer(d, m)
		if err != nil {
			return err
		}
		buf.FillOutgoing(p)

		runPhase := func(ph Phase) error {
			for j := 1; j <= (1<<uint(ph.SubcubeDim))-1; j++ {
				q := p ^ (j << uint(ph.Lo))
				positions := FieldPositions(d, ph.Lo, ph.SubcubeDim,
					(q>>uint(ph.Lo))&((1<<uint(ph.SubcubeDim))-1))
				in := nd.Exchange(q, buf.Gather(positions))
				if err := buf.Scatter(positions, in); err != nil {
					return err
				}
			}
			return nil
		}

		// Phase 1 (bits 2,1), then check the Figure 3 layout.
		nd.Barrier()
		if err := runPhase(phases[0]); err != nil {
			return err
		}
		for pos := 0; pos < buf.Blocks(); pos++ {
			src, dst := wantAfterPhase1(p, pos)
			blk := buf.Block(pos)
			for i := range blk {
				if blk[i] != PayloadByte(src, dst, i) {
					return fmt.Errorf("node %d pos %d byte %d: not block %d:%d",
						p, pos, i, src, dst)
				}
			}
		}
		// Phase 2 (bit 0) finishes the exchange.
		nd.Barrier()
		if err := runPhase(phases[1]); err != nil {
			return err
		}
		return buf.VerifyIncoming(p)
	}, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
}
