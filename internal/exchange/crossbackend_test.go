package exchange

import (
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// expectedEvents derives, from the plan alone, the (phase, step, partner,
// bytes) schedule node p must execute: per phase a barrier, then the
// subcube-restricted XOR steps exchanging effective blocks, then the
// shuffle charge for partial phases.
func expectedEvents(p *Plan, node int) []fabric.Event {
	var out []fabric.Event
	for _, ph := range p.phases {
		out = append(out, fabric.Event{Node: node, Op: "barrier", Peer: -1})
		for j := 1; j <= ph.steps(); j++ {
			out = append(out, fabric.Event{
				Node: node, Op: "exchange", Peer: ph.partner(node, j), Bytes: ph.EffBytes,
			})
		}
		if ph.EffBlocks != 1 {
			out = append(out, fabric.Event{
				Node: node, Op: "shuffle", Peer: -1, Bytes: p.m * p.Nodes(),
			})
		}
	}
	return out
}

// TestCrossBackendEquivalence is the backend-equivalence contract of the
// fabric layer: for d = 1..5, every partition of d, and several block
// sizes, the same Plan run on the runtime fabric and on the simnet fabric
// must (a) perform the identical sequence of (phase, step, partner,
// bytes) transfers on every node, (b) match the schedule derived from the
// plan itself, (c) satisfy the complete-exchange postcondition (RunOn
// verifies every block on every node), and (d) report simulator traffic
// totals equal to the plan's static counts.
func TestCrossBackendEquivalence(t *testing.T) {
	prm := model.IPSC860()
	for d := 1; d <= 5; d++ {
		n := 1 << uint(d)
		for _, D := range partition.All(d) {
			for _, m := range []int{1, 8, 40} {
				plan, err := NewPlanOn(topology.MustNew(d), m, D)
				if err != nil {
					t.Fatal(err)
				}

				rt, err := fabric.NewRuntime(n)
				if err != nil {
					t.Fatal(err)
				}
				recRT := fabric.Record(rt)
				if err := plan.RunOn(recRT, 30*time.Second); err != nil {
					t.Fatalf("runtime d=%d m=%d %v: %v", d, m, D, err)
				}

				sim := fabric.NewSim(simnet.New(topology.MustNew(d), prm))
				recSim := fabric.Record(sim)
				if err := plan.RunOn(recSim, 30*time.Second); err != nil {
					t.Fatalf("simnet d=%d m=%d %v: %v", d, m, D, err)
				}

				for node := 0; node < n; node++ {
					want := expectedEvents(plan, node)
					for name, got := range map[string][]fabric.Event{
						"runtime": recRT.Events[node], "simnet": recSim.Events[node],
					} {
						if len(got) != len(want) {
							t.Fatalf("d=%d m=%d %v node %d on %s: %d events, want %d",
								d, m, D, node, name, len(got), len(want))
						}
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("d=%d m=%d %v node %d on %s: event %d = %+v, want %+v",
									d, m, D, node, name, i, got[i], want[i])
							}
						}
					}
				}

				res, err := sim.Result()
				if err != nil {
					t.Fatal(err)
				}
				if res.Messages != n*plan.TotalMessages() {
					t.Errorf("d=%d m=%d %v: %d messages, want %d",
						d, m, D, res.Messages, n*plan.TotalMessages())
				}
				if res.BytesMoved != n*plan.TotalTraffic() {
					t.Errorf("d=%d m=%d %v: %d bytes, want %d",
						d, m, D, res.BytesMoved, n*plan.TotalTraffic())
				}
				if res.Barriers != len(plan.Phases()) {
					t.Errorf("d=%d m=%d %v: %d barriers, want %d",
						d, m, D, res.Barriers, len(plan.Phases()))
				}
			}
		}
	}
}
