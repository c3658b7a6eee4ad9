package exchange

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/runtime"
	"repro/internal/simnet"
	"repro/internal/topology"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// The central correctness theorem: for every partition of every dimension
// up to 5 (and a couple of block sizes), the multiphase exchange delivers
// block s of node p's outgoing data to slot s... i.e. after the run node q
// holds, in block s, exactly what s sent to q.
func TestRunDataAllPartitions(t *testing.T) {
	for d := 0; d <= 5; d++ {
		parts := partition.All(d)
		if d == 0 {
			parts = []partition.Partition{nil}
		}
		for _, D := range parts {
			for _, m := range []int{1, 8} {
				p, err := NewPlanOn(topology.MustNew(d), m, D)
				if err != nil {
					t.Fatal(err)
				}
				if err := p.RunData(30 * time.Second); err != nil {
					t.Errorf("d=%d m=%d %v: %v", d, m, D, err)
				}
			}
		}
	}
}

func TestRunDataLargerCube(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, D := range []partition.Partition{{3, 4}, {2, 2, 3}, {7}, {1, 1, 1, 1, 1, 1, 1}} {
		p, err := NewPlanOn(topology.MustNew(7), 16, D)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.RunData(60 * time.Second); err != nil {
			t.Errorf("%v: %v", D, err)
		}
	}
}

func TestRunDataZeroBytes(t *testing.T) {
	p, err := NewPlanOn(topology.MustNew(3), 0, partition.Partition{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.RunData(10 * time.Second); err != nil {
		t.Errorf("zero-byte exchange: %v", err)
	}
}

// Property test: random dimension, partition, and block size.
func TestRunDataQuick(t *testing.T) {
	f := func(dRaw, pRaw, mRaw uint8) bool {
		d := int(dRaw)%5 + 1
		parts := partition.All(d)
		D := parts[int(pRaw)%len(parts)]
		m := int(mRaw)%17 + 1
		p, err := NewPlanOn(topology.MustNew(d), m, D)
		if err != nil {
			return false
		}
		return p.RunData(30*time.Second) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestExecuteMismatchedBuffer(t *testing.T) {
	p, _ := NewPlanOn(topology.MustNew(3), 4, partition.Partition{3})
	c, err := runtime.NewCluster(8)
	if err != nil {
		t.Fatal(err)
	}
	err = c.Run(func(nd *runtime.Node) error {
		bad, err := NewBuffer(3, 8) // wrong block size
		if err != nil {
			return err
		}
		if execErr := p.Execute(nd, bad); execErr == nil {
			return errMismatchExpected
		}
		return nil
	}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
}

var errMismatchExpected = fmtError("Execute accepted a mismatched buffer")

type fmtError string

func (e fmtError) Error() string { return string(e) }

func TestExecuteWrongClusterSize(t *testing.T) {
	p, _ := NewPlanOn(topology.MustNew(3), 4, partition.Partition{3})
	c, err := runtime.NewCluster(4) // plan wants 8
	if err != nil {
		t.Fatal(err)
	}
	err = c.Run(func(nd *runtime.Node) error {
		buf, _ := NewBuffer(3, 4)
		if execErr := p.Execute(nd, buf); execErr == nil {
			return errMismatchExpected
		}
		return nil
	}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
}

// Simulated virtual time must match the analytic model exactly when the
// schedule is contention-free and all nodes run in lockstep. This ties the
// three layers (model, simnet, exchange) together.
func TestSimulateMatchesModelHypothetical(t *testing.T) {
	prm := model.Hypothetical()
	for d := 1; d <= 6; d++ {
		net := simnet.New(topology.MustNew(d), prm)
		for _, D := range partition.All(d) {
			for _, m := range []int{1, 24, 100} {
				p, err := NewPlanOn(topology.MustNew(d), m, D)
				if err != nil {
					t.Fatal(err)
				}
				res, err := p.Simulate(net)
				if err != nil {
					t.Fatalf("d=%d %v: %v", d, D, err)
				}
				want, _ := prm.Multiphase(m, d, D)
				if !almost(res.Makespan, want, 1e-6) {
					t.Errorf("d=%d m=%d %v: sim %v, model %v", d, m, D, res.Makespan, want)
				}
				if res.ContentionStall != 0 {
					t.Errorf("d=%d %v: unexpected contention stall %v", d, D, res.ContentionStall)
				}
			}
		}
	}
}

func TestSimulateMatchesModelIPSC(t *testing.T) {
	prm := model.IPSC860()
	for _, d := range []int{5, 6, 7} {
		net := simnet.New(topology.MustNew(d), prm)
		for _, D := range []partition.Partition{{d}, {2, d - 2}} {
			for _, m := range []int{4, 40, 160, 400} {
				p, err := NewPlanOn(topology.MustNew(d), m, D)
				if err != nil {
					t.Fatal(err)
				}
				res, err := p.Simulate(net)
				if err != nil {
					t.Fatal(err)
				}
				want, _ := prm.Multiphase(m, d, D)
				if !almost(res.Makespan, want, 1e-6) {
					t.Errorf("d=%d m=%d %v: sim %v, model %v", d, m, D, res.Makespan, want)
				}
			}
		}
	}
}

// §5.1 worked example, end to end on the simulator: hypothetical machine,
// d=6, m=24, partition {2,4} → 9984 µs (the paper's own arithmetic gives
// 10944 µs using a phase-2 effective block of 160 B where the formula
// m·2^(d−di) gives 96 B; see EXPERIMENTS.md).
func TestSimulateWorkedExample(t *testing.T) {
	prm := model.Hypothetical()
	net := simnet.New(topology.MustNew(6), prm)
	p, err := NewPlanOn(topology.MustNew(6), 24, partition.Partition{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Simulate(net)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(res.Makespan, 9984, 0.5) {
		t.Errorf("worked example = %v µs, want 9984", res.Makespan)
	}
	// And it must beat the Standard Exchange's 15144 µs.
	se, _ := NewPlanOn(topology.MustNew(6), 24, partition.Partition{1, 1, 1, 1, 1, 1})
	seRes, err := se.Simulate(net)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(seRes.Makespan, 15144, 0.5) {
		t.Errorf("SE = %v µs, want 15144", seRes.Makespan)
	}
}

func TestSimulateDimensionMismatch(t *testing.T) {
	net := simnet.New(topology.MustNew(4), model.IPSC860())
	p, _ := NewPlanOn(topology.MustNew(3), 4, partition.Partition{3})
	if _, err := p.Simulate(net); err == nil {
		t.Error("dimension mismatch must fail")
	}
}

// The message/traffic counters of the simulation must agree with the
// plan's static counts.
func TestSimulateTrafficAccounting(t *testing.T) {
	net := simnet.New(topology.MustNew(5), model.IPSC860())
	p, _ := NewPlanOn(topology.MustNew(5), 12, partition.Partition{2, 3})
	res, err := p.Simulate(net)
	if err != nil {
		t.Fatal(err)
	}
	n := p.Nodes()
	if res.Messages != n*p.TotalMessages() {
		t.Errorf("messages = %d, want %d", res.Messages, n*p.TotalMessages())
	}
	if res.BytesMoved != n*p.TotalTraffic() {
		t.Errorf("bytes = %d, want %d", res.BytesMoved, n*p.TotalTraffic())
	}
	if res.Barriers != len(p.Phases()) {
		t.Errorf("barriers = %d, want %d", res.Barriers, len(p.Phases()))
	}
}
