package repro

// Cross-layer integration tests: these exercise the full stack the way
// the cmd tools and examples do — optimizer → plan → simulator → runtime
// — and pin the end-to-end numbers the reproduction stands on.

import (
	"math"
	"testing"
	"time"

	"repro/internal/collectives"
	"repro/internal/core"
	"repro/internal/exchange"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/optimize"
	"repro/internal/partition"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// TestPaperHeadlineEndToEnd pins the flagship numbers: on the modeled
// 128-node iPSC-860 at 40-byte blocks, the auto-tuned multiphase exchange
// picks {3,4} and beats both classical algorithms by roughly 2×, with the
// data movement verified by real goroutines.
func TestPaperHeadlineEndToEnd(t *testing.T) {
	sys, err := core.NewSystemOn(topology.MustNew(7), model.IPSC860())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.VerifiedExchange(40, 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partition.Canonical().Equal(partition.Partition{4, 3}) {
		t.Errorf("picked %v, want {3,4}", res.Partition)
	}
	if !res.DataVerified {
		t.Error("data must be verified")
	}
	se, err := sys.ExchangeWith(40, partition.Partition{1, 1, 1, 1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	ocs, err := sys.ExchangeWith(40, partition.Partition{7})
	if err != nil {
		t.Fatal(err)
	}
	if se.SimulatedMicros/res.SimulatedMicros < 1.9 {
		t.Errorf("vs SE: %.2f×, want ≈2×", se.SimulatedMicros/res.SimulatedMicros)
	}
	if ocs.SimulatedMicros/res.SimulatedMicros < 1.9 {
		t.Errorf("vs OCS: %.2f×, want ≈2×", ocs.SimulatedMicros/res.SimulatedMicros)
	}
	// Absolute scale: paper measures 16000 µs for {3,4}; the model lands
	// within a few percent of that.
	if res.SimulatedMicros < 14000 || res.SimulatedMicros > 18000 {
		t.Errorf("{3,4} time %v µs, paper reports ≈16000", res.SimulatedMicros)
	}
}

// TestOptimizerSimulatorRuntimeAgree runs the optimizer's pick at several
// block sizes through the simulator and the goroutine runtime for each
// paper dimension.
func TestOptimizerSimulatorRuntimeAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, d := range []int{5, 6, 7} {
		sys, err := core.NewSystemOn(topology.MustNew(d), model.IPSC860())
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []int{8, 80, 320} {
			res, err := sys.VerifiedExchange(m, 2*time.Minute)
			if err != nil {
				t.Fatalf("d=%d m=%d: %v", d, m, err)
			}
			if math.Abs(res.SimulatedMicros-res.PredictedMicros) > 1e-6 {
				t.Errorf("d=%d m=%d: sim %v != pred %v",
					d, m, res.SimulatedMicros, res.PredictedMicros)
			}
		}
	}
}

// TestFigureCurvesConsistentWithOptimizer cross-checks the experiment
// generator against the optimizer: at every swept block size, the best of
// the figure's plotted curves must be the optimizer's winning time
// whenever the optimizer's pick is one of the plotted partitions (the
// hull members are plotted, so it always is).
func TestFigureCurvesConsistentWithOptimizer(t *testing.T) {
	prm := model.IPSC860()
	opt := optimize.New(prm)
	for _, d := range []int{5, 6} {
		fig, err := experiments.Figure(d)
		if err != nil {
			t.Fatal(err)
		}
		sweep := experiments.BlockSweep()
		for i, m := range sweep {
			best := math.Inf(1)
			for _, c := range fig.Curves {
				if c.Y[i] < best {
					best = c.Y[i]
				}
			}
			choice, err := opt.BestOn(topology.MustNew(d), m)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(best-choice.TimeMicro) > 1e-6 {
				t.Errorf("d=%d m=%d: figure best %v, optimizer %v",
					d, m, best, choice.TimeMicro)
			}
		}
	}
}

// TestLargeCubeSmoke simulates the single-phase OCS on larger cubes than
// the paper had hardware for (up to 1024 nodes), exercising the simulator
// at scale; the analytic equality must still hold exactly.
func TestLargeCubeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	prm := model.IPSC860()
	for _, d := range []int{8, 9, 10} {
		plan, err := exchange.NewPlanOn(topology.MustNew(d), 16, partition.Partition{d})
		if err != nil {
			t.Fatal(err)
		}
		res, err := plan.Simulate(simnet.New(topology.MustNew(d), prm))
		if err != nil {
			t.Fatal(err)
		}
		want := prm.OptimalCircuitSwitched(16, d)
		if math.Abs(res.Makespan-want) > 1e-4 {
			t.Errorf("d=%d: sim %v, model %v", d, res.Makespan, want)
		}
		if res.ContentionStall != 0 {
			t.Errorf("d=%d: stall %v", d, res.ContentionStall)
		}
	}
}

// TestMillionNodePlanning exercises the §6 claim directly: planning for a
// million-node hypercube (d=20) means enumerating only 627 candidates,
// which must complete quickly.
func TestMillionNodePlanning(t *testing.T) {
	prm := model.IPSC860()
	opt := optimize.New(prm)
	start := time.Now()
	c, err := opt.BestOn(topology.MustNew(20), 64)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("enumeration took %v — the paper calls this trivial", elapsed)
	}
	if !c.Part.Canonical().IsValid(20) {
		t.Errorf("invalid plan %v", c.Part)
	}
	if len(c.Part) == 1 || len(c.Part) == 20 {
		t.Logf("note: degenerate partition %v optimal at m=64 on d=20", c.Part)
	}
}

// TestCollectivesNeverBeatModelLowerBound sanity-checks the §9 patterns
// end to end against the exchange on one shared network.
func TestCollectivesUpperBoundEndToEnd(t *testing.T) {
	prm := model.IPSC860()
	sys, err := core.NewSystemOn(topology.MustNew(6), prm)
	if err != nil {
		t.Fatal(err)
	}
	ce, err := sys.CompleteExchange(64)
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New(topology.MustNew(6), prm)
	for _, k := range []collectives.Kind{
		collectives.Broadcast, collectives.Scatter,
		collectives.Gather, collectives.AllGather,
	} {
		res, err := collectives.Simulate(k, net, 64, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Makespan > ce.SimulatedMicros {
			t.Errorf("%v (%v µs) exceeds complete exchange (%v µs)",
				k, res.Makespan, ce.SimulatedMicros)
		}
	}
}
