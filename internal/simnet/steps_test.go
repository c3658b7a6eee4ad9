package simnet_test

import (
	"testing"

	"repro/internal/exchange"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// TestFigure6ReplayPinned fixes the event count and makespan of every
// compiled figure-6 replay (d=7, m=40, iPSC-860 model). A change that
// alters how many events a replay executes, or what it computes, fails
// here instead of silently shifting host time per simulated event.
func TestFigure6ReplayPinned(t *testing.T) {
	want := []struct {
		D        partition.Partition
		steps    uint64
		makespan float64
	}{
		{partition.Partition{1, 1, 1, 1, 1, 1, 1}, 2816, 35150.780000000006},
		{partition.Partition{2, 2, 3}, 2560, 18954.940000000002},
		{partition.Partition{3, 4}, 3456, 16097.320000000003},
		{partition.Partition{7}, 16512, 34822.81999999999},
	}
	topo := topology.MustNew(7)
	curves := experiments.FigureCurves(7)
	if len(curves) != len(want) {
		t.Fatalf("figure 6 has %d curves, want %d", len(curves), len(want))
	}
	for i, D := range curves {
		if !D.Equal(want[i].D) {
			t.Fatalf("curve %d is %v, want %v", i, D, want[i].D)
		}
		plan, err := exchange.NewPlanOn(topo, 40, D)
		if err != nil {
			t.Fatal(err)
		}
		res, steps, err := simnet.RunSerialSteps(simnet.New(topo, model.IPSC860()), plan.Compile())
		if err != nil {
			t.Fatal(err)
		}
		if steps != want[i].steps || res.Makespan != want[i].makespan {
			t.Errorf("%v: %d events, %v µs; want %d events, %v µs",
				D, steps, res.Makespan, want[i].steps, want[i].makespan)
		}
	}
}
