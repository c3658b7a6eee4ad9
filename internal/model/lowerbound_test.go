package model_test

import (
	"testing"

	"repro/internal/exchange"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/simnet"
	"repro/internal/topology"
)

func TestPhaseLowerBoundErrors(t *testing.T) {
	net := topology.MustNew(4)
	for _, w := range []int{0, -1} {
		if _, err := model.IPSC860().PhaseLowerBoundOn(net, 8, 0, w); err == nil {
			t.Errorf("w=%d: no error", w)
		}
	}
}

// On the contention-free hypercube the XOR bound is the exact
// zero-contention phase makespan: the step-j exchange crosses popcount(j)
// dimensions and Σ popcount(j) over a w-bit field is w·2^(w−1), so the
// bound must match a standalone fragment replay to float noise.
func TestPhaseLowerBoundExactOnHypercube(t *testing.T) {
	for _, prm := range []model.Params{model.IPSC860(), model.Hypothetical()} {
		net := topology.MustNew(6)
		for _, m := range []int{0, 8, 100} {
			for _, D := range []partition.Partition{{2, 4}, {3, 3}, {6}} {
				plan, err := exchange.NewPlanOn(topology.MustNew(6), m, D)
				if err != nil {
					t.Fatal(err)
				}
				sim := simnet.New(net, prm)
				fields, err := topology.PhaseFields(net, D)
				if err != nil {
					t.Fatal(err)
				}
				for i, f := range fields {
					lb, err := prm.PhaseLowerBoundOn(net, m, f[0], f[1])
					if err != nil {
						t.Fatal(err)
					}
					res, err := sim.RunSource(plan.CompilePhase(i))
					if err != nil {
						t.Fatal(err)
					}
					if diff := lb - res.Makespan; diff > 1e-9*res.Makespan+1e-9 || -diff > 1e-9*res.Makespan+1e-9 {
						t.Errorf("%v m=%d field %v: bound %v, fragment %v", D, m, f, lb, res.Makespan)
					}
				}
			}
		}
	}
}

// The memoized max-shift-distance path must be deterministic: repeated
// calls return the identical bound, and the bound is monotone in m.
func TestPhaseLowerBoundMemoDeterministic(t *testing.T) {
	prm := model.IPSC860()
	net := topology.MustParseSpec("torus-8x2x2")
	first, err := prm.PhaseLowerBoundOn(net, 8, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	again, err := prm.PhaseLowerBoundOn(net, 8, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if first != again {
		t.Errorf("memoized bound changed: %v then %v", first, again)
	}
	bigger, err := prm.PhaseLowerBoundOn(net, 80, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if bigger <= first {
		t.Errorf("bound not monotone in m: m=8 %v, m=80 %v", first, bigger)
	}
}
