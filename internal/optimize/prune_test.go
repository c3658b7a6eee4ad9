package optimize

import (
	"context"
	"sync"
	"testing"

	"repro/internal/exchange"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// equivalenceShapes are the three topology families the acceptance
// criteria name; all small enough for both backends.
var equivalenceShapes = []string{"hypercube-6", "torus-4x4", "mesh-3x3", "torus-8x2x2"}

func shapeNet(t *testing.T, spec string) topology.Network {
	t.Helper()
	if spec == "hypercube-6" {
		net, err := topology.New(6)
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	return topology.MustParseSpec(spec)
}

// The tentpole invariant: the pruned, best-first, parallel enumeration
// must return the exact same Choice — partition and bit-identical
// TimeMicro — as exhaustive serial enumeration, on every topology shape
// and both backends.
func TestPrunedParallelEquivalentToExhaustiveSerial(t *testing.T) {
	prm := model.IPSC860()
	for _, spec := range equivalenceShapes {
		for _, backend := range []Backend{Analytic, Simulated} {
			net := shapeNet(t, spec)
			newOpt := New
			if backend == Simulated {
				newOpt = NewSimulated
			}
			serial := newOpt(prm)
			serial.SetExhaustive(true)
			serial.SetWorkers(1)
			pruned := newOpt(prm)
			pruned.SetWorkers(4)
			for _, m := range []int{0, 4, 40, 200} {
				want, err := serial.BestOn(net, m)
				if err != nil {
					t.Fatalf("%s %v m=%d serial: %v", spec, backend, m, err)
				}
				got, err := pruned.BestOn(net, m)
				if err != nil {
					t.Fatalf("%s %v m=%d pruned: %v", spec, backend, m, err)
				}
				if !got.Part.Equal(want.Part) || got.TimeMicro != want.TimeMicro {
					t.Errorf("%s %v m=%d: pruned+parallel %v/%v µs, exhaustive-serial %v/%v µs",
						spec, backend, m, got.Part, got.TimeMicro, want.Part, want.TimeMicro)
				}
			}
		}
	}
}

// BuildTableOn must produce the identical table under pruning and
// parallelism as under exhaustive serial enumeration.
func TestPrunedTableEquivalentToExhaustiveSerial(t *testing.T) {
	prm := model.IPSC860()
	for _, spec := range []string{"hypercube-6", "torus-4x4", "mesh-3x3"} {
		net := shapeNet(t, spec)
		serial := NewSimulated(prm)
		serial.SetExhaustive(true)
		serial.SetWorkers(1)
		pruned := NewSimulated(prm)
		pruned.SetWorkers(4)
		want, err := serial.BuildTableOn(net, 0, 96, 8)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pruned.BuildTableOn(net, 0, 96, 8)
		if err != nil {
			t.Fatal(err)
		}
		if got.Topo != want.Topo || got.D != want.D || len(got.Segments) != len(want.Segments) {
			t.Fatalf("%s: table shape differs: %+v vs %+v", spec, got, want)
		}
		for i := range got.Segments {
			g, w := got.Segments[i], want.Segments[i]
			if !g.Part.Equal(w.Part) || g.MinBlock != w.MinBlock || g.MaxBlock != w.MaxBlock {
				t.Errorf("%s segment %d: pruned %+v, exhaustive %+v", spec, i, g, w)
			}
		}
	}
}

// The memoized analytic phase-sum must be bit-identical to the
// unmemoized closed forms, cold and warm, on every grouping — the
// property that keeps the optimizer's reported times exactly equal to
// Multiphase/MultiphaseOn.
func TestMemoizedAnalyticCostMatchesUnmemoized(t *testing.T) {
	prm := model.IPSC860()
	for _, spec := range equivalenceShapes {
		net := shapeNet(t, spec)
		o := New(prm)
		es, err := o.enumFor(net)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []int{0, 3, 40, 331} {
			for pass := 0; pass < 2; pass++ { // cold memo, then warm
				for i, D := range es.parts {
					got, err := o.candidateCost(nil, net, m, D, es.fields[i])
					if err != nil {
						t.Fatal(err)
					}
					want, _, err := prm.MultiphaseOn(net, m, D)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Errorf("%s m=%d %v pass %d: memoized %v, MultiphaseOn %v",
							spec, m, D, pass, got, want)
					}
				}
			}
		}
	}
}

// The branch-and-bound cut is only sound if the bound never exceeds the
// simulated cost. Check candidate-level admissibility — the per-phase
// bound sum against both the fragment-sum screening cost and the
// whole-plan makespan — on every grouping of every shape.
func TestLowerBoundAdmissible(t *testing.T) {
	for _, prm := range []model.Params{model.IPSC860(), model.IPSC860Raw(), model.Hypothetical()} {
		for _, spec := range equivalenceShapes {
			net := shapeNet(t, spec)
			o := NewSimulated(prm)
			es, err := o.enumFor(net)
			if err != nil {
				t.Fatal(err)
			}
			sim := simnet.New(net, prm)
			for _, m := range []int{0, 8, 100} {
				for i, D := range es.parts {
					lb, err := o.candidateBound(net, m, es.fields[i])
					if err != nil {
						t.Fatal(err)
					}
					screen, err := o.candidateCost(sim, net, m, D, es.fields[i])
					if err != nil {
						t.Fatal(err)
					}
					plan, err := exchange.NewPlanOn(net, m, D)
					if err != nil {
						t.Fatal(err)
					}
					res, err := plan.Cost(sim)
					if err != nil {
						t.Fatal(err)
					}
					if lb > screen*(1+pruneSlack) {
						t.Errorf("%s m=%d %v: bound %v above fragment-sum %v", spec, m, D, lb, screen)
					}
					if lb > res.Makespan*(1+pruneSlack) {
						t.Errorf("%s m=%d %v: bound %v above whole-plan %v", spec, m, D, lb, res.Makespan)
					}
					// The screening phase-sum tracks the whole-plan
					// makespan closely. The decomposition is exact in
					// real arithmetic (barriers serialize phases), but
					// contended cyclic phases resolve exactly-tied link
					// acquisitions by float comparison of absolute
					// times, and a phase replayed from a different
					// start offset can flip a tie and cascade into a
					// slightly different schedule (observed ≤ 2% on
					// torus-8x2x2). Contention-free phases decompose to
					// float noise.
					tol := 1e-9*res.Makespan + 1e-9
					if res.ContentionStall > 0 {
						tol = 0.05*res.Makespan + 1e-9
					}
					if diff := screen - res.Makespan; diff > tol || -diff > tol {
						t.Errorf("%s m=%d %v: fragment-sum %v vs whole-plan %v (stall %v)",
							spec, m, D, screen, res.Makespan, res.ContentionStall)
					}
				}
			}
		}
	}
}

// A d=10 simulated enumeration on the contention-free hypercube must
// both prune and hit the memo; every dequeued candidate lands in exactly
// one of the two counters.
func TestStatsCounters(t *testing.T) {
	o := NewSimulated(model.IPSC860())
	if _, err := o.BestOn(topology.MustNew(10), 4); err != nil {
		t.Fatal(err)
	}
	st := o.Stats()
	if st.Evaluations != 1 {
		t.Errorf("Evaluations = %d, want 1", st.Evaluations)
	}
	total := int64(len(partition.All(10)))
	if st.Evaluated+st.Pruned != total {
		t.Errorf("Evaluated %d + Pruned %d != %d candidates", st.Evaluated, st.Pruned, total)
	}
	if st.Pruned == 0 {
		t.Error("pruning never engaged on a d=10 enumeration")
	}
	if st.Evaluated == 0 {
		t.Error("no candidate was evaluated")
	}
	if st.MemoMisses == 0 {
		t.Error("memo never filled")
	}
	var sum Stats
	sum.Add(st)
	sum.Add(st)
	if sum.Pruned != 2*st.Pruned || sum.Evaluations != 2 {
		t.Errorf("Stats.Add: %+v", sum)
	}
}

// A table sweep runs exactly one enumeration per swept point, a rebuild
// runs none (per-point cache), and concurrent duplicate sweeps share the
// same builds instead of multiplying them.
func TestBuildTableBuildsPerSweep(t *testing.T) {
	o := New(model.IPSC860())
	const lo, hi, step = 0, 64, 2
	points := int64(0)
	for m := lo; m <= hi; m += step {
		points++
	}
	if _, err := o.BuildTableOn(topology.MustNew(6), lo, hi, step); err != nil {
		t.Fatal(err)
	}
	if got := o.Evaluations(); got != points {
		t.Errorf("first sweep ran %d enumerations, want %d", got, points)
	}
	if _, err := o.BuildTableOn(topology.MustNew(6), lo, hi, step); err != nil {
		t.Fatal(err)
	}
	if got := o.Evaluations(); got != points {
		t.Errorf("rebuild re-ran enumerations: %d, want %d", got, points)
	}

	// Fresh optimizer, 8 concurrent identical sweeps: still one
	// enumeration per point.
	o2 := New(model.IPSC860())
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = o2.BuildTableOn(topology.MustNew(6), lo, hi, step)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := o2.Evaluations(); got != points {
		t.Errorf("8 concurrent sweeps ran %d enumerations, want %d", got, points)
	}
}

// The warm-start hint reorders evaluation only; even a deliberately bad
// hint must not change the winner.
func TestHintDoesNotChangeResult(t *testing.T) {
	prm := model.IPSC860()
	net := topology.MustParseSpec("torus-4x4x4")
	want, err := NewSimulated(prm).BestOn(net, 40)
	if err != nil {
		t.Fatal(err)
	}
	for _, hint := range []partition.Partition{{3}, {1, 1, 1}, {2, 1}} {
		o := NewSimulated(prm)
		got, err := o.bestOn(context.Background(), net, 40, hint)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Part.Equal(want.Part) || got.TimeMicro != want.TimeMicro {
			t.Errorf("hint %v: %v/%v µs, want %v/%v µs", hint, got.Part, got.TimeMicro, want.Part, want.TimeMicro)
		}
	}
}

// SetWorkers must clamp and never alter results; worker counts from 1 to
// GOMAXPROCS return the same Choice (determinism of the parallel path).
func TestWorkerCountsAgree(t *testing.T) {
	prm := model.IPSC860()
	net := topology.MustParseSpec("torus-8x2x2")
	var ref Choice
	for i, w := range []int{1, 2, 3, 4, 1 << 20} {
		o := NewSimulated(prm)
		o.SetWorkers(w)
		c, err := o.BestOn(net, 24)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = c
			continue
		}
		if !c.Part.Equal(ref.Part) || c.TimeMicro != ref.TimeMicro {
			t.Errorf("workers=%d: %v/%v µs, want %v/%v µs", w, c.Part, c.TimeMicro, ref.Part, ref.TimeMicro)
		}
	}
}
