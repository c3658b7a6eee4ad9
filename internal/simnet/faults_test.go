package simnet

import (
	"errors"
	"testing"

	"repro/internal/model"
	"repro/internal/topology"
)

// A statically slow wire (Degraded overlay) stretches exactly the
// exchanges that cross it, by exactly the factor.
func TestStaticSlowLinkStretchesExchange(t *testing.T) {
	p := model.IPSC860()
	base := topology.MustParseSpec("torus-4x4")
	const factor = 3.0
	d, err := topology.Overlay(base, topology.FaultSet{
		SlowLinks: []topology.SlowLink{{Link: topology.Link{A: 0, B: 1}, Factor: factor}},
	})
	if err != nil {
		t.Fatal(err)
	}
	n := New(d, p)
	m := 100
	healthy := p.EffLambda() + p.Tau*float64(m) + p.EffDelta()*1

	progs := emptyPrograms(16)
	progs[0] = Program{Exchange(1, m)} // crosses the slow wire
	progs[1] = Program{Exchange(0, m)}
	res, err := n.Run(progs)
	if err != nil {
		t.Fatal(err)
	}
	if want := factor * healthy; !almost(res.Makespan, want, 1e-9) {
		t.Errorf("slow-wire exchange makespan = %v, want %v", res.Makespan, want)
	}

	progs = emptyPrograms(16)
	progs[2] = Program{Exchange(3, m)} // far from the slow wire
	progs[3] = Program{Exchange(2, m)}
	res, err = n.Run(progs)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(res.Makespan, healthy, 1e-9) {
		t.Errorf("healthy-wire exchange makespan = %v, want %v", res.Makespan, healthy)
	}
}

// A timed slow fault activates only for circuits acquired at or after
// At, and composes multiplicatively with a static slow factor.
func TestFaultPlanSlowComposesWithStatic(t *testing.T) {
	p := model.IPSC860()
	base := topology.MustParseSpec("torus-4x4")
	d, err := topology.Overlay(base, topology.FaultSet{
		SlowLinks: []topology.SlowLink{{Link: topology.Link{A: 0, B: 1}, Factor: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	n := New(d, p)
	m := 100
	healthy := p.EffLambda() + p.Tau*float64(m) + p.EffDelta()*1
	// Activates after the first (static-2×) exchange starts but before
	// the second is acquired at t = 2·healthy.
	if err := n.SetFaultPlan(FaultPlan{Links: []LinkFault{
		{A: 0, B: 1, At: healthy, Factor: 3},
	}}); err != nil {
		t.Fatal(err)
	}
	// Two back-to-back exchanges over the wire: the first starts at 0
	// (static 2× only), the second starts at 2·healthy ≥ At (2×·3×).
	progs := emptyPrograms(16)
	progs[0] = Program{Exchange(1, m), Exchange(1, m)}
	progs[1] = Program{Exchange(0, m), Exchange(0, m)}
	res, err := n.Run(progs)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2*healthy + 6*healthy; !almost(res.Makespan, want, 1e-9) {
		t.Errorf("makespan = %v, want %v", res.Makespan, want)
	}
}

// A wire going down at time T fails — loudly, with ErrLinkDown — any
// circuit acquired at or after T, while runs that finish before T are
// untouched.
func TestFaultPlanLinkDownFailsLoudly(t *testing.T) {
	p := model.IPSC860()
	n := New(topology.MustNew(3), p)
	m := 100
	healthy := p.EffLambda() + p.Tau*float64(m) + p.EffDelta()*1
	// The wire dies mid-plan: after the first exchange is acquired at
	// t = 0, before the second is acquired at t = healthy.
	if err := n.SetFaultPlan(FaultPlan{Links: []LinkFault{
		{A: 0, B: 1, At: 0.5 * healthy, Factor: 0},
	}}); err != nil {
		t.Fatal(err)
	}
	progs := emptyPrograms(8)
	progs[0] = Program{Exchange(1, m)}
	progs[1] = Program{Exchange(0, m)}
	if _, err := n.Run(progs); err != nil {
		t.Fatalf("exchange before the fault must survive: %v", err)
	}
	progs[0] = Program{Exchange(1, m), Exchange(1, m)}
	progs[1] = Program{Exchange(0, m), Exchange(0, m)}
	if _, err := n.Run(progs); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("exchange across dead wire: %v, want ErrLinkDown", err)
	}

	// Sends hit the same wall.
	if err := n.SetFaultPlan(FaultPlan{Links: []LinkFault{{A: 0, B: 1, At: 0, Factor: 0}}}); err != nil {
		t.Fatal(err)
	}
	progs = emptyPrograms(8)
	progs[0] = Program{Send(1, m, Unforced)}
	progs[1] = Program{Recv(0)}
	if _, err := n.Run(progs); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("send across dead wire: %v, want ErrLinkDown", err)
	}
	// Clearing the plan restores the healthy fabric.
	if err := n.SetFaultPlan(FaultPlan{}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Run(progs); err != nil {
		t.Fatalf("cleared fault plan must run clean: %v", err)
	}
}

// Fault adjustments compose with jitter deterministically: two runs with
// the same seed and fault plan agree bit-for-bit.
func TestFaultsComposeWithJitterDeterministically(t *testing.T) {
	p := model.IPSC860()
	base := topology.MustParseSpec("torus-4x4")
	d, err := topology.Overlay(base, topology.FaultSet{
		SlowLinks: []topology.SlowLink{{Link: topology.Link{A: 0, B: 1}, Factor: 2.5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	mk := func() (Result, error) {
		n := New(d, p)
		n.SetJitter(0.05, 42)
		if err := n.SetFaultPlan(FaultPlan{Links: []LinkFault{{A: 4, B: 5, At: 10, Factor: 2}}}); err != nil {
			t.Fatal(err)
		}
		progs := emptyPrograms(16)
		for _, pair := range [][2]int{{0, 1}, {4, 5}, {8, 9}} {
			progs[pair[0]] = Program{Exchange(pair[1], 64), Exchange(pair[1], 64)}
			progs[pair[1]] = Program{Exchange(pair[0], 64), Exchange(pair[0], 64)}
		}
		return n.Run(progs)
	}
	r1, err1 := mk()
	r2, err2 := mk()
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if r1.Makespan != r2.Makespan || r1.ContentionStall != r2.ContentionStall {
		t.Fatalf("jittered faulty runs diverge: %v vs %v", r1.Makespan, r2.Makespan)
	}
	// And the jittered slow exchange is genuinely ≠ the unjittered one.
	n := New(d, p)
	if err := n.SetFaultPlan(FaultPlan{Links: []LinkFault{{A: 4, B: 5, At: 10, Factor: 2}}}); err != nil {
		t.Fatal(err)
	}
	progs := emptyPrograms(16)
	progs[0] = Program{Exchange(1, 64)}
	progs[1] = Program{Exchange(0, 64)}
	r3, err := n.Run(progs)
	if err != nil {
		t.Fatal(err)
	}
	want := 2.5 * (p.EffLambda() + p.Tau*64 + p.EffDelta()*1)
	if !almost(r3.Makespan, want, 1e-9) {
		t.Errorf("unjittered slow exchange = %v, want %v", r3.Makespan, want)
	}
}

// A faulty Degraded overlay with a dead wire detours circuits around it:
// the replay core never touches the dead wire's slots and the exchange
// still completes (at the longer detour distance).
func TestDegradedDeadWireDetoursInReplay(t *testing.T) {
	p := model.IPSC860()
	base := topology.MustParseSpec("torus-4x4")
	d, err := topology.Overlay(base, topology.FaultSet{
		DeadLinks: []topology.Link{{A: 0, B: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	n := New(d, p)
	m := 100
	progs := emptyPrograms(16)
	progs[0] = Program{Exchange(1, m)}
	progs[1] = Program{Exchange(0, m)}
	res, err := n.Run(progs)
	if err != nil {
		t.Fatal(err)
	}
	h := d.Distance(0, 1) // detour length, > 1
	if h <= 1 {
		t.Fatalf("detour distance = %d, want > 1", h)
	}
	want := p.EffLambda() + p.Tau*float64(m) + p.EffDelta()*float64(h)
	if !almost(res.Makespan, want, 1e-9) {
		t.Errorf("detoured exchange makespan = %v, want %v", res.Makespan, want)
	}
}

func TestSetFaultPlanValidation(t *testing.T) {
	n := New(topology.MustNew(3), model.IPSC860())
	for _, bad := range []LinkFault{
		{A: 0, B: 3, At: 0, Factor: 0},   // not adjacent
		{A: 0, B: 99, At: 0, Factor: 0},  // out of range
		{A: 0, B: 1, At: -1, Factor: 0},  // negative time
		{A: 0, B: 1, At: 0, Factor: 0.5}, // factor ≤ 1
	} {
		if err := n.SetFaultPlan(FaultPlan{Links: []LinkFault{bad}}); err == nil {
			t.Errorf("SetFaultPlan accepted %+v", bad)
		}
	}
}

// On a damaged overlay the replay takes hop counts from the fault-aware
// route it walks into its reused route buffer: the same distance as
// Degraded.Distance for every pair, without allocating per call.
func TestDegradedReplayDistance(t *testing.T) {
	for _, spec := range []string{"hypercube-6!dl=0-1", "torus-4x4x4!sl=0-1:2"} {
		dg, ok := topology.MustParseSpec(spec).(*topology.Degraded)
		if !ok {
			t.Fatalf("%s: not a degraded overlay", spec)
		}
		n := New(dg, model.IPSC860())
		st := n.newRunState(nil, make([]edgeState, dg.Nodes()*dg.Degree()))
		if !st.routedDist {
			t.Fatalf("%s: replay does not route distances", spec)
		}
		nodes := dg.Nodes()
		for a := 0; a < nodes; a++ {
			for b := 0; b < nodes; b++ {
				if got, want := st.dist(a, b), dg.Distance(a, b); got != want {
					t.Fatalf("%s: dist(%d,%d) = %d, Degraded.Distance = %d", spec, a, b, got, want)
				}
			}
		}
		if allocs := testing.AllocsPerRun(10, func() {
			for a := 0; a < nodes; a++ {
				for b := 0; b < nodes; b++ {
					st.dist(a, b)
				}
			}
		}); allocs != 0 {
			t.Errorf("%s: replay distances over all pairs allocated %.0f times", spec, allocs)
		}
	}
}
