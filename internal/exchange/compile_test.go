package exchange

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// machines are the two example parameter sets the compiler is verified
// against.
var machines = []struct {
	name string
	prm  model.Params
}{
	{"hypothetical", model.Hypothetical()},
	{"ipsc860", model.IPSC860()},
}

func comparePrograms(t *testing.T, label string, got, want []simnet.Program) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d programs, want %d", label, len(got), len(want))
	}
	for p := range want {
		if len(got[p]) != len(want[p]) {
			t.Fatalf("%s: node %d has %d ops, want %d\ngot  %v\nwant %v",
				label, p, len(got[p]), len(want[p]), got[p], want[p])
		}
		for i := range want[p] {
			if got[p][i] != want[p][i] {
				t.Fatalf("%s: node %d op %d = %+v, want %+v",
					label, p, i, got[p][i], want[p][i])
			}
		}
	}
}

// The tentpole invariant: the compiled per-node programs must be
// op-for-op identical to the programs a live fabric.Sim run records, for
// multiphase plans across machines and partitions — the recorded traces
// are the oracle the compiler is checked against.
func TestCompiledMatchesRecordedTraces(t *testing.T) {
	cases := []struct {
		d, m int
		D    partition.Partition
	}{
		{0, 8, nil},
		{1, 16, partition.Partition{1}},
		{3, 16, partition.Partition{1, 1, 1}},
		{3, 0, partition.Partition{3}},
		{4, 8, partition.Partition{2, 2}},
		{4, 40, partition.Partition{1, 3}},
		{5, 24, partition.Partition{2, 3}},
		{5, 5, partition.Partition{5}},
	}
	for _, mc := range machines {
		for _, c := range cases {
			plan, err := NewPlanOn(topology.MustNew(c.d), c.m, c.D)
			if err != nil {
				t.Fatal(err)
			}
			fab := fabric.NewSim(simnet.New(topology.MustNew(c.d), mc.prm))
			if err := plan.RunOn(fab, fabric.DefaultSimTimeout); err != nil {
				t.Fatalf("%s d=%d m=%d %v: %v", mc.name, c.d, c.m, c.D, err)
			}
			label := mc.name + " " + plan.String()
			comparePrograms(t, label, plan.Compile().Programs(), fab.Traces())
		}
	}
}

// Cost (compiled replay) and Simulate (goroutine run + recorded-trace
// replay) must agree exactly: same programs through the same simulator.
func TestCostEqualsSimulate(t *testing.T) {
	for _, mc := range machines {
		for _, c := range []struct {
			d, m int
			D    partition.Partition
		}{
			{4, 32, partition.Partition{2, 2}},
			{5, 40, partition.Partition{2, 3}},
			{5, 0, partition.Partition{5}},
		} {
			plan, err := NewPlanOn(topology.MustNew(c.d), c.m, c.D)
			if err != nil {
				t.Fatal(err)
			}
			net := simnet.New(topology.MustNew(c.d), mc.prm)
			sim, err := plan.Simulate(net)
			if err != nil {
				t.Fatal(err)
			}
			cost, err := plan.Cost(net)
			if err != nil {
				t.Fatal(err)
			}
			if cost.Makespan != sim.Makespan || cost.Messages != sim.Messages ||
				cost.BytesMoved != sim.BytesMoved || cost.Barriers != sim.Barriers ||
				cost.ContentionStall != sim.ContentionStall {
				t.Errorf("%s d=%d m=%d %v: compiled %+v != simulated %+v",
					mc.name, c.d, c.m, c.D, cost, sim)
			}
		}
	}
}

// Cost must also agree under jitter: the compiled source replays through
// the same engine with the same per-Run noise stream.
func TestCostEqualsSimulateWithJitter(t *testing.T) {
	plan, err := NewPlanOn(topology.MustNew(4), 64, partition.Partition{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New(topology.MustNew(4), model.IPSC860())
	net.SetJitter(0.05, 42)
	sim, err := plan.Simulate(net)
	if err != nil {
		t.Fatal(err)
	}
	cost, err := plan.Cost(net)
	if err != nil {
		t.Fatal(err)
	}
	if cost.Makespan != sim.Makespan {
		t.Errorf("jittered compiled %v != simulated %v", cost.Makespan, sim.Makespan)
	}
}

// The compact Source view and the materialized programs must agree.
func TestCompiledSourceMatchesPrograms(t *testing.T) {
	plan, err := NewPlanOn(topology.MustNew(4), 24, partition.Partition{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	c := plan.Compile()
	progs := c.Programs()
	if c.NumNodes() != len(progs) || c.NumNodes() != 16 {
		t.Fatalf("NumNodes = %d", c.NumNodes())
	}
	total := 0
	for p := range progs {
		if c.NumOps(p) != len(progs[p]) {
			t.Fatalf("node %d: NumOps %d != len %d", p, c.NumOps(p), len(progs[p]))
		}
		for i := range progs[p] {
			if c.Op(p, i) != progs[p][i] {
				t.Fatalf("node %d op %d mismatch", p, i)
			}
		}
		total += len(progs[p])
	}
	if c.Ops() != total {
		t.Errorf("Ops() = %d, want %d", c.Ops(), total)
	}
}

func TestCostDimensionMismatch(t *testing.T) {
	plan, err := NewPlanOn(topology.MustNew(3), 8, partition.Partition{3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Cost(simnet.New(topology.MustNew(4), model.IPSC860())); err == nil {
		t.Error("dimension mismatch must fail")
	}
}

// CompilePhase must emit exactly the corresponding slice of Compile's
// row table: concatenating every phase fragment reproduces the whole
// plan's rows, and a single-phase plan's fragment replay is bit-identical
// to its whole-plan Cost.
func TestCompilePhaseMatchesCompile(t *testing.T) {
	cases := []struct {
		spec string
		m    int
		D    partition.Partition
	}{
		{"hypercube-5", 24, partition.Partition{2, 3}},
		{"hypercube-4", 8, partition.Partition{1, 1, 2}},
		{"torus-4x4", 40, partition.Partition{1, 1}},
		{"torus-8x2x2", 8, partition.Partition{1, 2}},
		{"mesh-3x3", 16, partition.Partition{2}},
	}
	for _, tc := range cases {
		topo := topology.MustParseSpec(tc.spec)
		plan, err := NewPlanOn(topo, tc.m, tc.D)
		if err != nil {
			t.Fatal(err)
		}
		whole := plan.Compile()
		var stitched []compiledOp
		for i := 0; i < plan.NumPhases(); i++ {
			frag := plan.CompilePhase(i)
			if frag.n != whole.n || frag.m != whole.m || frag.topo != whole.topo {
				t.Fatalf("%s %v phase %d: fragment header %+v differs from whole plan", tc.spec, tc.D, i, frag)
			}
			stitched = append(stitched, frag.rows...)
		}
		if len(stitched) != len(whole.rows) {
			t.Fatalf("%s %v: %d stitched rows, want %d", tc.spec, tc.D, len(stitched), len(whole.rows))
		}
		for i := range whole.rows {
			if stitched[i] != whole.rows[i] {
				t.Fatalf("%s %v row %d: fragment %+v, whole %+v", tc.spec, tc.D, i, stitched[i], whole.rows[i])
			}
		}
	}

	// Single-phase plan: fragment replay ≡ whole-plan Cost, bit-exact.
	topo := topology.MustParseSpec("torus-4x4x4")
	plan, err := NewPlanOn(topo, 40, partition.Partition{3})
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New(topo, model.IPSC860())
	whole, err := plan.Cost(net)
	if err != nil {
		t.Fatal(err)
	}
	frag, err := net.RunSource(plan.CompilePhase(0))
	if err != nil {
		t.Fatal(err)
	}
	if frag.Makespan != whole.Makespan {
		t.Fatalf("single-phase fragment %v µs, whole plan %v µs", frag.Makespan, whole.Makespan)
	}
}
