package trace

import (
	"strings"
	"testing"

	"repro/internal/exchange"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/simnet"
	"repro/internal/topology"
)

func tracedRun(t *testing.T, d, m int, D partition.Partition) simnet.Result {
	t.Helper()
	plan, err := exchange.NewPlanOn(topology.MustNew(d), m, D)
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New(topology.MustNew(d), model.IPSC860())
	net.SetTrace(true)
	res, err := plan.Simulate(net)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTimelineRecorded(t *testing.T) {
	res := tracedRun(t, 3, 16, partition.Partition{2, 1})
	if len(res.Timeline) == 0 {
		t.Fatal("no intervals recorded")
	}
	// Per node: 2 barriers + 3+1 exchanges + 1 shuffle... phase 1 (d1=2):
	// barrier + 3 exchanges + shuffle; phase 2 (d2=1): barrier + 1
	// exchange + shuffle skipped? d2=1 != d=3 so shuffle present.
	// 8 nodes × (1+3+1 + 1+1+1) = 64 intervals.
	if len(res.Timeline) != 64 {
		t.Errorf("timeline has %d intervals, want 64", len(res.Timeline))
	}
	for _, iv := range res.Timeline {
		if iv.End < iv.Start {
			t.Fatalf("negative interval %+v", iv)
		}
		if iv.End > res.Makespan+1e-9 {
			t.Fatalf("interval beyond makespan: %+v", iv)
		}
	}
}

func TestTraceOffByDefault(t *testing.T) {
	plan, _ := exchange.NewPlanOn(topology.MustNew(2), 8, partition.Partition{2})
	net := simnet.New(topology.MustNew(2), model.IPSC860())
	res, err := plan.Simulate(net)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timeline) != 0 {
		t.Error("timeline must be empty without SetTrace")
	}
}

func TestAnalyzeBreakdown(t *testing.T) {
	res := tracedRun(t, 4, 32, partition.Partition{2, 2})
	st := Analyze(res)
	if st.Nodes != 16 || st.Makespan != res.Makespan {
		t.Fatalf("stats header wrong: %+v", st)
	}
	// All nodes run identical programs in lockstep: equal busy times.
	for i := 1; i < st.Nodes; i++ {
		if st.Busy[i] != st.Busy[0] {
			t.Errorf("node %d busy %v != node 0 %v", i, st.Busy[i], st.Busy[0])
		}
	}
	// Exchange + shuffle + barrier shares must sum to ~1 (only kinds
	// present in a multiphase program).
	sum := st.KindShare(simnet.OpExchange) + st.KindShare(simnet.OpShuffle) +
		st.KindShare(simnet.OpBarrier)
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("shares sum to %v", sum)
	}
	if st.KindShare(simnet.OpExchange) <= 0 || st.KindShare(simnet.OpShuffle) <= 0 {
		t.Error("exchange and shuffle shares must be positive")
	}
	// Lockstep plans: utilization ≈ 1.
	if u := st.Utilization(0); u < 0.999 || u > 1.001 {
		t.Errorf("utilization = %v", u)
	}
}

func TestKindShareEmpty(t *testing.T) {
	if (Stats{}).KindShare(simnet.OpExchange) != 0 {
		t.Error("empty stats share must be 0")
	}
	s := Stats{Makespan: 0, Busy: []float64{0}}
	if s.Utilization(0) != 0 {
		t.Error("zero-makespan utilization must be 0")
	}
}

func TestGanttRendering(t *testing.T) {
	res := tracedRun(t, 3, 16, partition.Partition{2, 1})
	g := Gantt(res, 80)
	lines := strings.Split(strings.TrimSpace(g), "\n")
	if len(lines) != 9 { // header + 8 nodes
		t.Fatalf("gantt lines = %d:\n%s", len(lines), g)
	}
	for _, glyph := range []string{"X", "#", "|"} {
		if !strings.Contains(g, glyph) {
			t.Errorf("gantt missing %q:\n%s", glyph, g)
		}
	}
	// Row width must be the requested width.
	row := lines[1]
	bar := row[strings.Index(row, "|")+1 : strings.LastIndex(row, "|")]
	if len(bar) != 80 {
		t.Errorf("bar width %d", len(bar))
	}
}

func TestGanttEmptyAndClamped(t *testing.T) {
	if !strings.Contains(Gantt(simnet.Result{}, 40), "empty") {
		t.Error("empty timeline must render placeholder")
	}
	res := tracedRun(t, 2, 8, partition.Partition{2})
	if g := Gantt(res, 0); !strings.Contains(g, "node") {
		t.Error("width clamp failed")
	}
}

func TestSummary(t *testing.T) {
	res := tracedRun(t, 3, 16, partition.Partition{1, 1, 1})
	s := Summary(res)
	for _, want := range []string{"makespan", "exchange", "shuffle", "barrier", "%"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestGanttGlyphCoverage(t *testing.T) {
	// A synthetic timeline exercising every op kind, including ones the
	// exchange plans never emit (send, postrecv, compute, unknown).
	res := simnet.Result{
		Makespan:   100,
		NodeFinish: make([]float64, 2),
		Timeline: []simnet.Interval{
			{Node: 0, Kind: simnet.OpSend, Start: 0, End: 10},
			{Node: 0, Kind: simnet.OpRecv, Start: 10, End: 20},
			{Node: 0, Kind: simnet.OpWaitRecv, Start: 20, End: 30},
			{Node: 0, Kind: simnet.OpPostRecv, Start: 30, End: 40},
			{Node: 0, Kind: simnet.OpCompute, Start: 40, End: 50},
			{Node: 1, Kind: simnet.OpKind(99), Start: 0, End: 100},
			{Node: 7, Kind: simnet.OpSend, Start: 0, End: 5}, // out of range: ignored
		},
	}
	g := Gantt(res, 50)
	for _, glyph := range []string{"s", "r", "p", "c", "?"} {
		if !strings.Contains(g, glyph) {
			t.Errorf("gantt missing glyph %q:\n%s", glyph, g)
		}
	}
	st := Analyze(res)
	if st.Busy[1] != 100 {
		t.Errorf("node 1 busy = %v", st.Busy[1])
	}
	if st.KindShare(simnet.OpSend) <= 0 {
		t.Error("send share must count")
	}
}
