package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
)

// runShort runs one workload in short mode and decodes its result line.
func runShort(t *testing.T, workload string, trace bool) result {
	t.Helper()
	cfg := config{
		workload: workload,
		seed:     7,
		seconds:  0.4,
		trace:    trace,
		spansOut: filepath.Join(t.TempDir(), "spans.json"),
		short:    true,
	}
	var buf bytes.Buffer
	if err := run(cfg, &buf); err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line %q: %v", workload, lines[len(lines)-1], err)
	}
	if trace {
		if _, err := os.Stat(cfg.spansOut); err != nil {
			t.Errorf("%s: traced run wrote no span file: %v", workload, err)
		}
	}
	return res
}

// TestEveryMetricEmitted runs every workload in both modes and checks the
// result line carries exactly the declared metrics, each with its unit,
// and that every oracle check passed.
func TestEveryMetricEmitted(t *testing.T) {
	for _, w := range []string{"serve-warm", "serve-cold", "paper-pipeline"} {
		for _, trace := range []bool{false, true} {
			res := runShort(t, w, trace)
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				mv, ok := res.Metrics[d.Name]
				if !ok || mv.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", w, trace, d.Name, mv, d.Unit)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
		}
	}
}

// TestWrongOracleFails proves the gate works: a deliberately wrong oracle
// value registers as a failed op and an incorrect run.
func TestWrongOracleFails(t *testing.T) {
	saved := figureOracle[5]
	figureOracle[5] = saved + 1
	t.Cleanup(func() { figureOracle[5] = saved })
	res := runShort(t, "paper-pipeline", false)
	if res.Correct || res.Failed == 0 {
		t.Fatalf("wrong Figure 4 oracle: correct=%v failed=%d, want an incorrect run with failures", res.Correct, res.Failed)
	}
}

// TestCheckPlanRejectsWrongAnswer covers the serving oracle: a served
// plan that differs from its reference in partition or time is an error.
func TestCheckPlanRejectsWrongAnswer(t *testing.T) {
	k := planKey{"ipsc860", "hypercube-7", 40}
	ref := planRef{part: []int{4, 3}, us: 16097.32}
	good := &service.PlanResponse{Machine: "ipsc860", M: 40, Partition: []int{4, 3}, PredictedUS: 16097.32}
	if err := checkPlan(good, k, ref); err != nil {
		t.Fatalf("matching plan rejected: %v", err)
	}
	for _, bad := range []*service.PlanResponse{
		{Machine: "ipsc860", M: 40, Partition: []int{3, 4}, PredictedUS: 16097.32},
		{Machine: "ipsc860", M: 40, Partition: []int{4, 3}, PredictedUS: 16097.33},
		{Machine: "ncube2", M: 40, Partition: []int{4, 3}, PredictedUS: 16097.32},
	} {
		if checkPlan(bad, k, ref) == nil {
			t.Errorf("wrong plan %+v accepted", bad)
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the emitted metric names and units
// in step with the benchmark definition at the repository root.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark emits %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark emits %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", def.EndToEnd, endToEnd)
	same("per_layer", def.PerLayer, perLayer)
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json workloads %v, implemented %d", names, len(workloads))
	}
}

// TestLoadGenerators checks the open loop keeps its schedule and both
// loops stay within their worker bound.
func TestLoadGenerators(t *testing.T) {
	var inflight, peak atomic.Int32
	op := func(int) error {
		n := inflight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inflight.Add(-1)
		return nil
	}
	open := openLoop(2, 200, 500*time.Millisecond, op)
	if open.done != 100 || open.offered != 200 {
		t.Errorf("open loop: %d ops at offered %v/s, want 100 at 200/s", open.done, open.offered)
	}
	if len(open.lat) != open.done || len(open.lag) != open.done {
		t.Errorf("open loop: %d latencies, %d lags for %d ops", len(open.lat), len(open.lag), open.done)
	}
	closed := closedLoop(2, 1<<30, time.Now().Add(200*time.Millisecond), op)
	if closed.done == 0 || closed.elapsed > time.Second {
		t.Errorf("closed loop: %d ops in %v", closed.done, closed.elapsed)
	}
	if p := peak.Load(); p > 2 {
		t.Errorf("%d ops in flight at once, want at most 2", p)
	}
}

// TestSelfTimes checks a span's self time excludes the part of its
// interval its children cover, overlapping children counted once.
func TestSelfTimes(t *testing.T) {
	spans := []spanRec{
		{ID: 1, Name: "root", StartUS: 0, DurUS: 100},
		{ID: 2, Parent: 1, Name: "child", StartUS: 10, DurUS: 30},
		{ID: 3, Parent: 1, Name: "child", StartUS: 20, DurUS: 30},
		{ID: 4, Parent: 2, Name: "leaf", StartUS: 15, DurUS: 5},
	}
	got := selfTimes(spans)
	want := map[string]layerTime{
		"root":  {Count: 1, TotalUS: 100, SelfUS: 60},
		"child": {Count: 2, TotalUS: 60, SelfUS: 55},
		"leaf":  {Count: 1, TotalUS: 5, SelfUS: 5},
	}
	var names []string
	for n := range want {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if got[n] != want[n] {
			t.Errorf("%s: got %+v, want %+v", n, got[n], want[n])
		}
	}
}
