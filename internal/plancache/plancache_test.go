package plancache

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/optimize"
	"repro/internal/topology"
)

func TestGetMatchesOptimizerBest(t *testing.T) {
	c := New(Config{})
	ref := optimize.New(model.IPSC860())
	for _, m := range []int{0, 1, 16, 40, 159, 160, 161, 400, 512} {
		got, err := c.GetOn("ipsc860", "hypercube-7", m)
		if err != nil {
			t.Fatalf("Get(ipsc860,7,%d): %v", m, err)
		}
		want, err := ref.BestOn(topology.MustNew(7), m)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Part.Equal(want.Part) {
			t.Errorf("m=%d: cache partition %v, optimizer %v", m, got.Part, want.Part)
		}
		if got.TimeMicro != want.TimeMicro {
			t.Errorf("m=%d: cache time %v, optimizer %v", m, got.TimeMicro, want.TimeMicro)
		}
		if !got.InRange {
			t.Errorf("m=%d: expected in-range resolution", m)
		}
		if m < got.SegMin || m > got.SegMax {
			t.Errorf("m=%d outside reported segment [%d,%d]", m, got.SegMin, got.SegMax)
		}
	}
}

func TestBlockAxisCollapsesToOneLine(t *testing.T) {
	// Capture the cache's optimizer so the bypass claim is checked at
	// the source: hits must not add enumerations.
	var opt *optimize.Optimizer
	c := New(Config{NewOptimizer: func(p model.Params) *optimize.Optimizer {
		opt = optimize.New(p)
		return opt
	}})
	for m := 0; m <= 512; m += 3 {
		if _, err := c.GetOn("ipsc860", "hypercube-6", m); err != nil {
			t.Fatal(err)
		}
	}
	evalsAfterBuild := opt.Evaluations()
	if evalsAfterBuild != 513 {
		t.Errorf("line build ran %d enumerations, want 513 (one per swept m)", evalsAfterBuild)
	}
	for m := 0; m <= 512; m += 7 {
		if _, err := c.GetOn("ipsc860", "hypercube-6", m); err != nil {
			t.Fatal(err)
		}
	}
	if got := opt.Evaluations(); got != evalsAfterBuild {
		t.Errorf("cache hits drove the optimizer: evaluations %d → %d", evalsAfterBuild, got)
	}
	s := c.Stats()
	if s.Misses != 1 {
		t.Errorf("misses = %d, want 1 (one line build serves every m)", s.Misses)
	}
	if s.Builds != 1 || s.Lines != 1 {
		t.Errorf("builds=%d lines=%d, want 1/1", s.Builds, s.Lines)
	}
	if s.Hits < 100 {
		t.Errorf("hits = %d, want the rest of the sweep", s.Hits)
	}
	if s.Segments == 0 || s.Segments > 64 {
		t.Errorf("segments = %d, want a small hull", s.Segments)
	}
}

func TestOutOfRangeClampsToNearestSegment(t *testing.T) {
	c := New(Config{SweepHi: 200})
	p, err := c.GetOn("ipsc860", "hypercube-7", 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if p.InRange {
		t.Error("m=1e6 reported in-range for a 200-byte sweep")
	}
	hull, err := c.HullFor(context.Background(), "ipsc860", topology.MustNew(7))
	if err != nil {
		t.Fatal(err)
	}
	last := hull.Segments[len(hull.Segments)-1]
	if !p.Part.Equal(last.Part) {
		t.Errorf("clamp answered %v, want last segment %v", p.Part, last.Part)
	}
}

func TestUnknownMachineListsValidSet(t *testing.T) {
	c := New(Config{})
	_, err := c.GetOn("cray", "hypercube-6", 40)
	if err == nil {
		t.Fatal("expected error for unknown machine")
	}
	if got := err.Error(); !bytes.Contains([]byte(got), []byte("ipsc860")) {
		t.Errorf("error %q does not list valid machines", got)
	}
}

func TestAliasResolvesToCanonicalLine(t *testing.T) {
	c := New(Config{})
	if _, err := c.GetOn("ipsc", "hypercube-6", 40); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetOn("ipsc860", "hypercube-6", 80); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Lines != 1 {
		t.Errorf("alias created a second line: %d resident", s.Lines)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(Config{Shards: 1, CapacityPerShard: 2})
	for _, d := range []int{4, 5, 6} {
		if _, err := c.GetFor(context.Background(), "hypo", topology.MustNew(d), 40); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Stats()
	if s.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", s.Evictions)
	}
	if s.Lines != 2 {
		t.Errorf("lines = %d, want capacity 2", s.Lines)
	}
	// d=4 was least recently used; touching it again must rebuild.
	if _, err := c.GetOn("hypo", "hypercube-4", 40); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Builds != 4 {
		t.Errorf("builds = %d, want 4 (evicted line rebuilt)", s.Builds)
	}
}

func TestSingleflightCollapsesConcurrentBuilds(t *testing.T) {
	c := New(Config{})
	var wg sync.WaitGroup
	errs := make([]error, 32)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.GetOn("ncube2", "hypercube-7", 40+i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if s := c.Stats(); s.Builds != 1 {
		t.Errorf("builds = %d, want 1 (singleflight)", s.Builds)
	}
	if s := c.Stats(); s.Inflight != 0 {
		t.Errorf("inflight gauge = %d after quiescence", s.Inflight)
	}
}

func TestSnapshotRestoreWarm(t *testing.T) {
	c := New(Config{})
	for _, d := range []int{5, 6, 7} {
		if _, err := c.GetFor(context.Background(), "ipsc860", topology.MustNew(d), 40); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := c.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	warm := New(Config{})
	restored, skipped, err := warm.Restore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if restored != 3 || skipped != 0 {
		t.Fatalf("restored %d skipped %d, want 3/0", restored, skipped)
	}
	for _, d := range []int{5, 6, 7} {
		got, err := warm.GetFor(context.Background(), "ipsc860", topology.MustNew(d), 40)
		if err != nil {
			t.Fatal(err)
		}
		want, err := c.GetFor(context.Background(), "ipsc860", topology.MustNew(d), 40)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Part.Equal(want.Part) || got.TimeMicro != want.TimeMicro {
			t.Errorf("d=%d: restored plan %v/%v, want %v/%v",
				d, got.Part, got.TimeMicro, want.Part, want.TimeMicro)
		}
	}
	if s := warm.Stats(); s.Builds != 0 || s.Misses != 0 {
		t.Errorf("restored cache ran builds=%d misses=%d, want 0/0 (warm)", s.Builds, s.Misses)
	}
}

func TestRestoreSkipsStaleParams(t *testing.T) {
	c := New(Config{})
	if _, err := c.GetOn("ipsc860", "hypercube-6", 40); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	// A registry whose iPSC constants changed must reject the line.
	changed := model.IPSC860()
	changed.Lambda++
	warm := New(Config{Machines: map[string]model.Params{"ipsc860": changed}})
	restored, skipped, err := warm.Restore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if restored != 0 || skipped != 1 {
		t.Errorf("restored %d skipped %d, want 0/1 for recalibrated machine", restored, skipped)
	}
}

func TestRestoreSkipsMismatchedSweep(t *testing.T) {
	coarse := New(Config{SweepHi: 128, SweepStep: 8})
	if _, err := coarse.GetOn("ipsc860", "hypercube-6", 40); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := coarse.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	// A cache promising step-1 answers over [0,512] must not adopt a
	// line built at step 8 over [0,128].
	fine := New(Config{})
	restored, skipped, err := fine.Restore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if restored != 0 || skipped != 1 {
		t.Errorf("restored %d skipped %d, want 0/1 for mismatched sweep", restored, skipped)
	}
}

func TestRestoreRejectsMalformedSnapshot(t *testing.T) {
	warm := New(Config{})
	if _, _, err := warm.Restore(bytes.NewReader([]byte("{"))); err == nil {
		t.Error("expected error for truncated JSON")
	}
	bad := []byte(`{"version":1,"lines":[{"machine":"ipsc860","params":` +
		mustParamsJSON(t) + `,"d":6,"sweep_lo":0,"sweep_hi":512,"sweep_step":1,` +
		`"segments":[{"partition":[9,9],"min_block":0,"max_block":10}]}]}`)
	if _, _, err := warm.Restore(bytes.NewReader(bad)); err == nil {
		t.Error("expected error for invalid stored partition")
	}
}

func mustParamsJSON(t *testing.T) string {
	t.Helper()
	var buf bytes.Buffer
	c := New(Config{})
	if _, err := c.GetOn("ipsc860", "hypercube-5", 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Lines []struct {
			Params interface{} `json:"params"`
		} `json:"lines"`
	}
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(snap.Lines[0].Params)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func TestWarm(t *testing.T) {
	c := New(Config{})
	built, err := c.WarmOn("hypo", "hypercube-6")
	if err != nil {
		t.Fatal(err)
	}
	if !built {
		t.Error("first Warm did not build")
	}
	built, err = c.WarmOn("hypo", "hypercube-6")
	if err != nil {
		t.Fatal(err)
	}
	if built {
		t.Error("second Warm rebuilt a resident line")
	}
	if _, err := c.WarmOn("hypo", "hypercube--1"); err == nil {
		t.Error("expected error for negative dimension")
	}
}

func TestZeroDimension(t *testing.T) {
	c := New(Config{})
	p, err := c.GetOn("hypo", "hypercube-0", 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Part) != 0 || p.TimeMicro != 0 || len(p.Phases) != 0 {
		t.Errorf("d=0 plan = %+v, want empty partition and zero time", p)
	}
}
