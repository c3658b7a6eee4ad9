package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
// An empty slice has quantile 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// median returns the middle value of xs (sorted in place).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is num/den, or 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// window measures one timed interval: wall time, heap bytes allocated,
// and the peak of live heap objects, sampled every few milliseconds.
type window struct {
	start  time.Time
	alloc0 uint64
	peak   atomic.Uint64
	stop   chan struct{}
	done   chan struct{}
}

// windowStats is a finished window.
type windowStats struct {
	elapsed    time.Duration
	allocBytes uint64
	peakBytes  uint64
}

func readHeap() (allocs, objects uint64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/memory/classes/heap/objects:bytes"},
	}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// startWindow collects garbage, so every window starts from the same heap
// state, and begins sampling.
func startWindow() *window {
	runtime.GC()
	w := &window{stop: make(chan struct{}), done: make(chan struct{})}
	var objs uint64
	w.alloc0, objs = readHeap()
	w.peak.Store(objs)
	go func() {
		defer close(w.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-tick.C:
				_, o := readHeap()
				if o > w.peak.Load() {
					w.peak.Store(o)
				}
			}
		}
	}()
	w.start = time.Now()
	return w
}

// end stops the sampler and waits for it to exit.
func (w *window) end() windowStats {
	elapsed := time.Since(w.start)
	close(w.stop)
	<-w.done
	allocs, objs := readHeap()
	peak := max(w.peak.Load(), objs)
	return windowStats{elapsed: elapsed, allocBytes: allocs - w.alloc0, peakBytes: peak}
}

// memoryMetrics fills the memory metrics every workload shares from its
// window and op count.
func memoryMetrics(m map[string]float64, ws windowStats, ops int) {
	m["alloc_kb_per_op"] = float64(ws.allocBytes) / 1024 / float64(max(ops, 1))
	m["peak_heap_mb"] = float64(ws.peakBytes) / (1 << 20)
}

// timeSetup runs setup n times and returns the median duration in
// seconds; cleanup releases every instance but the last, which it returns.
func timeSetup[T any](n int, setup func() (T, error), cleanup func(T)) (T, float64, error) {
	var last T
	var secs []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			cleanup(last)
		}
		runtime.GC()
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		last = v
	}
	return last, median(secs), nil
}

// maxSpans bounds the in-memory span log of one traced run.
const maxSpans = 200_000

// spanRec is one benchmark-side span: a call into a layer, timed from the
// benchmark. Spans of one request or job share Trace; Parent is the span
// that caused it (0 for a root).
type spanRec struct {
	ID      int64   `json:"id"`
	Parent  int64   `json:"parent,omitempty"`
	Trace   string  `json:"trace"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
}

// spanLog keeps a traced run's spans in memory until the run ends. A nil
// *spanLog records nothing, so untraced runs pay one nil check per call.
type spanLog struct {
	t0      time.Time
	nextID  atomic.Int64
	mu      sync.Mutex
	spans   []spanRec
	dropped int
	// extra is written beside the spans: pland's stage histograms and
	// server-side request traces.
	extra map[string]any
}

func newSpanLog() *spanLog {
	return &spanLog{t0: time.Now(), extra: map[string]any{}}
}

// span is an open span; end records it.
type span struct {
	log   *spanLog
	id    int64
	rec   spanRec
	start time.Time
}

// start opens a span; parent may be nil for a root.
func (l *spanLog) start(trace, name string, parent *span) *span {
	if l == nil {
		return nil
	}
	s := &span{log: l, id: l.nextID.Add(1), start: time.Now()}
	s.rec = spanRec{ID: s.id, Trace: trace, Name: name}
	if parent != nil {
		s.rec.Parent = parent.id
	}
	return s
}

func (s *span) end() {
	if s == nil {
		return
	}
	now := time.Now()
	s.rec.StartUS = float64(s.start.Sub(s.log.t0).Nanoseconds()) / 1e3
	s.rec.DurUS = float64(now.Sub(s.start).Nanoseconds()) / 1e3
	s.log.mu.Lock()
	if len(s.log.spans) < maxSpans {
		s.log.spans = append(s.log.spans, s.rec)
	} else {
		s.log.dropped++
	}
	s.log.mu.Unlock()
}

// durations returns the durations (µs) of the recorded spans named name.
func (l *spanLog) durations(name string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, s.DurUS)
		}
	}
	return out
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	Count   int     `json:"count"`
	TotalUS float64 `json:"total_us"`
	SelfUS  float64 `json:"self_us"`
}

// selfTimes sums each span name's total and self time. A span's self time
// is its duration minus the part of its interval its children cover.
func selfTimes(spans []spanRec) map[string]layerTime {
	children := map[int64][]spanRec{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]layerTime{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartUS < kids[j].StartUS })
		covered, reach := 0.0, s.StartUS
		for _, k := range kids {
			lo := max(k.StartUS, reach)
			hi := min(k.StartUS+k.DurUS, s.StartUS+s.DurUS)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		lt := out[s.Name]
		lt.Count++
		lt.TotalUS += s.DurUS
		lt.SelfUS += s.DurUS - covered
		out[s.Name] = lt
	}
	return out
}

// write saves the spans, their per-name self times and the extras as one
// JSON document.
func (l *spanLog) write(path string, cfg config) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	doc := map[string]any{
		"workload": cfg.workload,
		"seed":     cfg.seed,
		"machine":  machineInfo(),
		"self":     selfTimes(l.spans),
		"spans":    l.spans,
		"dropped":  l.dropped,
	}
	for k, v := range l.extra {
		doc[k] = v
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("span file: %w", err)
	}
	return f.Close()
}
