package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"time"

	"repro/internal/optimize"
	"repro/internal/plancache"
	"repro/internal/service"
	"repro/internal/topology"
)

// The serve-warm lines: 3 machines × 7 topologies, every one built before
// the window opens.
var (
	warmMachines = []string{"ipsc860", "ncube2", "hypo"}
	warmTopos    = []string{"hypercube-5", "hypercube-6", "hypercube-7", "hypercube-8", "hypercube-10", "torus-4x4x4", "mesh-8x8"}
)

const (
	warmPool     = 4096   // distinct pre-built requests, cycled
	warmBatchLen = 8      // queries per /v1/batch
	warmBatchPct = 10     // share of requests that are batches
	warmMaxM     = 512    // m is drawn from [0, warmMaxM]
	warmRate     = 2000.0 // open-loop offered rate, requests/s
)

// planKey is one plan query; planRef its reference answer.
type planKey struct {
	machine, topo string
	m             int
}

type planRef struct {
	part []int
	us   float64
}

// warmReq is one pre-built serve-warm request.
type warmReq struct {
	path string // GET /v1/plan path, or "" for a batch
	body []byte // POST /v1/batch body
	keys []planKey
}

func planPath(k planKey) string {
	return "/v1/plan?machine=" + k.machine + "&topology=" + url.QueryEscape(k.topo) + "&m=" + strconv.Itoa(k.m)
}

// warmRequests builds the seeded request mix: ~90% single plans, ~10%
// batches of warmBatchLen, uniform over the lines, m uniform in [0, 512].
func warmRequests(seed int64, n int, topos []string) []warmReq {
	rng := rand.New(rand.NewSource(seed))
	key := func() planKey {
		return planKey{warmMachines[rng.Intn(len(warmMachines))], topos[rng.Intn(len(topos))], rng.Intn(warmMaxM + 1)}
	}
	reqs := make([]warmReq, n)
	for i := range reqs {
		if rng.Intn(100) >= warmBatchPct {
			k := key()
			reqs[i] = warmReq{path: planPath(k), keys: []planKey{k}}
			continue
		}
		var br service.BatchRequest
		for j := 0; j < warmBatchLen; j++ {
			k := key()
			reqs[i].keys = append(reqs[i].keys, k)
			br.Queries = append(br.Queries, service.BatchQuery{Machine: k.machine, Topology: k.topo, M: k.m})
		}
		reqs[i].body, _ = json.Marshal(br) // a struct of strings and ints always encodes
	}
	return reqs
}

// bestRefs answers every key, untimed, with one fresh optimizer per
// machine built by newOpt.
func bestRefs(keys []planKey, newOpt func(string) (*optimize.Optimizer, error)) (map[planKey]planRef, error) {
	opts := map[string]*optimize.Optimizer{}
	nets := map[string]topology.Network{}
	refs := map[planKey]planRef{}
	for _, k := range keys {
		if _, ok := refs[k]; ok {
			continue
		}
		o, ok := opts[k.machine]
		if !ok {
			var err error
			if o, err = newOpt(k.machine); err != nil {
				return nil, err
			}
			opts[k.machine] = o
		}
		n, ok := nets[k.topo]
		if !ok {
			var err error
			if n, err = topology.ParseSpec(k.topo); err != nil {
				return nil, err
			}
			nets[k.topo] = n
		}
		c, err := o.BestOn(n, k.m)
		if err != nil {
			return nil, fmt.Errorf("reference %v: %w", k, err)
		}
		refs[k] = planRef{part: c.Part, us: c.TimeMicro}
	}
	return refs, nil
}

// checkPlan compares a served plan with its reference.
func checkPlan(p *service.PlanResponse, k planKey, ref planRef) error {
	if p.Machine != k.machine || p.M != k.m || !slices.Equal(p.Partition, ref.part) || p.PredictedUS != ref.us {
		return fmt.Errorf("wrong plan for %v: got %s %s m=%d %v %.6f µs, want %v %.6f µs",
			k, p.Machine, p.Topology, p.M, p.Partition, p.PredictedUS, ref.part, ref.us)
	}
	return nil
}

// sendWarm issues one serve-warm request and checks every answer in it.
func sendWarm(s *server, r warmReq, reqID string, refs map[planKey]planRef) error {
	if r.path != "" {
		var p service.PlanResponse
		if err := s.do(http.MethodGet, r.path, nil, reqID, &p); err != nil {
			return err
		}
		return checkPlan(&p, r.keys[0], refs[r.keys[0]])
	}
	var br service.BatchResponse
	if err := s.do(http.MethodPost, "/v1/batch", r.body, reqID, &br); err != nil {
		return err
	}
	if len(br.Results) != len(r.keys) {
		return fmt.Errorf("batch: %d results for %d queries", len(br.Results), len(r.keys))
	}
	for i, it := range br.Results {
		if it.Plan == nil {
			return fmt.Errorf("batch query %v: %s", r.keys[i], it.Error)
		}
		if err := checkPlan(it.Plan, r.keys[i], refs[r.keys[i]]); err != nil {
			return err
		}
	}
	return nil
}

// warmRun is one measured serve-warm window.
type warmRun struct {
	open, closed loadStats
	ws           windowStats
	// startView and endView are pland's /metrics around the window.
	startView, endView service.MetricsResponse
}

// measureWarm runs the open-loop then the closed-loop phase against s.
func measureWarm(cfg config, s *server, reqs []warmReq, refs map[planKey]planRef, spans *spanLog, errs *errLog) (*warmRun, error) {
	var r warmRun
	var err error
	if r.startView, err = s.metrics(); err != nil {
		return nil, err
	}
	// A quarter of the window runs open loop, the rest closed loop.
	openDur := time.Duration(cfg.seconds / 4 * float64(time.Second))
	closedDur := time.Duration(cfg.seconds * 3 / 4 * float64(time.Second))
	op := func(phase string, i int) error {
		req := reqs[i%len(reqs)]
		if spans == nil {
			return errs.add(sendWarm(s, req, "", refs))
		}
		id := phase + strconv.Itoa(i)
		name := phase + "/v1/plan"
		if req.path == "" {
			name = phase + "/v1/batch"
		}
		sp := spans.start(id, name, nil)
		err := sendWarm(s, req, id, refs)
		sp.end()
		return errs.add(err)
	}
	w := startWindow()
	r.open = openLoop(clients(), warmRate, openDur, func(i int) error { return op("open", i) })
	r.closed = closedLoop(clients(), math.MaxInt, time.Now().Add(closedDur), func(i int) error { return op("closed", i) })
	r.ws = w.end()
	if r.endView, err = s.metrics(); err != nil {
		return nil, err
	}
	return &r, nil
}

func runServeWarm(cfg config) (*outcome, error) {
	topos, pool, setups := warmTopos, warmPool, 3
	if cfg.short {
		topos, pool, setups = warmTopos[:3], 256, 2
	}
	var warmSecs []float64
	setup := func() (*server, error) {
		cache := plancache.New(plancache.Config{})
		t0 := time.Now()
		for _, m := range warmMachines {
			for _, t := range topos {
				if _, err := cache.WarmOn(m, t); err != nil {
					return nil, fmt.Errorf("warming %s/%s: %w", m, t, err)
				}
			}
		}
		warmSecs = append(warmSecs, time.Since(t0).Seconds())
		return startServer(cache, service.Config{})
	}
	s, setupS, err := timeSetup(setups, setup, (*server).close)
	defer s.close()
	if err != nil {
		return nil, err
	}
	reqs := warmRequests(cfg.seed, pool, topos)
	var keys []planKey
	for _, r := range reqs {
		keys = append(keys, r.keys...)
	}
	refs, err := bestRefs(keys, func(m string) (*optimize.Optimizer, error) {
		_, prm, err := s.cache.Resolve(m)
		return optimize.New(prm), err
	})
	if err != nil {
		return nil, err
	}

	errs := &errLog{}
	out := &outcome{metrics: map[string]float64{}, report: map[string]any{}}
	untraced, err := measureWarm(cfg, s, reqs, refs, nil, errs)
	if err != nil {
		return nil, err
	}
	runs := []*warmRun{untraced}
	if cfg.trace {
		// The traced window gets a fresh server, so pland's histograms
		// cover exactly the traced requests.
		if s, err = setup(); err != nil {
			return nil, err
		}
		defer s.close()
		out.spans = newSpanLog()
		traced, err := measureWarm(cfg, s, reqs, refs, out.spans, errs)
		if err != nil {
			return nil, err
		}
		runs = append(runs, traced)
	}
	for _, r := range runs {
		out.attempted += r.open.done + r.closed.done
		out.failed += r.open.failed + r.closed.failed
		// Every plan must come from a resident line: a miss means the
		// workload is not the one it is named for.
		if miss := r.endView.Cache.Misses - r.startView.Cache.Misses; miss != 0 {
			out.checks = append(out.checks, fmt.Sprintf("serve-warm: %d cache misses in the window", miss))
		}
	}

	m := out.metrics
	m["setup_s"] = setupS
	m["throughput_ops_s"] = untraced.closed.sliceRate()
	memoryMetrics(m, untraced.ws, untraced.open.done+untraced.closed.done)
	// Latency is that of single /v1/plan requests; batches, a different
	// op eight times the work, would put p90 on the boundary between them.
	single := func(i int) bool { return reqs[i%len(reqs)].path != "" }
	m["latency_p50_ms"] = untraced.closed.sliceQuantile(0.5, single)
	m["latency_p90_ms"] = untraced.closed.sliceQuantile(0.9, single)

	out.report["errors"] = errs.list()
	out.report["open_loop"] = map[string]any{
		"offered_ops_s": untraced.open.offered, "achieved_ops_s": untraced.open.achieved(),
		"samples": len(untraced.open.lat), "p50_ms": untraced.open.sliceQuantile(0.5, nil),
		"p99_ms": untraced.open.sliceQuantile(0.99, nil), "gen_lag_p99_ms": quantile(untraced.open.lag, 0.99),
	}
	out.report["closed_loop"] = map[string]any{"clients": clients(), "samples": untraced.closed.done}

	if cfg.trace {
		warmLayers(out, untraced, runs[1], warmSecs, s)
		return out, probeLayers(cfg, out)
	}
	return out, nil
}

// warmLayers fills the serving and plancache metrics of a traced
// serve-warm run.
func warmLayers(out *outcome, untraced, run *warmRun, warmSecs []float64, s *server) {
	m := out.metrics
	// The endpoint histograms cover the whole window, nine tenths of it
	// from the closed loop the end-to-end latencies are taken from.
	plan, batch := run.endView.Endpoints["/v1/plan"], run.endView.Endpoints["/v1/batch"]
	m["service.plan_p50_us"] = plan.P50US
	m["service.plan_p99_us"] = plan.P99US
	m["service.batch_p99_us"] = batch.P99US
	m["service.http_overhead_us"] = median(out.spans.durations("closed/v1/plan")) - plan.P50US
	hits := float64(run.endView.Cache.Hits - run.startView.Cache.Hits)
	misses := float64(run.endView.Cache.Misses - run.startView.Cache.Misses)
	m["plancache.hit_ratio"] = ratio(hits, hits+misses)
	m["plancache.warm_s"] = median(warmSecs)
	m["bench.gen_lag_p99_ms"] = quantile(run.open.lag, 0.99)
	m["bench.open_p99_ms"] = run.open.sliceQuantile(0.99, nil)
	m["bench.trace_overhead_pct"] = (untraced.closed.achieved()/run.closed.achieved() - 1) * 100
	// The analytic optimizer should not run at all in the window.
	st := run.endView.Optimizer
	st.Add(negate(run.startView.Optimizer))
	out.report["optimizer_window"] = st
	optimizerLayers(m, st)
	saveServerView(out.spans, s, run.endView)
}

// negate flips every counter, so Add(negate(a)) subtracts a.
func negate(a optimize.Stats) optimize.Stats {
	return optimize.Stats{
		Evaluations: -a.Evaluations, Evaluated: -a.Evaluated, Pruned: -a.Pruned,
		MemoHits: -a.MemoHits, MemoMisses: -a.MemoMisses,
		ReplaysSharded: -a.ReplaysSharded, ReplaysSerial: -a.ReplaysSerial,
	}
}
