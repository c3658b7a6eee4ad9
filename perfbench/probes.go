package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"time"

	"repro/internal/exchange"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/optimize"
	"repro/internal/partition"
	"repro/internal/plancache"
	"repro/internal/service"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// probeReps is how many times each probe loop runs; a probe reports the
// median repetition, so one stall does not move it. The hypercube-14
// replays take seconds each and run fewer times.
const probeReps, replayReps = 5, 3

// probeOpenLoop is the serving probe's open-loop burst.
const probeOpenLoop = 500 * time.Millisecond

// medianTime runs f reps times, each inside a span, and returns the median
// duration of one run.
func medianTime(spans *spanLog, name string, reps int, f func() error) (time.Duration, error) {
	runtime.GC()
	var secs []float64
	for i := 0; i < reps; i++ {
		sp := spans.start("probe", name, nil)
		t0 := time.Now()
		err := f()
		secs = append(secs, time.Since(t0).Seconds())
		sp.end()
		if err != nil {
			return 0, err
		}
	}
	return time.Duration(median(secs) * float64(time.Second)), nil
}

// perCall divides a loop's duration by its call count, in unit.
func perCall(d time.Duration, calls int, unit time.Duration) float64 {
	return float64(d) / float64(unit) / float64(calls)
}

// probeLayers times single layers through their public functions,
// independent of the workload, and fills the remaining per-layer
// metrics. Every traced run reports them, so a layer change shows on
// whichever workload a later change measures.
func probeLayers(cfg config, out *outcome) error {
	m := out.metrics
	prm := model.IPSC860()
	hits := 50_000
	if cfg.short {
		hits = 500
	}

	cache := plancache.New(plancache.Config{})
	if _, err := cache.WarmOn("ipsc860", "hypercube-7"); err != nil {
		return err
	}
	d, err := medianTime(out.spans, "probe.plancache.GetOn", probeReps, func() error {
		for i := 0; i < hits; i++ {
			if _, err := cache.GetOn("ipsc860", "hypercube-7", i%(plancache.DefaultSweepHi+1)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["plancache.hit_ns"] = perCall(d, hits, time.Nanosecond)

	// The figure points drive the model, compile and accuracy probes.
	type point struct {
		cube topology.Network
		m    int
		part partition.Partition
		plan *exchange.Plan
	}
	var points []point
	errPct := 0.0
	for _, dim := range []int{5, 6, 7} {
		cube, err := topology.New(dim)
		if err != nil {
			return err
		}
		for _, D := range experiments.FigureCurves(dim) {
			for _, mb := range experiments.BlockSweep() {
				plan, err := exchange.NewPlanOn(cube, mb, D)
				if err != nil {
					return err
				}
				points = append(points, point{cube, mb, D, plan})
				if mb != 40 || len(D) != 2 {
					continue
				}
				pred, _, err := prm.MultiphaseOn(cube, mb, D)
				if err != nil {
					return err
				}
				res, err := plan.Cost(simnet.New(cube, prm))
				if err != nil {
					return err
				}
				errPct = max(errPct, math.Abs(pred-res.Makespan)/res.Makespan*100)
			}
		}
	}
	m["model.error_pct"] = errPct
	if d, err = medianTime(out.spans, "probe.model.MultiphaseOn", probeReps, func() error {
		for _, p := range points {
			if _, _, err := prm.MultiphaseOn(p.cube, p.m, p.part); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	m["model.multiphase_on_us"] = perCall(d, len(points), time.Microsecond)
	if d, err = medianTime(out.spans, "probe.exchange.Compile", probeReps, func() error {
		for _, p := range points {
			p.plan.Compile()
		}
		return nil
	}); err != nil {
		return err
	}
	m["exchange.compile_us"] = perCall(d, len(points), time.Microsecond)

	for name, specs := range map[string][]string{
		"topology.route_ns.hypercube": {"hypercube-6", "hypercube-7", "hypercube-8"},
		"topology.route_ns.grid":      {"torus-4x4x4", "mesh-8x8"},
		"topology.route_ns.degraded":  {"hypercube-7!dl=0-1", "torus-4x4x4!sl=0-1:2"},
	} {
		var nets []topology.Network
		routes := 0
		for _, spec := range specs {
			net, err := topology.ParseSpec(spec)
			if err != nil {
				return err
			}
			nets = append(nets, net)
			routes += net.Nodes() * net.Nodes()
		}
		buf := make([]int, 0, 64)
		d, err := medianTime(out.spans, "probe."+name, probeReps, func() error {
			for _, net := range nets {
				for a := 0; a < net.Nodes(); a++ {
					for b := 0; b < net.Nodes(); b++ {
						buf = net.AppendRoute(buf, a, b)
					}
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		m[name] = perCall(d, routes, time.Nanosecond)
	}

	speedup, err := shardSpeedup(cfg.short, out)
	if err != nil {
		return err
	}
	m["simnet.shard_speedup"] = speedup
	if err := probeServing(cfg, out); err != nil {
		return err
	}
	return probePaper(cfg, out)
}

// setMissing stores v under name unless the workload measured it itself.
func setMissing(m map[string]float64, name string, v float64) {
	if _, ok := m[name]; !ok {
		m[name] = v
	}
}

// probeServing measures, through a small in-process pland, the serving
// layers a workload did not exercise: an open-loop burst of plans and
// batches over warm analytic lines, then cold simulated-backend builds
// and /v1/cost replays. It fills only metrics still missing; its warm
// plan answers are checked against the analytic reference.
func probeServing(cfg config, out *outcome) error {
	topos := []string{"hypercube-5", "hypercube-6", "hypercube-7"}
	cache := plancache.New(plancache.Config{})
	t0 := time.Now()
	for _, mach := range warmMachines {
		for _, t := range topos {
			if _, err := cache.WarmOn(mach, t); err != nil {
				return err
			}
		}
	}
	warmS := time.Since(t0).Seconds()
	s, err := startServer(cache, service.Config{})
	if err != nil {
		return err
	}
	defer s.close()
	reqs := warmRequests(cfg.seed, 256, topos)
	var keys []planKey
	for _, r := range reqs {
		keys = append(keys, r.keys...)
	}
	refs, err := bestRefs(keys, func(m string) (*optimize.Optimizer, error) {
		_, prm, err := cache.Resolve(m)
		return optimize.New(prm), err
	})
	if err != nil {
		return err
	}
	before := cache.Stats()
	errs := &errLog{}
	open := openLoop(clients(), warmRate, probeOpenLoop, func(i int) error {
		req := reqs[i%len(reqs)]
		name := "probe/v1/plan"
		if req.path == "" {
			name = "probe/v1/batch"
		}
		sp := out.spans.start("probe", name, nil)
		err := sendWarm(s, req, "", refs)
		sp.end()
		return errs.add(err)
	})
	warmView, err := s.metrics()
	if err != nil {
		return err
	}

	if err := s.swap(coldCache(0)); err != nil {
		return err
	}
	for _, t := range []string{"hypercube-5", "hypercube-6", "mesh-4x4"} {
		var p service.PlanResponse
		errs.add(s.do(http.MethodGet, planPath(planKey{"ipsc860", t, 16}), nil, "", &p))
	}
	body, _ := json.Marshal(service.CostRequest{Machine: "ipsc860", Topology: "hypercube-8", M: 32, Partition: []int{4, 4}}) // strings and ints always encode
	for i := 0; i < 5; i++ {
		var c service.CostResponse
		errs.add(s.do(http.MethodPost, "/v1/cost", body, "", &c))
	}
	for _, e := range errs.list() {
		out.checks = append(out.checks, "serving probe: "+e)
	}

	m := out.metrics
	server := serverTimes(s.scfg.Tracer)
	plan := warmView.Endpoints["/v1/plan"]
	setMissing(m, "service.plan_p50_us", plan.P50US)
	setMissing(m, "service.plan_p99_us", plan.P99US)
	setMissing(m, "service.batch_p99_us", warmView.Endpoints["/v1/batch"].P99US)
	setMissing(m, "service.http_overhead_us", median(out.spans.durations("probe/v1/plan"))-plan.P50US)
	setMissing(m, "service.cost_p50_ms", quantile(server["/v1/cost"], 0.5)/1e3)
	hits := float64(warmView.Cache.Hits - before.Hits)
	misses := float64(warmView.Cache.Misses - before.Misses)
	setMissing(m, "plancache.hit_ratio", ratio(hits, hits+misses))
	setMissing(m, "plancache.warm_s", warmS)
	setMissing(m, "plancache.build_p50_ms", quantile(server["build"], 0.5)/1e3)
	setMissing(m, "optimize.stage_p50_ms", quantile(server["optimizer"], 0.5)/1e3)
	setMissing(m, "simnet.replay_p50_ms", quantile(server["replay"], 0.5)/1e3)
	setMissing(m, "bench.gen_lag_p99_ms", quantile(open.lag, 0.99))
	setMissing(m, "bench.open_p99_ms", open.sliceQuantile(0.99, nil))
	return nil
}

// probePaper runs one traced round of the paper-pipeline jobs when the
// workload did not, for the paper and replay-host metrics.
func probePaper(cfg config, out *outcome) error {
	if _, ok := out.metrics["paper.figures_s"]; ok {
		return nil
	}
	dims := []int{5, 6, 7}
	if cfg.short {
		dims = []int{5}
	}
	j, err := newPipelineJobs(cfg.seed, dims)
	if err != nil {
		return err
	}
	r, err := j.round(0, out.spans, cfg.short)
	if err != nil {
		return err
	}
	out.checks = append(out.checks, r.wrong...)
	m := out.metrics
	m["paper.figures_s"] = r.figuresS
	m["paper.best_s"] = r.bestS
	m["paper.table_s"] = r.tableS
	m["simnet.replay_busy_s"] = r.replayS
	m["simnet.msgs_per_s"] = ratio(float64(r.msgs), r.replayS)
	return nil
}

// shardSpeedup replays phase 0 of {7,7} on hypercube-14 (m=4) serially
// and sharded across nproc engines, checks the results are identical, and
// returns serial over sharded host time.
func shardSpeedup(short bool, out *outcome) (float64, error) {
	d, D := 14, partition.Partition{7, 7}
	if short {
		d, D = 10, partition.Partition{5, 5}
	}
	cube, err := topology.New(d)
	if err != nil {
		return 0, err
	}
	plan, err := exchange.NewPlanOn(cube, 4, D)
	if err != nil {
		return 0, err
	}
	frag := plan.CompilePhase(0)
	results := map[int]simnet.Result{}
	replay := func(shards int) (time.Duration, error) {
		return medianTime(out.spans, fmt.Sprintf("probe.simnet.RunSource/shards=%d", shards), replayReps, func() error {
			net := simnet.New(cube, model.IPSC860())
			net.SetReplayShards(shards)
			res, err := net.RunSource(frag)
			results[shards] = res
			return err
		})
	}
	ts, err := replay(1)
	if err != nil {
		return 0, err
	}
	tp, err := replay(runtime.NumCPU())
	if err != nil {
		return 0, err
	}
	serial, sharded := results[1], results[runtime.NumCPU()]
	if serial.Makespan != sharded.Makespan || serial.Messages != sharded.Messages {
		out.checks = append(out.checks, fmt.Sprintf("sharded replay %.3f µs/%d msgs differs from serial %.3f µs/%d msgs",
			sharded.Makespan, sharded.Messages, serial.Makespan, serial.Messages))
	}
	return ts.Seconds() / tp.Seconds(), nil
}
