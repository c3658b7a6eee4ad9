package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/exchange"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/optimize"
	"repro/internal/plancache"
	"repro/internal/service"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// The serve-cold lines: every machine × 7 topologies over all three
// families, two of them degraded overlays whose detours defeat sharding.
var coldTopos = []string{
	"hypercube-6", "hypercube-7", "hypercube-8", "torus-4x4x4", "mesh-8x8",
	"hypercube-7!dl=0-1", "torus-4x4x4!sl=0-1:2",
}

// coldCosts are the explicit partitions /v1/cost replays, at d = 8–10.
var coldCosts = []struct {
	topo string
	part []int
}{
	{"hypercube-8", []int{4, 4}}, {"hypercube-8", []int{3, 3, 2}},
	{"hypercube-9", []int{5, 4}}, {"hypercube-9", []int{3, 3, 3}},
	{"hypercube-10", []int{5, 5}}, {"hypercube-10", []int{4, 3, 3}},
}

const (
	coldSweepHi   = 256
	coldSweepStep = 16
	// coldCostPerPass makes ~20% of a pass /v1/cost: 9 beside 35 plans.
	coldCostPerPass = 9
	// coldTraceCapacity retains every request trace of a window.
	coldTraceCapacity = 8192
)

// coldItem is one serve-cold request: a plan query or an explicit cost.
type coldItem struct {
	plan *planKey
	cost *service.CostRequest
}

// coldPasses generates the seeded passes. Each pass asks for every line
// exactly once, in a seeded order at a seeded m on the sweep grid, with
// the cost requests at seeded positions; the cache is emptied between
// passes, so every plan misses.
type coldPasses struct {
	rng      *rand.Rand
	machines []string
	topos    []string
	costs    int
}

func (g *coldPasses) next() []coldItem {
	var items []coldItem
	for _, mach := range g.machines {
		for _, t := range g.topos {
			items = append(items, coldItem{plan: &planKey{mach, t, coldSweepStep * g.rng.Intn(coldSweepHi/coldSweepStep+1)}})
		}
	}
	g.rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	for i := 0; i < g.costs; i++ {
		c := coldCosts[g.rng.Intn(len(coldCosts))]
		req := &service.CostRequest{
			Machine:   g.machines[g.rng.Intn(len(g.machines))],
			Topology:  c.topo,
			M:         8 * (1 + g.rng.Intn(32)),
			Partition: c.part,
		}
		items = slices.Insert(items, g.rng.Intn(len(items)+1), coldItem{cost: req})
	}
	return items
}

// coldAnswer is one answered request, checked after the window.
type coldAnswer struct {
	item coldItem
	plan *service.PlanResponse
	cost *service.CostResponse
}

// coldRun is one measured serve-cold window.
type coldRun struct {
	load    loadStats
	ws      windowStats
	endView service.MetricsResponse // pland's /metrics after the window
	answers []coldAnswer
	// perPass holds each pass's own load figures and items.
	perPass   []loadStats
	passItems [][]coldItem
	// hits, misses and parallel sum the counters of every pass's cache.
	hits, misses int64
	parallel     optimize.Stats
}

func coldCache(workers int) *plancache.Cache {
	return plancache.New(plancache.Config{
		NewOptimizer:  optimize.NewSimulated,
		SweepHi:       coldSweepHi,
		SweepStep:     coldSweepStep,
		OptWorkers:    workers,
		ReplayWorkers: runtime.NumCPU(),
	})
}

func measureCold(cfg config, s *server, gen *coldPasses, spans *spanLog, errs *errLog) (*coldRun, error) {
	var r coldRun
	var mu sync.Mutex
	send := func(it coldItem, reqID string) error {
		a := coldAnswer{item: it}
		if it.plan != nil {
			a.plan = &service.PlanResponse{}
			if err := s.do(http.MethodGet, planPath(*it.plan), nil, reqID, a.plan); err != nil {
				return err
			}
		} else {
			a.cost = &service.CostResponse{}
			body, _ := json.Marshal(it.cost) // strings and ints always encode
			if err := s.do(http.MethodPost, "/v1/cost", body, reqID, a.cost); err != nil {
				return err
			}
		}
		mu.Lock()
		r.answers = append(r.answers, a)
		mu.Unlock()
		return nil
	}
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	w := startWindow()
	for len(r.perPass) == 0 || time.Now().Before(deadline) {
		// A fresh cache per pass: its optimizers start cold too, so every
		// plan pays the whole enumeration, not just the line build.
		cache := coldCache(0)
		if err := s.swap(cache); err != nil {
			w.end()
			return nil, err
		}
		items := gen.next()
		pass := len(r.perPass)
		// Whole passes only: every window asks each line equally often.
		st := closedLoop(clients(), len(items), time.Now().Add(time.Hour), func(i int) error {
			it := items[i]
			if spans == nil {
				return errs.add(send(it, ""))
			}
			id := "cold" + strconv.Itoa(pass) + "." + strconv.Itoa(i)
			name := "cold/v1/plan"
			if it.cost != nil {
				name = "cold/v1/cost"
			}
			sp := spans.start(id, name, nil)
			err := send(it, id)
			sp.end()
			return errs.add(err)
		})
		r.load.merge(st)
		r.perPass = append(r.perPass, st)
		r.passItems = append(r.passItems, items)
		cs := cache.Stats()
		r.hits += cs.Hits
		r.misses += cs.Misses
		r.parallel.Add(cache.OptimizerStats())
	}
	r.ws = w.end()
	r.load.elapsed = r.ws.elapsed
	var err error
	if r.endView, err = s.metrics(); err != nil {
		return nil, err
	}
	return &r, nil
}

// lineLatencies returns, for every line, the median latency of its /v1/plan
// requests over the window's passes. Each pass pairs a line with different
// concurrent builds, so the per-line median evens out who it ran beside;
// /v1/cost requests, a different op, are left out.
func (r *coldRun) lineLatencies() []float64 {
	byLine := map[[2]string][]float64{}
	for p, st := range r.perPass {
		for i, op := range st.op {
			if it := r.passItems[p][op]; it.plan != nil {
				key := [2]string{it.plan.machine, it.plan.topo}
				byLine[key] = append(byLine[key], st.lat[i])
			}
		}
	}
	var out []float64
	for _, lat := range byLine {
		out = append(out, median(lat))
	}
	return out
}

// coldRefs computes, untimed, the reference answers of every plan asked:
// a fresh simulated optimizer's BestOn, priced by MultiphaseOn as the
// cache prices its answers.
func coldRefs(machines map[string]model.Params, keys []planKey) (map[planKey]planRef, error) {
	refs, err := bestRefs(keys, func(m string) (*optimize.Optimizer, error) {
		prm, ok := machines[m]
		if !ok {
			return nil, fmt.Errorf("unknown machine %q", m)
		}
		o := optimize.NewSimulated(prm)
		o.SetReplayShards(runtime.NumCPU())
		return o, nil
	})
	if err != nil {
		return nil, err
	}
	for k, ref := range refs {
		net, err := topology.ParseSpec(k.topo)
		if err != nil {
			return nil, err
		}
		us, _, err := machines[k.machine].MultiphaseOn(net, k.m, ref.part)
		if err != nil {
			return nil, err
		}
		refs[k] = planRef{part: ref.part, us: us}
	}
	return refs, nil
}

// checkCost replays an explicit partition serially and compares both
// cost views with the served ones.
func checkCost(machines map[string]model.Params, req *service.CostRequest, got *service.CostResponse) error {
	prm := machines[req.Machine]
	net, err := topology.ParseSpec(req.Topology)
	if err != nil {
		return err
	}
	plan, err := exchange.NewPlanOn(net, req.M, req.Partition)
	if err != nil {
		return err
	}
	res, err := plan.Cost(simnet.New(net, prm))
	if err != nil {
		return err
	}
	pred, _, err := prm.MultiphaseOn(net, req.M, req.Partition)
	if err != nil {
		return err
	}
	if got.SimulatedUS != res.Makespan || got.PredictedUS != pred || !slices.Equal(got.Partition, req.Partition) {
		return fmt.Errorf("wrong cost for %s %s m=%d %v: got %.6f/%.6f µs, want %.6f/%.6f µs",
			req.Machine, req.Topology, req.M, req.Partition, got.PredictedUS, got.SimulatedUS, pred, res.Makespan)
	}
	return nil
}

// checkCold checks every answer of a window and returns how many were
// wrong.
func checkCold(machines map[string]model.Params, r *coldRun, errs *errLog) (int, error) {
	var keys []planKey
	for _, a := range r.answers {
		if a.plan != nil {
			keys = append(keys, *a.item.plan)
		}
	}
	refs, err := coldRefs(machines, keys)
	if err != nil {
		return 0, err
	}
	wrong := 0
	for _, a := range r.answers {
		var err error
		if a.plan != nil {
			err = checkPlan(a.plan, *a.item.plan, refs[*a.item.plan])
		} else {
			err = checkCost(machines, a.item.cost, a.cost)
		}
		if errs.add(err) != nil {
			wrong++
		}
	}
	return wrong, nil
}

func runServeCold(cfg config) (*outcome, error) {
	machines, topos, costs, setups := model.MachineNames(), coldTopos, coldCostPerPass, 15
	if cfg.short {
		machines, topos, costs, setups = machines[:2], []string{"hypercube-6", "mesh-8x8", "hypercube-7!dl=0-1"}, 2, 2
	}
	setup := func() (*server, error) {
		return startServer(coldCache(0), service.Config{
			ReplayWorkers: runtime.NumCPU(),
			// Room for every traced request, so the server-side latency
			// quantiles cover the whole window across cache swaps.
			Tracer: obs.NewTracer(coldTraceCapacity),
		})
	}
	s, setupS, err := timeSetup(setups, setup, (*server).close)
	defer s.close()
	if err != nil {
		return nil, err
	}
	registry := s.cache.Machines()
	newGen := func() *coldPasses {
		return &coldPasses{rng: rand.New(rand.NewSource(cfg.seed)), machines: machines, topos: topos, costs: costs}
	}

	errs := &errLog{}
	out := &outcome{metrics: map[string]float64{}, report: map[string]any{}}
	untraced, err := measureCold(cfg, s, newGen(), nil, errs)
	if err != nil {
		return nil, err
	}
	runs := []*coldRun{untraced}
	if cfg.trace {
		if s, err = setup(); err != nil {
			return nil, err
		}
		defer s.close()
		out.spans = newSpanLog()
		traced, err := measureCold(cfg, s, newGen(), out.spans, errs)
		if err != nil {
			return nil, err
		}
		runs = append(runs, traced)
	}
	for _, r := range runs {
		wrong, err := checkCold(registry, r, errs)
		if err != nil {
			return nil, err
		}
		out.attempted += r.load.done
		out.failed += r.load.failed + wrong
		// Every plan must miss: a hit means the workload is not cold.
		if r.hits != 0 {
			out.checks = append(out.checks, fmt.Sprintf("serve-cold: %d cache hits in the window", r.hits))
		}
	}

	m := out.metrics
	m["setup_s"] = setupS
	// Medians over passes: each pass is the same work in a new order.
	var rates, passSecs []float64
	for _, p := range untraced.perPass {
		rates = append(rates, p.achieved())
		passSecs = append(passSecs, p.elapsed.Seconds())
	}
	m["throughput_ops_s"] = median(rates)
	lines := untraced.lineLatencies()
	memoryMetrics(m, untraced.ws, untraced.load.done)
	m["latency_p50_ms"] = quantile(lines, 0.5)
	m["latency_p90_ms"] = quantile(lines, 0.9)
	out.report["errors"] = errs.list()
	out.report["closed_loop"] = map[string]any{"clients": clients(), "samples": untraced.load.done, "pass_s": passSecs}

	if cfg.trace {
		if err := coldLayers(out, untraced, runs[1], s, errs); err != nil {
			return nil, err
		}
		return out, probeLayers(cfg, out)
	}
	return out, nil
}

// coldLayers fills the serving, cache and optimizer metrics of a traced
// serve-cold run. The optimizer counts come from a 1-worker replay of the
// first pass's plan queries through a fresh cache, where they repeat
// exactly; the 2-worker counts of the window are reported beside them.
func coldLayers(out *outcome, untraced, run *coldRun, s *server, errs *errLog) error {
	m := out.metrics
	ev := run.endView
	// Each pass served from its own service instance, so the latencies
	// come from the shared tracer's request traces.
	server := serverTimes(s.scfg.Tracer)
	m["service.plan_p50_us"] = quantile(server["/v1/plan"], 0.5)
	m["service.plan_p99_us"] = quantile(server["/v1/plan"], 0.99)
	m["service.http_overhead_us"] = median(out.spans.durations("cold/v1/plan")) - m["service.plan_p50_us"]
	m["service.cost_p50_ms"] = quantile(server["/v1/cost"], 0.5) / 1e3
	m["plancache.hit_ratio"] = ratio(float64(run.hits), float64(run.hits+run.misses))
	m["plancache.build_p50_ms"] = quantile(server["build"], 0.5) / 1e3
	m["optimize.stage_p50_ms"] = quantile(server["optimizer"], 0.5) / 1e3
	m["simnet.replay_p50_ms"] = quantile(server["replay"], 0.5) / 1e3
	m["bench.trace_overhead_pct"] = (untraced.load.achieved()/run.load.achieved() - 1) * 100
	saveServerView(out.spans, s, ev)
	out.report["optimizer_parallel"] = run.parallel

	serial := coldCache(1)
	sp := out.spans.start("serial-replay", "cold/serial_replay", nil)
	for _, it := range run.passItems[0] {
		if it.plan == nil {
			continue
		}
		k := *it.plan
		if _, err := serial.GetOn(k.machine, k.topo, k.m); err != nil {
			errs.add(err)
			out.checks = append(out.checks, fmt.Sprintf("serial replay %v: %v", k, err))
		}
	}
	sp.end()
	st := serial.OptimizerStats()
	out.report["optimizer_serial"] = st
	optimizerLayers(m, st)
	return nil
}

// optimizerLayers derives the optimizer's per-layer ratios from exact
// 1-worker counts.
func optimizerLayers(m map[string]float64, st optimize.Stats) {
	m["optimize.evaluated_per_choice"] = ratio(float64(st.Evaluated), float64(st.Evaluations))
	m["optimize.prune_ratio"] = ratio(float64(st.Pruned), float64(st.Evaluated+st.Pruned))
	m["optimize.memo_hit_ratio"] = ratio(float64(st.MemoHits), float64(st.MemoHits+st.MemoMisses))
	m["optimize.sharded_replay_ratio"] = ratio(float64(st.ReplaysSharded), float64(st.ReplaysSharded+st.ReplaysSerial))
}
