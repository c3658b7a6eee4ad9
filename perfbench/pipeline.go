package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"time"

	"repro/internal/exchange"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/optimize"
	"repro/internal/partition"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// Oracle values of the paper pipeline. Simulated makespans are
// deterministic, so these are compared exactly (after the stated
// rounding); any drift is a behaviour change, never noise.
var (
	// figureOracle is each figure's two-phase curve at m = 40 B, µs.
	figureOracle = map[int]float64{5: 5807, 6: 9309, 7: 16097}
	// workedOracle is the §5.1 worked example: d=6 m=24 {2,4} on the
	// hypothetical machine, µs.
	workedOracle = 9984.0
	// headlinePart and headlineUS answer hypercube-7 m=40 on the iPSC-860
	// (µs rounded to 0.1).
	headlinePart = []int{4, 3}
	headlineUS   = 16097.3
	// bestPart and bestUS answer BestOn(hypercube-14, m=4) on the
	// iPSC-860 (µs rounded to 1).
	bestPart = []int{7, 7}
	bestUS   = 189760.0
	// tableOracle is BuildTableOn(hypercube-10, 0..256 step 16) on the
	// iPSC-860: one "min-max:partition" entry per hull segment.
	tableOracle = []string{"0-0:[3 3 2 2]", "16-176:[5 5]", "192-256:[10]"}
)

const (
	bestDim, bestM              = 14, 4
	tableDim                    = 10
	tableLo, tableHi, tableStep = 0, 256, 16
	headlineDim, headlineM      = 7, 40
)

// figureColumn is one op of the Figure 4–6 sweeps: every curve of one
// figure at one block size, a Plan.Cost call per curve.
type figureColumn struct {
	d, m  int
	plans []*exchange.Plan
}

// pipelineJobs holds a run's inputs, built once: the topologies, the
// figure networks and the laid-out plans of every figure point.
type pipelineJobs struct {
	columns []figureColumn
	worked  *exchange.Plan
	nets    map[int]*simnet.Network
	cubes   map[int]topology.Network
	prm     model.Params
}

func newPipelineJobs(seed int64, dims []int) (*pipelineJobs, error) {
	j := &pipelineJobs{nets: map[int]*simnet.Network{}, cubes: map[int]topology.Network{}, prm: model.IPSC860()}
	for _, d := range append(slices.Clone(dims), headlineDim, bestDim, tableDim, 6) {
		cube, err := topology.New(d)
		if err != nil {
			return nil, err
		}
		j.cubes[d] = cube
	}
	var err error
	if j.worked, err = exchange.NewPlanOn(j.cubes[6], 24, partition.Partition{2, 4}); err != nil {
		return nil, err
	}
	for _, d := range dims {
		j.nets[d] = simnet.New(j.cubes[d], j.prm)
		for _, m := range experiments.BlockSweep() {
			col := figureColumn{d: d, m: m}
			for _, D := range experiments.FigureCurves(d) {
				plan, err := exchange.NewPlanOn(j.cubes[d], m, D)
				if err != nil {
					return nil, err
				}
				col.plans = append(col.plans, plan)
			}
			j.columns = append(j.columns, col)
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(j.columns), func(a, b int) {
		j.columns[a], j.columns[b] = j.columns[b], j.columns[a]
	})
	return j, nil
}

// roundStats is what one pipeline round measured.
type roundStats struct {
	lat                     []float64 // per op, ms, in the round's fixed op order
	figuresS, bestS, tableS float64
	elapsed                 float64 // the whole round, s
	replayS                 float64 // host time inside RunSource (traced only)
	msgs                    int
	wrong                   []string
}

func (r *roundStats) check(ok bool, format string, args ...any) {
	if !ok {
		r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
	}
}

// call times one op: a figure column, or one standalone public call.
func (r *roundStats) call(f func() error) error {
	t0 := time.Now()
	err := f()
	r.lat = append(r.lat, ms(time.Since(t0)))
	return err
}

// figures regenerates Figures 4–6 and the §5.1 worked example. A traced
// round splits each Plan.Cost into its Compile and RunSource spans.
func (j *pipelineJobs) figures(r *roundStats, spans *spanLog, trace string, parent *span) error {
	t0 := time.Now()
	for _, col := range j.columns {
		err := r.call(func() error {
			for _, plan := range col.plans {
				res, err := j.cost(r, plan, j.nets[col.d], spans, trace, parent)
				if err != nil {
					return err
				}
				if want, ok := figureOracle[col.d]; ok && col.m == 40 && plan.NumPhases() == 2 {
					r.check(math.Round(res.Makespan) == want, "figure d=%d %v m=40: %.3f µs, want %.0f",
						col.d, plan.Partition(), res.Makespan, want)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	var res simnet.Result
	if err := r.call(func() error {
		var err error
		res, err = j.worked.Cost(simnet.New(j.cubes[6], model.Hypothetical()))
		return err
	}); err != nil {
		return err
	}
	r.check(res.Makespan == workedOracle, "worked example: %.3f µs, want %.0f", res.Makespan, workedOracle)
	r.figuresS = time.Since(t0).Seconds()
	return nil
}

// cost is Plan.Cost; a traced round splits it into its Compile and
// RunSource spans and counts the replay's host time and messages.
func (j *pipelineJobs) cost(r *roundStats, plan *exchange.Plan, net *simnet.Network, spans *spanLog, trace string, parent *span) (simnet.Result, error) {
	if spans == nil {
		return plan.Cost(net)
	}
	sp := spans.start(trace, "exchange.Compile", parent)
	cp := plan.Compile()
	sp.end()
	sp = spans.start(trace, "simnet.RunSource", parent)
	t := time.Now()
	res, err := net.RunSource(cp)
	r.replayS += time.Since(t).Seconds()
	sp.end()
	r.msgs += res.Messages
	return res, err
}

// best runs the cold simulated BestOn(hypercube-14, 4) with replay
// shards = nproc, and the hypercube-7 m=40 headline beside it.
func (j *pipelineJobs) best(r *roundStats, workers int) (optimize.Stats, error) {
	o := optimize.NewSimulated(j.prm)
	o.SetReplayShards(runtime.NumCPU())
	o.SetWorkers(workers)
	var c optimize.Choice
	var err error
	if err := r.call(func() error {
		c, err = o.BestOn(j.cubes[headlineDim], headlineM)
		return err
	}); err != nil {
		return optimize.Stats{}, err
	}
	r.check(slices.Equal(c.Part, headlinePart) && math.Round(c.TimeMicro*10)/10 == headlineUS,
		"headline d=7 m=40: %v %.3f µs, want %v %.1f", c.Part, c.TimeMicro, headlinePart, headlineUS)
	t0 := time.Now()
	if err := r.call(func() error {
		c, err = o.BestOn(j.cubes[bestDim], bestM)
		return err
	}); err != nil {
		return optimize.Stats{}, err
	}
	r.bestS = time.Since(t0).Seconds()
	r.check(slices.Equal(c.Part, bestPart) && math.Round(c.TimeMicro) == bestUS,
		"BestOn(hypercube-14, 4): %v %.3f µs, want %v %.0f", c.Part, c.TimeMicro, bestPart, bestUS)
	return o.Stats(), nil
}

// table runs the cold simulated BuildTableOn(hypercube-10, 0..256 step 16).
func (j *pipelineJobs) table(r *roundStats, workers int) (optimize.Stats, error) {
	o := optimize.NewSimulated(j.prm)
	o.SetWorkers(workers)
	var t optimize.Table
	var err error
	t0 := time.Now()
	if err := r.call(func() error {
		t, err = o.BuildTableOn(j.cubes[tableDim], tableLo, tableHi, tableStep)
		return err
	}); err != nil {
		return optimize.Stats{}, err
	}
	r.tableS = time.Since(t0).Seconds()
	got := make([]string, len(t.Segments))
	for i, s := range t.Segments {
		got[i] = strconv.Itoa(s.MinBlock) + "-" + strconv.Itoa(s.MaxBlock) + ":" + fmt.Sprint([]int(s.Part))
	}
	r.check(slices.Equal(got, tableOracle), "BuildTableOn(hypercube-10): %v, want %v", got, tableOracle)
	return o.Stats(), nil
}

// round runs every job once, in a fixed order.
func (j *pipelineJobs) round(n int, spans *spanLog, short bool) (roundStats, error) {
	var r roundStats
	t0 := time.Now()
	trace := "round" + strconv.Itoa(n)
	root := spans.start(trace, "pipeline.round", nil)
	err := j.jobs(&r, spans, trace, root, short)
	root.end()
	r.elapsed = time.Since(t0).Seconds()
	return r, err
}

func (j *pipelineJobs) jobs(r *roundStats, spans *spanLog, trace string, root *span, short bool) error {
	sp := spans.start(trace, "job.figures", root)
	err := j.figures(r, spans, trace, sp)
	sp.end()
	if err != nil || short {
		return err
	}
	sp = spans.start(trace, "job.best", root)
	_, err = j.best(r, 0)
	sp.end()
	if err != nil {
		return err
	}
	sp = spans.start(trace, "job.table", root)
	_, err = j.table(r, 0)
	sp.end()
	return err
}

// pipelineRun is one measured window of whole rounds.
type pipelineRun struct {
	rounds []roundStats
	ws     windowStats
	ops    int
}

// opLatencies returns each op's median latency over the window's rounds.
// Every round runs the same ops in the same order, so lat[i] is the same
// op in each; the per-op median keeps one round's stall (a collection of
// the previous job's garbage) from moving the quantiles across ops.
func (p *pipelineRun) opLatencies() []float64 {
	out := make([]float64, len(p.rounds[0].lat))
	for i := range out {
		var reps []float64
		for _, r := range p.rounds {
			reps = append(reps, r.lat[i])
		}
		out[i] = median(reps)
	}
	return out
}

func measurePipeline(cfg config, j *pipelineJobs, spans *spanLog) (*pipelineRun, error) {
	var p pipelineRun
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	w := startWindow()
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		r, err := j.round(n, spans, cfg.short)
		if err != nil {
			w.end()
			return nil, err
		}
		p.rounds = append(p.rounds, r)
		p.ops += len(r.lat)
	}
	p.ws = w.end()
	return &p, nil
}

func runPipeline(cfg config) (*outcome, error) {
	// Set-up takes well under a millisecond, so it repeats many times for
	// a steady median.
	dims, setups := []int{5, 6, 7}, 101
	if cfg.short {
		dims, setups = []int{5}, 2
	}
	j, setupS, err := timeSetup(setups, func() (*pipelineJobs, error) { return newPipelineJobs(cfg.seed, dims) }, func(*pipelineJobs) {})
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: map[string]float64{}, report: map[string]any{}}
	untraced, err := measurePipeline(cfg, j, nil)
	if err != nil {
		return nil, err
	}
	runs := []*pipelineRun{untraced}
	if cfg.trace {
		out.spans = newSpanLog()
		traced, err := measurePipeline(cfg, j, out.spans)
		if err != nil {
			return nil, err
		}
		runs = append(runs, traced)
	}
	var wrong []string
	for _, p := range runs {
		out.attempted += p.ops
		for _, r := range p.rounds {
			out.failed += len(r.wrong)
			wrong = append(wrong, r.wrong...)
		}
	}
	m := out.metrics
	m["setup_s"] = setupS
	var rates []float64
	for _, r := range untraced.rounds {
		rates = append(rates, float64(len(r.lat))/r.elapsed)
	}
	m["throughput_ops_s"] = median(rates)
	memoryMetrics(m, untraced.ws, untraced.ops)
	ops := untraced.opLatencies()
	m["latency_p50_ms"] = quantile(ops, 0.5)
	m["latency_p90_ms"] = quantile(ops, 0.9)
	out.report["errors"] = wrong[:min(len(wrong), 5)]
	out.report["rounds"] = len(untraced.rounds)
	out.report["samples"] = untraced.ops
	if cfg.trace {
		if err := pipelineLayers(cfg, out, j, untraced, runs[1]); err != nil {
			return nil, err
		}
		return out, probeLayers(cfg, out)
	}
	return out, nil
}

// pipelineLayers fills the paper and replay metrics of a traced
// paper-pipeline run, and the optimizer ratios from a 1-worker replay of
// the BestOn and BuildTableOn jobs, whose counts repeat exactly.
func pipelineLayers(cfg config, out *outcome, j *pipelineJobs, untraced, run *pipelineRun) error {
	m := out.metrics
	var figs, best, table, replay []float64
	msgs, replayS := 0, 0.0
	for _, r := range run.rounds {
		figs = append(figs, r.figuresS)
		best = append(best, r.bestS)
		table = append(table, r.tableS)
		replay = append(replay, r.replayS)
		msgs += r.msgs
		replayS += r.replayS
	}
	m["paper.figures_s"] = median(figs)
	m["paper.best_s"] = median(best)
	m["paper.table_s"] = median(table)
	m["simnet.replay_busy_s"] = median(replay)
	m["simnet.msgs_per_s"] = ratio(float64(msgs), replayS)
	m["bench.trace_overhead_pct"] = (run.ws.elapsed.Seconds()/float64(run.ops)/(untraced.ws.elapsed.Seconds()/float64(untraced.ops)) - 1) * 100

	var st optimize.Stats
	if !cfg.short {
		var r roundStats
		sp := out.spans.start("serial-replay", "pipeline/serial_replay", nil)
		b, err := j.best(&r, 1)
		if err != nil {
			return err
		}
		t, err := j.table(&r, 1)
		if err != nil {
			return err
		}
		sp.end()
		st = b
		st.Add(t)
		out.failed += len(r.wrong)
		out.attempted += len(r.lat)
	}
	out.report["optimizer_serial"] = st
	optimizerLayers(m, st)
	return nil
}
