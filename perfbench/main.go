// Command perfbench is the repository's end-to-end benchmark. One process
// drives a named workload through the public functions of the existing
// packages and prints, as the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Workloads:
//
//	serve-warm      the service handler behind a loopback listener over a
//	                pre-built analytic plan cache: HTTP/JSON, obs and
//	                plancache hits only
//	serve-cold      the same handler over a simulated-backend cache that
//	                misses on every /v1/plan, plus /v1/cost replays
//	paper-pipeline  the paper's own computation: Figures 4–6, the §5.1
//	                worked example, a cold BestOn(hypercube-14) and a cold
//	                BuildTableOn(hypercube-10)
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// measures the workload untraced and then traced, reports the per-layer
// metrics, and writes the benchmark-side spans plus pland's stage
// histograms to -spans-out. Every answer is checked against an oracle; a
// wrong answer counts as a failed operation.
//
// Run it through run.sh, which builds the binary inside the checkout:
//
//	bash perfbench/run.sh --workload serve-warm --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics of an untraced run. Every workload reports all
// of them; "op" is a request for the serving workloads and one public call
// (Plan.Cost, BestOn, BuildTableOn) for the paper pipeline.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"throughput_ops_s", "1/s"},
	{"alloc_kb_per_op", "KiB"},
	{"peak_heap_mb", "MiB"},
}

// perLayer are the metrics of a traced run. A layer the workload itself
// does not exercise is measured by a small standalone probe (probes.go),
// so every traced run reports every layer with a measured value.
var perLayer = []metricDef{
	{"service.plan_p50_us", "us"},
	{"service.plan_p99_us", "us"},
	{"service.batch_p99_us", "us"},
	{"service.http_overhead_us", "us"},
	{"service.cost_p50_ms", "ms"},
	{"plancache.hit_ratio", "ratio"},
	{"plancache.hit_ns", "ns"},
	{"plancache.warm_s", "s"},
	{"plancache.build_p50_ms", "ms"},
	{"optimize.stage_p50_ms", "ms"},
	{"optimize.evaluated_per_choice", "ratio"},
	{"optimize.prune_ratio", "ratio"},
	{"optimize.memo_hit_ratio", "ratio"},
	{"optimize.sharded_replay_ratio", "ratio"},
	{"exchange.compile_us", "us"},
	{"model.multiphase_on_us", "us"},
	{"model.error_pct", "%"},
	{"simnet.replay_busy_s", "s"},
	{"simnet.msgs_per_s", "1/s"},
	{"simnet.replay_p50_ms", "ms"},
	{"simnet.shard_speedup", "x"},
	{"topology.route_ns.hypercube", "ns"},
	{"topology.route_ns.grid", "ns"},
	{"topology.route_ns.degraded", "ns"},
	{"bench.gen_lag_p99_ms", "ms"},
	{"bench.open_p99_ms", "ms"},
	{"bench.trace_overhead_pct", "%"},
	{"paper.figures_s", "s"},
	{"paper.best_s", "s"},
	{"paper.table_s", "s"},
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spansOut string
	// short shrinks every workload to a smoke-sized shape (tests only).
	short bool
}

// outcome is what one workload run produces.
type outcome struct {
	attempted int
	failed    int
	// checks lists oracle checks that failed outside any counted op (an
	// unexpected cache hit ratio, a mismatching probe).
	checks  []string
	metrics map[string]float64
	// report carries unbounded context printed beside the result:
	// offered vs achieved rate, sample counts, parallel optimizer counts.
	report map[string]any
	spans  *spanLog
}

type workloadFunc func(cfg config) (*outcome, error)

var workloads = map[string]workloadFunc{
	"serve-warm":     runServeWarm,
	"serve-cold":     runServeCold,
	"paper-pipeline": runPipeline,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "serve-warm | serve-cold | paper-pipeline")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: picks m values and query order, never the workload's shape")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured window length")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.spansOut, "spans-out", "", "span file of a traced run (default .bench_build/spans/<workload>.json)")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.spansOut == "" {
		cfg.spansOut = filepath.Join(".bench_build", "spans", cfg.workload+".json")
	}
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes one workload and prints the report and result lines.
func run(cfg config, w io.Writer) error {
	wf, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want serve-warm, serve-cold or paper-pipeline)", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("seconds must be positive, got %v", cfg.seconds)
	}
	if cfg.trace {
		// A traced run measures two windows, untraced then traced; each
		// gets half the time, so both kinds of run take about as long.
		cfg.seconds /= 2
	}
	out, err := wf(cfg)
	if err != nil {
		return err
	}
	res, err := assemble(cfg, out)
	if err != nil {
		return err
	}
	if cfg.trace && out.spans != nil {
		if err := out.spans.write(cfg.spansOut, cfg); err != nil {
			return err
		}
	}
	report := map[string]any{
		"workload":     cfg.workload,
		"seed":         cfg.seed,
		"trace":        cfg.trace,
		"machine":      machineInfo(),
		"failed_ratio": float64(out.failed) / float64(max(out.attempted, 1)),
		"checks":       out.checks,
	}
	for k, v := range out.report {
		report[k] = v
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"report": report}); err != nil {
		return err
	}
	return enc.Encode(res)
}

// assemble turns an outcome into the result line, insisting that every
// metric of the run's kind is present.
func assemble(cfg config, out *outcome) (result, error) {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := result{
		Correct:   out.failed == 0 && len(out.checks) == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := out.metrics[d.Name]
		if !ok {
			return result{}, fmt.Errorf("workload %s did not measure %s", cfg.workload, d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return res, nil
}

// machineInfo is the metadata recorded with every run.
func machineInfo() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
}
