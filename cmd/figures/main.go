// Command figures regenerates every table and figure of the paper's
// evaluation in one run: the §4.3 crossover example (E1), the §5.1 worked
// example (E2), the §6 partition table (E3), Figures 4–6 with their hulls
// of optimality (E4–E6), the synchronization overhead accounting (E7), and
// the contention verification (E8).
//
// Usage:
//
//	figures                  # everything, on the paper's machines
//	figures -only E5         # a single experiment
//	figures -machine ncube2  # re-price the figure sweeps (E4-E6) on another machine
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/optimize"
	"repro/internal/simnet"
	"repro/internal/topology"
	"repro/internal/trace"
)

// experimentIDs is the valid set for -only.
var experimentIDs = []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8"}

func main() {
	only := flag.String("only", "", "run a single experiment: E1..E8 (default all)")
	plot := flag.Bool("plot", false, "render Figures 4-6 as ASCII charts instead of tables")
	machine := flag.String("machine", "ipsc860",
		"machine model for the figure sweeps E4-E6 (E1/E2/E7/E8 are pinned to the paper's machines): "+
			strings.Join(model.MachineNames(), " | "))
	traceOut := flag.String("trace-out", "", "write one auto-tuned exchange's simulated timeline as Chrome trace_event JSON to this file, then exit")
	traceD := flag.Int("trace-d", 6, "hypercube dimension of the -trace-out exchange")
	traceM := flag.Int("trace-m", 40, "block size of the -trace-out exchange")
	flag.Parse()

	if *traceOut != "" {
		prm, err := model.MachineByName(*machine)
		check(err)
		check(writeExchangeTrace(*traceOut, prm, *traceD, *traceM))
		return
	}

	if *only != "" {
		valid := false
		for _, id := range experimentIDs {
			if strings.EqualFold(*only, id) {
				valid = true
				break
			}
		}
		if !valid {
			check(fmt.Errorf("unknown experiment %q (valid: %s)", *only, strings.Join(experimentIDs, ", ")))
		}
	}
	prm, err := model.MachineByName(*machine)
	check(err)
	machineName := model.DisplayName(*machine)

	want := func(id string) bool {
		return *only == "" || strings.EqualFold(*only, id)
	}

	if want("E1") {
		fmt.Println(experiments.E1Crossover())
	}
	if want("E2") {
		tbl, err := experiments.E2WorkedExample()
		check(err)
		fmt.Println(tbl)
	}
	if want("E3") {
		fmt.Println(experiments.E3PartitionTable())
	}
	for i, d := range []int{5, 6, 7} {
		id := fmt.Sprintf("E%d", 4+i)
		if !want(id) {
			continue
		}
		fig, err := experiments.FigureOn(prm, machineName, d)
		check(err)
		if *plot {
			fmt.Println(fig.Plot(90, 24))
		} else {
			fmt.Println(fig)
		}
		fmt.Println(experiments.HullOn(prm, machineName, d))
		mvp, err := experiments.MeasuredVsPredictedOn(prm, d)
		check(err)
		fmt.Println(mvp)
	}
	if want("E6") {
		tbl, err := experiments.Headline()
		check(err)
		fmt.Println(tbl)
	}
	if want("E7") {
		tbl, err := experiments.E7SyncOverhead()
		check(err)
		fmt.Println(tbl)
	}
	if want("E8") {
		tbl, err := experiments.E8Contention(7)
		check(err)
		fmt.Println(tbl)
	}
}

// writeExchangeTrace auto-tunes one (d, m) exchange, replays it with
// tracing on, and writes the timeline as Chrome trace_event JSON — the
// zoomable counterpart of the paper's Figure 3 phase structure.
func writeExchangeTrace(path string, prm model.Params, d, m int) error {
	cube, err := topology.New(d)
	if err != nil {
		return err
	}
	plan, err := optimize.New(prm).PlanOn(cube, m)
	if err != nil {
		return err
	}
	net := simnet.New(cube, prm)
	net.SetTrace(true)
	traced, err := plan.Simulate(net)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(f, traced); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %d timeline events (d=%d m=%d, makespan %.1f µs) to %s\n",
		len(traced.Timeline), d, m, traced.Makespan, path)
	return nil
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}
