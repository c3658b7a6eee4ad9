// Command partitions prints the integer-partition table of paper §6 — the
// number of multiphase algorithm candidates per hypercube dimension — and
// optionally enumerates the partitions themselves.
//
// Usage:
//
//	partitions                      # the p(d) table for d = 1..20
//	partitions -d 7                 # enumerate the 15 partitions of 7
//	partitions -d 7 -m 40           # ...with each candidate's modeled time (§6)
//	partitions -d 7 -m 40 -machine ncube2
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/model"
	"repro/internal/optimize"
	"repro/internal/partition"
	"repro/internal/report"
	"repro/internal/topology"
)

func main() {
	d := flag.Int("d", 0, "enumerate the partitions of this dimension (0 = print the p(d) table)")
	m := flag.Int("m", -1, "with -d: also model each candidate's multiphase time for this block size")
	machine := flag.String("machine", "ipsc860",
		"machine model for -m costing: "+strings.Join(model.MachineNames(), " | "))
	optWorkers := flag.Int("opt-workers", 0, "optimizer candidate-costing workers, clamped to GOMAXPROCS (0 = backend default)")
	flag.Parse()

	if *d < 0 {
		fatal(fmt.Errorf("negative dimension %d", *d))
	}
	if *d > 0 {
		if *d > 40 {
			fatal(fmt.Errorf("d=%d too large to enumerate", *d))
		}
		if *m >= 0 {
			if err := costed(*d, *m, *machine, *optWorkers); err != nil {
				fatal(err)
			}
			return
		}
		fmt.Printf("partitions of %d (p(%d) = %d):\n", *d, *d, partition.Count(*d))
		it := partition.NewIterator(*d)
		for D := it.Next(); D != nil; D = it.Next() {
			fmt.Println("  ", D)
		}
		return
	}

	t := report.NewTable("number of multiphase algorithms: p(d) (paper §6)",
		"d", "nodes", "p(d)")
	for dd := 1; dd <= 20; dd++ {
		t.AddRowStrings(
			fmt.Sprintf("%d", dd),
			fmt.Sprintf("%d", 1<<uint(dd)),
			fmt.Sprintf("%d", partition.Count(dd)))
	}
	if err := t.Write(os.Stdout); err != nil {
		fatal(err)
	}
}

// costed prints every partition of d with its modeled multiphase time
// for block size m — the §6 enumeration the optimizer runs, made
// visible. The winner is marked.
func costed(d, m int, machine string, optWorkers int) error {
	prm, err := model.MachineByName(machine)
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("the p(%d) = %d multiphase candidates at m=%dB on %s (§6)",
			d, partition.Count(d), m, machine),
		"partition", "phases", "modeled (µs)", "")
	// Ask the optimizer itself which candidate wins, so the mark always
	// agrees with what mpx and pland serve (tie-breaks included).
	cube, err := topology.New(d)
	if err != nil {
		return err
	}
	opt := optimize.New(prm)
	opt.SetWorkers(optWorkers)
	best, err := opt.BestOn(cube, m)
	if err != nil {
		return err
	}
	it := partition.NewIterator(d)
	for D := it.Next(); D != nil; D = it.Next() {
		tt, _ := prm.Multiphase(m, d, D)
		mark := ""
		if D.Equal(best.Part) {
			mark = "← best"
		}
		t.AddRowStrings(D.String(), fmt.Sprintf("%d", len(D)), report.FormatMicros(tt), mark)
	}
	return t.Write(os.Stdout)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "partitions:", err)
	os.Exit(1)
}
