// Package experiments regenerates every table and figure of the paper's
// evaluation, one function per artifact (the experiment index E1–E8 of
// README.md). Each returns a report.Table or report.Figure with the same
// rows/series the paper plots, with the comparison pinned by tests here.
//
// The figure sweeps cost their schedules on the trace-compiled path
// (exchange.Plan.Cost): each plan is lowered directly to per-node simnet
// programs and replayed — no goroutines, no payload bytes — which is
// op-for-op identical to (and much faster than) the goroutine-backed
// Simulate and therefore produces the same virtual times to the bit.
package experiments

import (
	"fmt"
	"math"

	"repro/internal/exchange"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/report"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// BlockSweep returns the block sizes used for the figure sweeps
// (0–400 bytes as in Figures 4–6; zero included, step 8).
func BlockSweep() []int {
	var out []int
	for m := 0; m <= 400; m += 8 {
		out = append(out, m)
	}
	return out
}

// E1Crossover reproduces the §4.3 example: on the hypothetical d=6
// machine, Standard Exchange beats Optimal Circuit-Switched exactly below
// 30 bytes. Rows: block size, t_s, t_o, winner.
func E1Crossover() *report.Table {
	prm := model.Hypothetical()
	t := report.NewTable(
		"E1 (§4.3): SE vs OCS crossover on hypothetical d=6 machine (τ=ρ=1, λ=200, δ=20)",
		"block", "t_SE(µs)", "t_OCS(µs)", "winner")
	for _, m := range []int{1, 10, 20, 24, 29, 30, 31, 40, 60, 100} {
		ts := prm.StandardExchange(m, 6)
		to := prm.OptimalCircuitSwitched(m, 6)
		w := "SE"
		if to < ts {
			w = "OCS"
		}
		t.AddRow(m, ts, to, w)
	}
	t.AddRowStrings("crossover", fmt.Sprintf("m < %.2f", prm.CrossoverBlockSize(6)), "", "paper: m < 30")
	return t
}

// E2WorkedExample reproduces the §5.1 worked example: d=6, m=24,
// partition {2,4} on the hypothetical machine, phase by phase, both from
// the analytic model and from the network simulator.
func E2WorkedExample() (*report.Table, error) {
	prm := model.Hypothetical()
	d, m := 6, 24
	D := partition.Partition{2, 4}
	t := report.NewTable(
		"E2 (§5.1): two-phase exchange d=6 m=24 {2,4} on hypothetical machine",
		"quantity", "model(µs)", "simulated(µs)", "paper(µs)")

	total, phases := prm.Multiphase(m, d, D)
	cube, err := topology.New(d)
	if err != nil {
		return nil, err
	}
	plan, err := exchange.NewPlanOn(cube, m, D)
	if err != nil {
		return nil, err
	}
	res, err := plan.Cost(simnet.New(cube, prm))
	if err != nil {
		return nil, err
	}
	// Phase 1 (d1=2, 384B): paper quotes 1832 µs for the bare exchange.
	bare1 := prm.OptimalCircuitSwitched(phases[0].EffBlock, 2)
	t.AddRow("phase1 exchange (eff 384B)", bare1, "", 1832.0)
	bare2 := prm.OptimalCircuitSwitched(phases[1].EffBlock, 4)
	t.AddRow(fmt.Sprintf("phase2 exchange (eff %dB)", phases[1].EffBlock), bare2, "", 6040.0)
	t.AddRow("shuffles (2×ρm2^d)", 2*prm.ShuffleTime(m, d), "", 3072.0)
	t.AddRow("total multiphase", total, res.Makespan, 10944.0)
	se, err := exchange.NewPlanOn(cube, m, partition.Partition{1, 1, 1, 1, 1, 1})
	if err != nil {
		return nil, err
	}
	seRes, err := se.Cost(simnet.New(cube, prm))
	if err != nil {
		return nil, err
	}
	t.AddRow("standard exchange", prm.StandardExchange(m, d), seRes.Makespan, 15144.0)
	return t, nil
}

// E3PartitionTable reproduces the §6 table of p(d) together with the
// values quoted in the abstract.
func E3PartitionTable() *report.Table {
	t := report.NewTable("E3 (§6): number of partitions p(d)", "d", "p(d)", "paper")
	paper := map[int]string{5: "7", 7: "15", 10: "42", 15: "176", 20: "627"}
	for _, d := range []int{1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 15, 20} {
		ref := paper[d]
		if ref == "" {
			ref = "-"
		}
		t.AddRowStrings(fmt.Sprintf("%d", d), fmt.Sprintf("%d", partition.Count(d)), ref)
	}
	return t
}

// FigureCurves returns the partitions plotted for one of Figures 4–6: the
// paper's hull members plus the Standard Exchange for comparison.
func FigureCurves(d int) []partition.Partition {
	ones := make(partition.Partition, d)
	for i := range ones {
		ones[i] = 1
	}
	switch d {
	case 5:
		return []partition.Partition{ones, {2, 3}, {5}}
	case 6:
		return []partition.Partition{ones, {2, 2, 2}, {3, 3}, {6}}
	case 7:
		return []partition.Partition{ones, {2, 2, 3}, {3, 4}, {7}}
	default:
		return []partition.Partition{ones, {d}}
	}
}

// Figure generates the Figure-4/5/6 data for dimension d on the measured
// iPSC-860 parameters: simulated time vs block size, one curve per
// partition (simulated values; the analytic model coincides for these
// contention-free schedules, mirroring the paper's dashed-vs-solid
// agreement).
func Figure(d int) (*report.Figure, error) {
	return FigureOn(model.IPSC860(), "iPSC-860", d)
}

// FigureOn is Figure on an arbitrary machine parameter set — the same
// sweep the paper ran, re-priced for another machine from the registry.
func FigureOn(prm model.Params, machine string, d int) (*report.Figure, error) {
	sweep := BlockSweep()
	fig := &report.Figure{
		Title:  fmt.Sprintf("Figure %d: multiphase exchange on %d-node %s (d=%d)", d-1, 1<<uint(d), machine, d),
		XLabel: "block(B)",
		YLabel: "µs",
	}
	cube, err := topology.New(d)
	if err != nil {
		return nil, err
	}
	net := simnet.New(cube, prm)
	for _, D := range FigureCurves(d) {
		s := report.Series{Name: D.String(), X: sweep}
		for _, m := range sweep {
			plan, err := exchange.NewPlanOn(cube, m, D)
			if err != nil {
				return nil, err
			}
			res, err := plan.Cost(net)
			if err != nil {
				return nil, err
			}
			s.Y = append(s.Y, res.Makespan)
		}
		fig.Curves = append(fig.Curves, s)
	}
	return fig, nil
}

// Hull computes the hull of optimality for dimension d over the figure
// sweep — the "best partition per block size" summary the paper reads off
// each figure.
func Hull(d int) *report.Table {
	return HullOn(model.IPSC860(), "iPSC-860", d)
}

// HullOn is Hull on an arbitrary machine parameter set.
func HullOn(prm model.Params, machine string, d int) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Hull of optimality, d=%d (%s model)", d, machine),
		"blocks", "partition")
	segs := prm.Hull(d, 0, 400, 4, false)
	for _, s := range segs {
		t.AddRowStrings(fmt.Sprintf("%d..%d", s.MinBlock, s.MaxBlock), s.Part.String())
	}
	return t
}

// MeasuredVsPredicted reproduces the §8 solid-vs-dashed comparison of
// Figures 4–6: the "measured" machine (simulator with ±5% deterministic
// transmission jitter) against the analytic prediction, for every hull
// partition of dimension d across the block sweep. The paper reports
// "good agreement between the predicted and observed run times... not
// perfect"; the table quantifies the same with a relative RMS per curve.
func MeasuredVsPredicted(d int) (*report.Table, error) {
	return MeasuredVsPredictedOn(model.IPSC860(), d)
}

// MeasuredVsPredictedOn is MeasuredVsPredicted on an arbitrary machine
// parameter set.
func MeasuredVsPredictedOn(prm model.Params, d int) (*report.Table, error) {
	t := report.NewTable(
		fmt.Sprintf("§8 measured (±5%% jitter) vs predicted, d=%d", d),
		"partition", "rel RMS (%)", "max dev (%)")
	cube, err := topology.New(d)
	if err != nil {
		return nil, err
	}
	net := simnet.New(cube, prm)
	net.SetJitter(0.05, 1991)
	for _, D := range FigureCurves(d) {
		var ss, maxDev float64
		count := 0
		for _, m := range BlockSweep() {
			plan, err := exchange.NewPlanOn(cube, m, D)
			if err != nil {
				return nil, err
			}
			res, err := plan.Cost(net)
			if err != nil {
				return nil, err
			}
			pred, _ := prm.Multiphase(m, d, D)
			if pred <= 0 {
				continue
			}
			rel := (res.Makespan - pred) / pred
			ss += rel * rel
			if a := math.Abs(rel); a > maxDev {
				maxDev = a
			}
			count++
		}
		rms := 0.0
		if count > 0 {
			rms = math.Sqrt(ss / float64(count))
		}
		t.AddRowStrings(D.String(),
			fmt.Sprintf("%.2f", rms*100),
			fmt.Sprintf("%.2f", maxDev*100))
	}
	return t, nil
}

// E7SyncOverhead reproduces the §7.2/§7.4 synchronization accounting: the
// effective λ and δ under pairwise sync, and the simulated cost of one
// exchange under the three exchange modes.
func E7SyncOverhead() (*report.Table, error) {
	t := report.NewTable(
		"E7 (§7.2/§7.4): pairwise synchronization overhead, one 100B exchange at distance 1",
		"mode", "λ_eff", "δ_eff", "simulated(µs)")
	for _, cfg := range []struct {
		name string
		prm  model.Params
	}{
		{"synced (paper)", model.IPSC860()},
		{"unsynced (serializes)", model.IPSC860NoSync()},
		{"ideal (theory)", model.IPSC860Raw()},
	} {
		cube, err := topology.New(1)
		if err != nil {
			return nil, err
		}
		net := simnet.New(cube, cfg.prm)
		progs := []simnet.Program{
			{simnet.Exchange(1, 100)},
			{simnet.Exchange(0, 100)},
		}
		res, err := net.Run(progs)
		if err != nil {
			return nil, err
		}
		t.AddRow(cfg.name, cfg.prm.EffLambda(), cfg.prm.EffDelta(), res.Makespan)
	}
	return t, nil
}

// E8Contention verifies the scheduling claims: every step of every
// multiphase plan is edge-contention-free for d ≤ dmax, while the naive
// all-into-one schedule is not.
func E8Contention(dmax int) (*report.Table, error) {
	t := report.NewTable(
		"E8 (§2/§4.2): edge contention under e-cube routing",
		"d", "multiphase steps", "contended", "naive max edge load")
	for d := 1; d <= dmax; d++ {
		h, err := topology.New(d)
		if err != nil {
			return nil, err
		}
		steps, contended := 0, 0
		for _, D := range partition.All(d) {
			plan, err := exchange.NewPlanOn(h, 1, D)
			if err != nil {
				return nil, err
			}
			for _, step := range plan.Steps() {
				steps++
				r, err := h.AnalyzeStep(step)
				if err != nil {
					return nil, err
				}
				if !r.EdgeContentionFree() {
					contended++
				}
			}
		}
		naiveMax := 0
		for i := 0; i < h.Nodes(); i++ {
			r, err := h.AnalyzeStep(h.NaiveStep(i))
			if err != nil {
				return nil, err
			}
			if r.MaxEdgeLoad > naiveMax {
				naiveMax = r.MaxEdgeLoad
			}
		}
		t.AddRow(d, steps, contended, naiveMax)
	}
	return t, nil
}

// Headline reproduces the Figure 6 headline numbers: d=7, m=40 — the
// multiphase {3,4} versus the two classical algorithms.
func Headline() (*report.Table, error) {
	prm := model.IPSC860()
	d, m := 7, 40
	t := report.NewTable(
		"Figure 6 headline: d=7, block 40B (paper: SE=OCS=0.037s, {3,4}=0.016s)",
		"algorithm", "model(µs)", "simulated(µs)")
	cube, err := topology.New(d)
	if err != nil {
		return nil, err
	}
	net := simnet.New(cube, prm)
	for _, row := range []struct {
		name string
		D    partition.Partition
	}{
		{"standard exchange {1×7}", partition.Partition{1, 1, 1, 1, 1, 1, 1}},
		{"optimal CS {7}", partition.Partition{7}},
		{"multiphase {3,4}", partition.Partition{3, 4}},
	} {
		plan, err := exchange.NewPlanOn(cube, m, row.D)
		if err != nil {
			return nil, err
		}
		res, err := plan.Cost(net)
		if err != nil {
			return nil, err
		}
		pred, _ := prm.Multiphase(m, d, row.D)
		t.AddRow(row.name, pred, res.Makespan)
	}
	return t, nil
}
