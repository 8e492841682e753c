package bench

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/hashjoin"
	"repro/internal/relation"
	"repro/internal/result"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		Name:  "figure12",
		Title: "MPSM vs radix hash join (Vectorwise stand-in) vs Wisconsin hash join on uniform data",
		Run:   runFigure12,
	})
	register(Experiment{
		Name:  "figure13",
		Title: "Scalability in the number of cores (MPSM vs radix hash join)",
		Run:   runFigure13,
	})
	register(Experiment{
		Name:  "figure14",
		Title: "Role reversal: private input R vs private input S",
		Run:   runFigure14,
	})
}

// makeUniformDataset builds the standard Section 5 dataset: |R| tuples with a
// foreign-key S of multiplicity·|R| tuples so that the join produces matches
// at laptop scale.
func makeUniformDataset(cfg Config, multiplicity int, seed uint64) (*relation.Relation, *relation.Relation, error) {
	return workload.Generate(workload.Spec{
		RSize:        cfg.RSize(),
		Multiplicity: multiplicity,
		ForeignKey:   true,
		Seed:         seed,
	})
}

// warmUp runs every algorithm once on a small dataset before an experiment's
// measured runs, so that the first measured row does not absorb one-time costs
// (page faults of freshly allocated heap, scheduler ramp-up). The paper avoids
// the same effect by reporting warm repetitions only.
func warmUp(cfg Config) error {
	r, s, err := makeUniformDataset(Config{Scale: 0.02, Workers: cfg.Workers}, 2, 999)
	if err != nil {
		return err
	}
	workers := cfg.workers()
	if _, err := pmpsm(r, s, core.Options{Workers: workers}); err != nil {
		return err
	}
	if _, err := bmpsm(r, s, core.Options{Workers: workers}); err != nil {
		return err
	}
	if _, err := radix(r, s, hashjoin.RadixOptions{Options: hashjoin.Options{Workers: workers}}); err != nil {
		return err
	}
	if _, err := wisconsin(r, s, hashjoin.Options{Workers: workers}); err != nil {
		return err
	}
	return nil
}

// measureRuns is the number of repetitions of every measured join; the
// fastest repetition is reported, following the paper's practice of repeating
// each query and reporting warm executions only. It also suppresses the
// scheduling noise of small shared machines.
const measureRuns = 3

// bestOf runs the measurement fn several times and returns the result with
// the smallest total time; a failed repetition aborts the measurement.
func bestOf(fn func() (*result.Result, error)) (*result.Result, error) {
	best, err := fn()
	if err != nil {
		return nil, err
	}
	for i := 1; i < measureRuns; i++ {
		r, err := fn()
		if err != nil {
			return nil, err
		}
		if r.Total < best.Total {
			best = r
		}
	}
	return best, nil
}

// phaseCell renders a phase duration or "-" when the algorithm has no such
// phase.
func phaseCell(res *result.Result, name string) string {
	for _, p := range res.Phases {
		if p.Name == name {
			return ms(p.Duration)
		}
	}
	return "-"
}

// runFigure12 reproduces Figure 12: total execution time with per-phase
// breakdown for P-MPSM, the radix hash join, and the Wisconsin hash join at
// multiplicities 1, 4, 8 and 16 on uniform data.
func runFigure12(cfg Config, w io.Writer) error {
	if err := warmUp(cfg); err != nil {
		return err
	}
	workers := cfg.workers()
	tbl := newTable(w)
	tbl.row("algorithm", "multiplicity", "total [ms]", "phase 1", "phase 2", "phase 3", "phase 4", "build/partition", "probe/join", "NUMA model [ms]", "sync ops", "matches")

	var verdicts []string
	for _, mult := range []int{1, 4, 8, 16} {
		r, s, err := makeUniformDataset(cfg, mult, uint64(1200+mult))
		if err != nil {
			return err
		}

		p, err := bestOf(func() (*result.Result, error) { return pmpsm(r, s, core.Options{Workers: workers, TrackNUMA: true}) })
		if err != nil {
			return err
		}
		tbl.row("P-MPSM", mult, ms(p.Total), phaseCell(p, "phase 1"), phaseCell(p, "phase 2"),
			phaseCell(p, "phase 3"), phaseCell(p, "phase 4"), "-", "-",
			ms(p.SimulatedNUMACost), p.NUMA.SyncOps, p.Matches)

		v, err := bestOf(func() (*result.Result, error) {
			return radix(r, s, hashjoin.RadixOptions{Options: hashjoin.Options{Workers: workers, TrackNUMA: true}})
		})
		if err != nil {
			return err
		}
		tbl.row("Radix HJ (VW)", mult, ms(v.Total), "-", "-", "-", "-",
			phaseCell(v, "partition"), phaseCell(v, "build+probe"),
			ms(v.SimulatedNUMACost), v.NUMA.SyncOps, v.Matches)

		wi, err := bestOf(func() (*result.Result, error) {
			return wisconsin(r, s, hashjoin.Options{Workers: workers, TrackNUMA: true})
		})
		if err != nil {
			return err
		}
		tbl.row("Wisconsin", mult, ms(wi.Total), "-", "-", "-", "-",
			phaseCell(wi, "build"), phaseCell(wi, "probe"),
			ms(wi.SimulatedNUMACost), wi.NUMA.SyncOps, wi.Matches)

		runs := []ranked{{"P-MPSM", p}, {"Radix HJ", v}, {"Wisconsin", wi}}
		verdicts = append(verdicts, fmt.Sprintf("multiplicity %d: NUMA model %s; wall clock %s", mult,
			ranking(runs, func(r *result.Result) time.Duration { return r.SimulatedNUMACost }),
			ranking(runs, func(r *result.Result) time.Duration { return r.Total })))
	}
	tbl.flush()
	fmt.Fprintf(w, "\nworkers=%d |R|=%d\n", workers, cfg.RSize())
	for _, v := range verdicts {
		fmt.Fprintln(w, v)
	}
	return nil
}

// ranked is one algorithm's result in a Figure 12 row group.
type ranked struct {
	name string
	res  *result.Result
}

// ranking orders the algorithms by a measure, cheapest first: "Radix HJ <
// P-MPSM < Wisconsin", with "≤" between equal readings.
func ranking(runs []ranked, of func(*result.Result) time.Duration) string {
	sorted := slices.Clone(runs)
	slices.SortStableFunc(sorted, func(a, b ranked) int { return cmp.Compare(of(a.res), of(b.res)) })
	out := sorted[0].name
	for i := 1; i < len(sorted); i++ {
		op := " < "
		if of(sorted[i].res) == of(sorted[i-1].res) {
			op = " ≤ "
		}
		out += op + sorted[i].name
	}
	return out
}

// runFigure13 reproduces Figure 13: execution time of P-MPSM and the radix
// hash join at parallelism 2, 4, 8, 16, 32 and 64 on uniform data with
// multiplicity 4.
func runFigure13(cfg Config, w io.Writer) error {
	if err := warmUp(cfg); err != nil {
		return err
	}
	r, s, err := makeUniformDataset(cfg, 4, 1300)
	if err != nil {
		return err
	}
	tbl := newTable(w)
	tbl.row("parallelism", "P-MPSM total [ms]", "Radix HJ total [ms]", "P-MPSM speedup vs T=2", "P-MPSM NUMA model [ms]")

	var basePMPSM float64
	for _, workers := range []int{2, 4, 8, 16, 32, 64} {
		p, err := bestOf(func() (*result.Result, error) { return pmpsm(r, s, core.Options{Workers: workers, TrackNUMA: true}) })
		if err != nil {
			return err
		}
		v, err := radix(r, s, hashjoin.RadixOptions{Options: hashjoin.Options{Workers: workers}})
		if err != nil {
			return err
		}
		if workers == 2 {
			basePMPSM = float64(p.Total)
		}
		speedup := basePMPSM / float64(p.Total)
		tbl.row(workers, ms(p.Total), ms(v.Total), fmt.Sprintf("%.2fx", speedup), ms(p.SimulatedNUMACost))
	}
	tbl.flush()
	fmt.Fprintln(w, "\nexpected shape: near-linear speedup until the physical core count is reached, flat beyond it")
	return nil
}

// runFigure14 reproduces Figure 14: the effect of role reversal. The same
// R ⋈ S join is executed once with the smaller relation R as private input
// and once with the larger relation S as private input, at multiplicities
// 1, 4, 8 and 16.
func runFigure14(cfg Config, w io.Writer) error {
	if err := warmUp(cfg); err != nil {
		return err
	}
	workers := cfg.workers()
	tbl := newTable(w)
	tbl.row("private input", "multiplicity", "total [ms]", "phase 1", "phase 2", "phase 3", "phase 4")

	for _, mult := range []int{1, 4, 8, 16} {
		r, s, err := makeUniformDataset(cfg, mult, uint64(1400+mult))
		if err != nil {
			return err
		}

		a, err := bestOf(func() (*result.Result, error) { return pmpsm(r, s, core.Options{Workers: workers}) }) // R private (recommended)
		if err != nil {
			return err
		}
		tbl.row("R (smaller)", mult, ms(a.Total), phaseCell(a, "phase 1"), phaseCell(a, "phase 2"),
			phaseCell(a, "phase 3"), phaseCell(a, "phase 4"))

		b, err := bestOf(func() (*result.Result, error) { return pmpsm(s, r, core.Options{Workers: workers}) }) // S private (reversed)
		if err != nil {
			return err
		}
		tbl.row("S (larger)", mult, ms(b.Total), phaseCell(b, "phase 1"), phaseCell(b, "phase 2"),
			phaseCell(b, "phase 3"), phaseCell(b, "phase 4"))
	}
	tbl.flush()
	fmt.Fprintln(w, "\nexpected shape: identical at multiplicity 1; the gap grows with |S| in favour of keeping the smaller relation private")
	return nil
}
