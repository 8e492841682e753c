package bench

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/result"
	"repro/internal/sorting"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		Name:  "sort",
		Title: "Multi-level Radix/IntroSort vs single-level vs standard library (Section 2.3)",
		Run:   runSortComparison,
	})
	register(Experiment{
		Name:  "ablation-partitioning",
		Title: "B-MPSM vs P-MPSM: the value of range partitioning (Sections 2.2 / 3.2)",
		Run:   runAblationPartitioning,
	})
	register(Experiment{
		Name:  "dmpsm",
		Title: "D-MPSM under RAM budgets (Section 3.1)",
		Run:   runDMPSMBudgets,
	})
}

// sortRoutines are the contenders of the sort micro-benchmark: the production
// run-generation sort of the columnar path (SortTuplesIntoColumns, charged
// including the AoS→SoA conversion it fuses), and the AoS family of the row
// path — the multi-level MSD Radix/IntroSort, its out-of-place SortInto
// variant (charged including the scatter into the destination buffer), the
// previous single-level implementation — against the standard library. Each
// routine allocates its destination for n tuples up front and returns the
// function to time.
var sortRoutines = []struct {
	name    string
	prepare func(n int) func(src []relation.Tuple)
}{
	{"columns", func(n int) func(src []relation.Tuple) {
		keys, pays := make([]uint64, n), make([]uint64, n)
		return func(src []relation.Tuple) { sorting.SortTuplesIntoColumns(src, keys, pays, nil) }
	}},
	{"multi-level", rowSortRoutine(func(src, dst []relation.Tuple) { copy(dst, src); sorting.Sort(dst) })},
	{"sort-into", rowSortRoutine(func(src, dst []relation.Tuple) { sorting.SortInto(src, dst) })},
	{"one-level", rowSortRoutine(func(src, dst []relation.Tuple) { copy(dst, src); sorting.SortOneLevel(dst) })},
	{"stdlib", rowSortRoutine(func(src, dst []relation.Tuple) { copy(dst, src); sorting.SortStdlib(dst) })},
}

// rowSortRoutine adapts an AoS sort into a sortRoutines entry.
func rowSortRoutine(run func(src, dst []relation.Tuple)) func(n int) func(src []relation.Tuple) {
	return func(n int) func(src []relation.Tuple) {
		dst := make([]relation.Tuple, n)
		return func(src []relation.Tuple) { run(src, dst) }
	}
}

// runSortComparison reproduces the Section 2.3 claim (the paper's routine
// beats the standard library by ~30%) and quantifies what the multi-level
// recursion, the SortInto scatter and the packed columnar kernel add over the
// previous single-level implementation, also when many workers sort their
// local runs concurrently.
func runSortComparison(cfg Config, w io.Writer) error {
	n := cfg.RSize()
	tbl := newTable(w)
	header := []any{"workers"}
	for _, routine := range sortRoutines {
		header = append(header, routine.name+" [ms]")
	}
	tbl.row(append(header, "vs one-level", "vs stdlib")...)

	for _, workers := range []int{1, 2, 4, cfg.workers()} {
		base := workload.UniformRelation("R", n*workers, workload.DefaultKeyDomain, uint64(1700+workers))

		times := make(map[string]time.Duration, len(sortRoutines))
		row := []any{workers}
		for _, routine := range sortRoutines {
			input := base.Clone().Split(workers)
			// Destination buffers are allocated outside the timed region so
			// the measurement covers only the sort (and its fused copy).
			runs := make([]func(src []relation.Tuple), len(input))
			for i, c := range input {
				runs[i] = routine.prepare(len(c.Tuples))
			}
			times[routine.name] = result.StopwatchPhase(func() {
				var wg sync.WaitGroup
				for i, c := range input {
					wg.Add(1)
					go func() {
						defer wg.Done()
						runs[i](c.Tuples)
					}()
				}
				wg.Wait()
			})
			row = append(row, ms(times[routine.name]))
		}
		tbl.row(append(row,
			fmt.Sprintf("%.2fx", float64(times["one-level"])/float64(times["multi-level"])),
			fmt.Sprintf("%.2fx", float64(times["stdlib"])/float64(times["multi-level"])))...)
	}
	tbl.flush()
	fmt.Fprintln(w, "\nexpected shape: multi-level ≥1.3x over one-level and well over stdlib at every worker count; sort-into the fastest AoS routine (the copy is fused into the first radix pass); columns, which moves 8 bytes a tuple, faster still")
	return nil
}

// runAblationPartitioning quantifies the pay-off condition of Section 3.2:
// range partitioning the private input costs an extra pass over R but reduces
// the public data each worker scans from |S| to roughly |S|/T. The experiment
// reports totals, join-phase times and public tuples scanned for B-MPSM and
// P-MPSM across multiplicities.
func runAblationPartitioning(cfg Config, w io.Writer) error {
	if err := warmUp(cfg); err != nil {
		return err
	}
	workers := cfg.workers()
	tbl := newTable(w)
	tbl.row("multiplicity", "algorithm", "total [ms]", "join phase [ms]", "S tuples scanned")
	for _, mult := range []int{1, 4, 8} {
		r, s, err := makeUniformDataset(cfg, mult, uint64(1800+mult))
		if err != nil {
			return err
		}

		b, err := bestOf(func() (*result.Result, error) { return bmpsm(r, s, core.Options{Workers: workers}) })
		if err != nil {
			return err
		}
		tbl.row(mult, "B-MPSM", ms(b.Total), ms(b.PhaseDuration("phase 3")), b.PublicScanned)

		p, err := bestOf(func() (*result.Result, error) { return pmpsm(r, s, core.Options{Workers: workers}) })
		if err != nil {
			return err
		}
		tbl.row(mult, "P-MPSM", ms(p.Total), ms(p.PhaseDuration("phase 4")), p.PublicScanned)
	}
	tbl.flush()
	fmt.Fprintf(w, "\nexpected shape: P-MPSM scans ~1/%d of the S tuples B-MPSM scans and wins whenever |R|/T ≤ |S|·(1-1/T)\n", cfg.workers())
	return nil
}

// runDMPSMBudgets exercises the disk-enabled variant under different page
// budgets and I/O latencies, reporting the buffer-pool behaviour (Figure 4's
// "only the active parts of the runs are in RAM").
func runDMPSMBudgets(cfg Config, w io.Writer) error {
	workers := cfg.workers()
	r, s, err := makeUniformDataset(cfg, 4, 1900)
	if err != nil {
		return err
	}
	pageSize := 1024
	tbl := newTable(w)
	tbl.row("page budget", "read latency", "total [ms]", "max resident pages", "pool loads", "pool hits", "evictions", "matches")

	for _, budget := range []int{0, 16, 64} {
		for _, latency := range []time.Duration{0, 20 * time.Microsecond} {
			res, stats, err := dmpsm(r, s, core.Options{Workers: workers}, core.DiskOptions{
				PageSize:    pageSize,
				PageBudget:  budget,
				ReadLatency: latency,
			})
			if err != nil {
				return err
			}
			budgetLabel := fmt.Sprintf("%d", budget)
			if budget == 0 {
				budgetLabel = "unlimited"
			}
			tbl.row(budgetLabel, latency, ms(res.Total), stats.Pool.MaxResident,
				stats.Pool.Loads, stats.Pool.Hits, stats.Pool.Evictions, res.Matches)
		}
	}
	tbl.flush()
	fmt.Fprintln(w, "\nexpected shape: the join result never changes; resident pages stay within the budget; tighter budgets trade hits for evictions")
	return nil
}
