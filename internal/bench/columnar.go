package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/batch"
	"repro/internal/mergejoin"
	"repro/internal/relation"
	"repro/internal/result"
	"repro/internal/sorting"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		Name:  "columnar",
		Title: "Columnar kernels: AoS vs SoA run generation, scalar vs branch-free selection, band join on rows vs on columns",
		Run:   runColumnarExperiment,
		JSON:  columnarJSON,
	})
}

// columnarRepetitions is the best-of repetition count per kernel;
// columnarSortRepetitions is higher because the sort acceptance ratio has the
// smallest margin and its ~40ms kernels need more samples for the minimum to
// converge on a shared machine.
const (
	columnarRepetitions     = 5
	columnarSortRepetitions = 9
)

// columnarSize floors the kernel input at 2^20 tuples for measurement-grade
// runs (scale >= 0.25, the CI bench scale): the acceptance ratios compare
// tight-loop kernels whose sub-millisecond times at smoke-test sizes are
// dominated by timer granularity. Tiny scales run at their natural size so
// the experiment stays fast under the race detector.
func columnarSize(cfg Config) int {
	n := cfg.RSize()
	if cfg.Scale >= 0.25 && n < 1<<20 {
		n = 1 << 20
	}
	return n
}

// ColumnarFilterCell is one selectivity point of the selection comparison:
// a branchy scalar scan against the branch-free selection-vector kernel over
// the same key column.
type ColumnarFilterCell struct {
	SelectivityPct int     `json:"selectivity_pct"`
	ScalarMillis   float64 `json:"scalar_millis"`
	VectorMillis   float64 `json:"vector_millis"`
	// Speedup is ScalarMillis / VectorMillis.
	Speedup float64 `json:"speedup"`
}

// ColumnarReport is the machine-readable report (BENCH_columnar.json).
type ColumnarReport struct {
	GeneratedAt string  `json:"generated_at"`
	Scale       float64 `json:"scale"`
	Tuples      int     `json:"tuples"`
	// Every kernel here runs on one goroutine (Workers is 1); GoMaxProcs and
	// NumCPU describe the host the times were taken on.
	GoMaxProcs int `json:"gomaxprocs"`
	NumCPU     int `json:"num_cpu"`
	Workers    int `json:"workers"`

	// Run generation: sorting tuples into an AoS run (SortInto) vs into a
	// SoA key/payload column pair (SortTuplesIntoColumns). Both are charged
	// out-of-place from the same unsorted source.
	AoSSortMillis float64 `json:"aos_sort_millis"`
	SoASortMillis float64 `json:"soa_sort_millis"`
	// SortSpeedup is AoSSortMillis / SoASortMillis (acceptance: >= 1.2 at
	// 2^20 tuples under MPSM_PERF_ASSERT).
	SortSpeedup float64 `json:"sort_speedup"`

	// Selection at several selectivities; FilterSpeedupAt50 repeats the 50%
	// cell's ratio (acceptance: >= 2 under MPSM_PERF_ASSERT — the point of
	// maximum branch misprediction for the scalar loop).
	Filter            []ColumnarFilterCell `json:"filter"`
	FilterSpeedupAt50 float64              `json:"filter_speedup_at_50"`

	// Band join of two unsorted relations of BandTuples tuples each, keys
	// below 2^18, width 16, counting the pairs — sorts included, one
	// goroutine. Rows is the path band joins ran on before they went
	// columnar: the AoS sort of both sides, then JoinBand's call per pair.
	// Columns is what B-/P-MPSM run now: the packed column sort of both
	// sides, then the range kernel, whose counter adds m·n per key group.
	BandTuples        int     `json:"band_tuples"`
	BandPairs         uint64  `json:"band_pairs"`
	BandRowsMillis    float64 `json:"band_rows_millis"`
	BandColumnsMillis float64 `json:"band_columns_millis"`
	BandSpeedup       float64 `json:"band_speedup"`
}

// The band comparison's shape: the d/e relations and the width of the
// benchmark's band template.
const (
	bandTuples = 1 << 15
	bandDomain = 1 << 18
	bandWidth  = 16
)

// columnarSink defeats dead-code elimination of the measured kernels.
var columnarSink uint64

// bestOfKernel times fn columnarRepetitions times and keeps the minimum.
func bestOfKernel(fn func()) time.Duration {
	return bestOfKernelN(columnarRepetitions, fn)
}

// bestOfKernelN times fn reps times and keeps the minimum.
func bestOfKernelN(reps int, fn func()) time.Duration {
	var best time.Duration
	for i := 0; i < reps; i++ {
		d := result.StopwatchPhase(fn)
		if best == 0 || d < best {
			best = d
		}
	}
	return best
}

// scalarSelectRange is the branchy baseline the vectorized kernel replaces:
// one predicate test and one conditional append per element.
func scalarSelectRange(keys []uint64, lo, hi uint64, sel []int32) int {
	n := 0
	for i, k := range keys {
		if k >= lo && k < hi {
			sel[n] = int32(i)
			n++
		}
	}
	return n
}

// buildColumnarReport measures the three kernel comparisons.
func buildColumnarReport(cfg Config) (*ColumnarReport, error) {
	n := columnarSize(cfg)
	rep := &ColumnarReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Scale:       cfg.Scale,
		Tuples:      n,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		Workers:     1,
	}

	// --- Run generation: AoS vs SoA, both out-of-place from the same source.
	src := workload.UniformRelation("R", n, workload.DefaultKeyDomain, 4100).Tuples
	aosDst := make([]relation.Tuple, n)
	keys := make([]uint64, n)
	pays := make([]uint64, n)
	aos := bestOfKernelN(columnarSortRepetitions, func() { sorting.SortInto(src, aosDst) })
	soa := bestOfKernelN(columnarSortRepetitions, func() { sorting.SortTuplesIntoColumns(src, keys, pays, nil) })
	rep.AoSSortMillis, rep.SoASortMillis = millis(aos), millis(soa)
	if soa > 0 {
		rep.SortSpeedup = float64(aos) / float64(soa)
	}

	// --- Selection: scalar branchy scan vs branch-free selection vector.
	// The key column is UNSORTED (selections run on scan input, not on
	// sorted runs) and uniform over the full domain, so a range of p% of the
	// domain selects ~p% of the keys in unpredictable positions; at 50% the
	// scalar loop's branch is a coin flip and mispredicts maximally. On a
	// sorted column the branch would be perfectly predictable and the
	// comparison meaningless.
	unsorted := make([]uint64, n)
	batch.Deinterleave(src, unsorted, pays)
	sel := make([]int32, n)
	for _, pct := range []int{1, 10, 50, 90, 99} {
		hi := uint64(float64(workload.DefaultKeyDomain) * float64(pct) / 100)
		scalar := bestOfKernel(func() { columnarSink += uint64(scalarSelectRange(unsorted, 0, hi, sel)) })
		vector := bestOfKernel(func() { columnarSink += uint64(batch.SelectRange(unsorted, 0, hi, sel)) })
		cell := ColumnarFilterCell{
			SelectivityPct: pct,
			ScalarMillis:   millis(scalar),
			VectorMillis:   millis(vector),
		}
		if vector > 0 {
			cell.Speedup = float64(scalar) / float64(vector)
		}
		rep.Filter = append(rep.Filter, cell)
		if pct == 50 {
			rep.FilterSpeedupAt50 = cell.Speedup
		}
	}

	// --- Band join, rows vs columns, sorts included.
	d := workload.UniformRelation("d", bandTuples, bandDomain, 4101).Tuples
	e := workload.UniformRelation("e", bandTuples, bandDomain, 4102).Tuples
	dRun, eRun := make([]relation.Tuple, bandTuples), make([]relation.Tuple, bandTuples)
	var rowPairs, colPairs mergejoin.Counter
	rows := bestOfKernelN(columnarSortRepetitions, func() {
		sorting.SortInto(d, dRun)
		sorting.SortInto(e, eRun)
		rowPairs.Count = 0
		mergejoin.JoinBand(dRun, eRun, bandWidth, &rowPairs)
	})
	dCols, eCols := batch.NewRun(0, 0, bandTuples, nil), batch.NewRun(0, 0, bandTuples, nil)
	sc := batch.NewScratch(0, nil)
	cols := bestOfKernelN(columnarSortRepetitions, func() {
		sorting.SortTuplesIntoColumns(d, dCols.Keys, dCols.Payloads, nil)
		sorting.SortTuplesIntoColumns(e, eCols.Keys, eCols.Payloads, nil)
		colPairs.Count = 0
		mergejoin.JoinColumnsBand(dCols.Keys, dCols.Payloads, eCols.Keys, eCols.Payloads, bandWidth, &colPairs, sc)
	})
	sc.Close()
	if rowPairs != colPairs {
		return nil, fmt.Errorf("band join: %d pairs on rows, %d on columns", rowPairs.Count, colPairs.Count)
	}
	rep.BandTuples, rep.BandPairs = bandTuples, colPairs.Count
	rep.BandRowsMillis, rep.BandColumnsMillis = millis(rows), millis(cols)
	if cols > 0 {
		rep.BandSpeedup = float64(rows) / float64(cols)
	}
	return rep, nil
}

// runColumnarExperiment renders the comparisons as tables.
func runColumnarExperiment(cfg Config, w io.Writer) error {
	rep, err := buildColumnarReport(cfg)
	if err != nil {
		return err
	}
	tbl := newTable(w)
	tbl.row("kernel", "variant", "time [ms]", "speedup")
	tbl.row("sort run", "AoS (SortInto)", fmt.Sprintf("%.2f", rep.AoSSortMillis), "")
	tbl.row("sort run", "SoA (SortTuplesIntoColumns)", fmt.Sprintf("%.2f", rep.SoASortMillis), fmt.Sprintf("%.2fx", rep.SortSpeedup))
	for _, c := range rep.Filter {
		tbl.row(fmt.Sprintf("select %d%%", c.SelectivityPct), "scalar branchy", fmt.Sprintf("%.2f", c.ScalarMillis), "")
		tbl.row(fmt.Sprintf("select %d%%", c.SelectivityPct), "branch-free vector", fmt.Sprintf("%.2f", c.VectorMillis), fmt.Sprintf("%.2fx", c.Speedup))
	}
	tbl.row("band join", "AoS sort + JoinBand", fmt.Sprintf("%.2f", rep.BandRowsMillis), "")
	tbl.row("band join", "column sort + range kernel", fmt.Sprintf("%.2f", rep.BandColumnsMillis), fmt.Sprintf("%.2fx", rep.BandSpeedup))
	tbl.flush()
	fmt.Fprintf(w, "\n%d tuples (band join: 2 x %d, width %d, %d pairs), GOMAXPROCS %d of %d CPUs, 1 worker; sort speedup %.2fx (target ≥ 1.2), filter speedup at 50%% selectivity %.2fx (target ≥ 2)\n",
		rep.Tuples, rep.BandTuples, bandWidth, rep.BandPairs, rep.GoMaxProcs, rep.NumCPU, rep.SortSpeedup, rep.FilterSpeedupAt50)
	if cfg.Verbose {
		fmt.Fprintln(w, "expected shape: the SoA sort moves 12 bytes per element instead of 16 and gathers payloads once; the scalar filter pays a misprediction per selectivity-boundary crossing, worst at 50%")
	}
	return nil
}

// columnarJSON produces the machine-readable columnar report.
func columnarJSON(cfg Config) (any, error) {
	return buildColumnarReport(cfg)
}
