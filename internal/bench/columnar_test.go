package bench

import (
	"testing"
)

// columnarAcceptConfig is the measurement-grade configuration the kernel
// acceptance ratios are asserted at (the CI bench job's scale; columnarSize
// floors the input at 2^20 tuples there).
func columnarAcceptConfig() Config {
	return Config{Scale: 0.25, Workers: DefaultConfig().Workers}
}

// checkColumnarReportShape validates the structural invariants of a columnar
// report independent of timing: all five selectivity cells present in order,
// every measured kernel produced a positive time, and the headline ratios
// match their cells.
func checkColumnarReportShape(t *testing.T, rep *ColumnarReport) {
	t.Helper()
	if rep.Tuples <= 0 {
		t.Fatalf("report has %d tuples", rep.Tuples)
	}
	if rep.AoSSortMillis <= 0 || rep.SoASortMillis <= 0 {
		t.Errorf("implausible sort timings AoS=%v SoA=%v", rep.AoSSortMillis, rep.SoASortMillis)
	}
	wantPct := []int{1, 10, 50, 90, 99}
	if len(rep.Filter) != len(wantPct) {
		t.Fatalf("report has %d filter cells, want %d", len(rep.Filter), len(wantPct))
	}
	for i, cell := range rep.Filter {
		if cell.SelectivityPct != wantPct[i] {
			t.Errorf("filter cell %d is %d%%, want %d%%", i, cell.SelectivityPct, wantPct[i])
		}
		if cell.ScalarMillis <= 0 || cell.VectorMillis <= 0 {
			t.Errorf("filter cell %d%%: implausible timings scalar=%v vector=%v",
				cell.SelectivityPct, cell.ScalarMillis, cell.VectorMillis)
		}
		if cell.SelectivityPct == 50 && cell.Speedup != rep.FilterSpeedupAt50 {
			t.Errorf("FilterSpeedupAt50 = %v, 50%% cell says %v", rep.FilterSpeedupAt50, cell.Speedup)
		}
	}
	if rep.BandRowsMillis <= 0 || rep.BandColumnsMillis <= 0 || rep.BandPairs == 0 {
		t.Errorf("implausible band join: rows=%v columns=%v pairs=%d",
			rep.BandRowsMillis, rep.BandColumnsMillis, rep.BandPairs)
	}
	if rep.GoMaxProcs < 1 || rep.NumCPU < 1 || rep.Workers != 1 {
		t.Errorf("host fields gomaxprocs=%d num_cpu=%d workers=%d", rep.GoMaxProcs, rep.NumCPU, rep.Workers)
	}
}

// TestColumnarJSONReport locks in the machine-readable columnar kernel report
// and its acceptance criteria: the branch-free selection kernel beats the
// branchy scalar scan by at least 2x at 50% selectivity (the point of maximum
// misprediction), and the SoA run-generation sort beats the AoS sort by at
// least 1.2x at 2^20 tuples. The default run checks the report's shape; the
// wall-clock ratios are asserted only under MPSM_PERF_ASSERT=1 — as the CI
// bench job does on an otherwise idle step — with one re-measurement, since
// the sort bound sits close to an idle machine's noise floor.
func TestColumnarJSONReport(t *testing.T) {
	if testing.Short() {
		t.Skip("the columnar report measures 2^20-tuple kernels repeatedly")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts the wall-clock ratios the test asserts")
	}
	const minFilterSpeedup, minSortSpeedup = 2.0, 1.2

	rep, err := buildColumnarReport(columnarAcceptConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkColumnarReportShape(t, rep)
	if !perfAssert() {
		return // tier-1 checks shape and choice quality only; see perfAssert
	}
	if rep.FilterSpeedupAt50 < minFilterSpeedup || rep.SortSpeedup < minSortSpeedup {
		// One re-measurement: both kernels comfortably clear their bounds on
		// an idle machine, but the sort ratio's margin is small enough that a
		// noisy neighbour can push a single run under it.
		t.Logf("filter %.2fx (want >= %.2f) sort %.2fx (want >= %.2f), re-measuring once",
			rep.FilterSpeedupAt50, minFilterSpeedup, rep.SortSpeedup, minSortSpeedup)
		rep, err = buildColumnarReport(columnarAcceptConfig())
		if err != nil {
			t.Fatal(err)
		}
		checkColumnarReportShape(t, rep)
	}
	if rep.FilterSpeedupAt50 < minFilterSpeedup {
		t.Errorf("branch-free filter is %.2fx the scalar scan at 50%% selectivity, want >= %.2f",
			rep.FilterSpeedupAt50, minFilterSpeedup)
	}
	if rep.SortSpeedup < minSortSpeedup {
		t.Errorf("SoA run generation is %.2fx the AoS sort, want >= %.2f",
			rep.SortSpeedup, minSortSpeedup)
	}
}
