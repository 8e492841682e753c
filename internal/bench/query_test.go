package bench

import (
	"testing"
)

// queryAcceptConfig is the measurement-grade configuration the query
// front-end acceptance ratios are asserted at (the CI bench job's scale:
// |R| = 2^16, |S| = |T| = 2^17).
func queryAcceptConfig() Config {
	return Config{Scale: 0.25, Workers: DefaultConfig().Workers}
}

// checkQueryReportShape validates the structural invariants of a query
// report independent of timing: every stage produced a positive time, the
// canonical query is recorded, and both plans agreed on the group count
// (buildQueryReport fails otherwise, so a report implies agreement).
func checkQueryReportShape(t *testing.T, rep *QueryReport) {
	t.Helper()
	if rep.Query == "" {
		t.Fatal("report is missing the query text")
	}
	if rep.Groups <= 0 {
		t.Fatalf("degenerate measurement: the query produced %d groups", rep.Groups)
	}
	if rep.CompileMicros <= 0 || rep.CompiledMillis <= 0 || rep.HandMillis <= 0 {
		t.Fatalf("non-positive stage time: compile %.3fµs, compiled %.3fms, hand %.3fms",
			rep.CompileMicros, rep.CompiledMillis, rep.HandMillis)
	}
}

// TestQueryJSONReport locks in the machine-readable query-front-end report
// and its acceptance criteria: parsing plus compilation costs at most 5% of
// the end-to-end join time, and the compiled plan runs within 10% of the
// hand-built equivalent. The default run checks the report's shape; the
// wall-clock ratios are asserted only under MPSM_PERF_ASSERT=1 — as the CI
// bench job does on an otherwise idle step — with one re-measurement, since
// the plan-parity bound sits close to an idle machine's noise floor.
func TestQueryJSONReport(t *testing.T) {
	if testing.Short() {
		t.Skip("the query report measures 2^17-tuple joins repeatedly")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts the wall-clock ratios the test asserts")
	}
	const maxOverhead, maxRatio = 0.05, 1.10

	rep, err := buildQueryReport(queryAcceptConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkQueryReportShape(t, rep)
	if !perfAssert() {
		return // tier-1 checks shape and choice quality only; see perfAssert
	}
	if rep.CompileOverhead > maxOverhead || rep.PlanRatio > maxRatio {
		// One re-measurement: compilation sits three orders of magnitude
		// under the join, but a noisy neighbour can steal a single run.
		t.Logf("overhead %.4f (want <= %.4f), plan ratio %.3f (want <= %.3f), re-measuring once",
			rep.CompileOverhead, maxOverhead, rep.PlanRatio, maxRatio)
		rep, err = buildQueryReport(queryAcceptConfig())
		if err != nil {
			t.Fatal(err)
		}
		checkQueryReportShape(t, rep)
	}
	if rep.CompileOverhead > maxOverhead {
		t.Errorf("parse+compile is %.2f%% of end-to-end time, want <= %.2f%%",
			rep.CompileOverhead*100, maxOverhead*100)
	}
	if rep.PlanRatio > maxRatio {
		t.Errorf("compiled plan runs at %.3fx the hand-built plan, want <= %.3f",
			rep.PlanRatio, maxRatio)
	}
}
