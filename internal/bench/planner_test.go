package bench

import "testing"

// plannerAcceptConfig is the measurement-grade configuration the acceptance
// ratios are asserted at (the CI bench job's scale).
func plannerAcceptConfig() Config {
	return Config{Scale: 0.25, Workers: DefaultConfig().Workers}
}

// checkPlannerReportShape validates the structural invariants of a planner
// report: all six matrix configurations, full manual matrices, planner
// decisions present, and estimates within the stats package's documented
// error bounds (factor 1.5 for the foreign-key configurations, where the
// cross-sample probe estimator applies; factor 3 for the independent
// negatively correlated one).
func checkPlannerReportShape(t *testing.T, rep *PlannerReport) {
	t.Helper()
	wantConfigs := []string{"small-uniform", "mid-uniform", "high-multiplicity",
		"negcorr-skew", "location-clustered", "presorted-both"}
	if len(rep.Configs) != len(wantConfigs) {
		t.Fatalf("planner report has %d configs, want %d", len(rep.Configs), len(wantConfigs))
	}
	byName := map[string]PlannerConfig{}
	for _, c := range rep.Configs {
		byName[c.Name] = c
	}
	for _, name := range wantConfigs {
		c, ok := byName[name]
		if !ok {
			t.Fatalf("planner report missing config %q", name)
		}
		if len(c.Manual) != 10 {
			t.Errorf("%s: %d manual cells, want 10 (5 algorithms × 2 schedulers)", name, len(c.Manual))
		}
		if c.AutoAlgorithm == "" || c.AutoScheduler == "" {
			t.Errorf("%s: missing auto decision (%q/%q)", name, c.AutoAlgorithm, c.AutoScheduler)
		}
		if c.AutoMillis <= 0 || c.Best.Millis <= 0 || c.Worst.Millis < c.Best.Millis {
			t.Errorf("%s: implausible timings auto=%v best=%v worst=%v", name, c.AutoMillis, c.Best.Millis, c.Worst.Millis)
		}
		bound := 1.5
		if name == "negcorr-skew" {
			bound = 3
		}
		if c.EstimateRatio < 1/bound || c.EstimateRatio > bound {
			t.Errorf("%s: estimate/actual ratio %.2f outside the documented %vx bound", name, c.EstimateRatio, bound)
		}
	}
	// The decision the whole experiment exists to demonstrate: sorted inputs
	// flip the winner to an MPSM variant with its sort phases skipped.
	if alg := byName["presorted-both"].AutoAlgorithm; alg != "B-MPSM" {
		t.Errorf("presorted-both picked %q, want B-MPSM with presorted declarations", alg)
	}
}

// TestPlannerJSONReport locks in the machine-readable planner report and its
// acceptance criteria: the auto-planned join is never far behind the best
// manual (algorithm, scheduler) cell and beats the worst manual cell by at
// least 2x on a skewed configuration. The default run checks the report's
// shape and the planner's choices, which are deterministic; the wall-clock
// ratios are asserted only under MPSM_PERF_ASSERT=1 — as the CI bench job
// does on an otherwise idle step — with one re-measurement, since the ≤1.10
// bound sits close to an idle machine's noise floor.
func TestPlannerJSONReport(t *testing.T) {
	if testing.Short() {
		t.Skip("the planner report runs the full manual matrix repeatedly")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts the wall-clock ratios the test asserts")
	}
	const maxAutoVsBest = 1.10

	rep, err := buildPlannerReport(plannerAcceptConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkPlannerReportShape(t, rep)
	if !perfAssert() {
		return // tier-1 checks shape and choice quality only; see perfAssert
	}
	if rep.MaxAutoVsBest > maxAutoVsBest {
		// One re-measurement: the strict bound is within a shared runner's
		// noise envelope, and the acceptance is about choice quality, which
		// does not vary between runs.
		t.Logf("auto/best ratio %.2f above %.2f, re-measuring once", rep.MaxAutoVsBest, maxAutoVsBest)
		rep, err = buildPlannerReport(plannerAcceptConfig())
		if err != nil {
			t.Fatal(err)
		}
		checkPlannerReportShape(t, rep)
	}
	if rep.MaxAutoVsBest > maxAutoVsBest {
		t.Errorf("auto-planned join is %.2fx the best manual choice somewhere, want <= %.2f",
			rep.MaxAutoVsBest, maxAutoVsBest)
	}
	if rep.BestWorstVsAutoSkewed < 2 {
		t.Errorf("auto beats the worst manual choice by only %.2fx on skewed configs, want >= 2x",
			rep.BestWorstVsAutoSkewed)
	}
}
