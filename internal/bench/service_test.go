package bench

import "testing"

// checkServiceReportShape validates the structural invariants of a serving
// report: full client roster, plausible latencies, and the plan-cache hit
// rate (which is deterministic — one shape, one miss — and asserted
// unconditionally).
func checkServiceReportShape(t *testing.T, rep *ServiceReport) {
	t.Helper()
	if rep.Clients != serviceClients || len(rep.PerClient) != serviceClients {
		t.Fatalf("report covers %d/%d clients, want %d", rep.Clients, len(rep.PerClient), serviceClients)
	}
	if rep.Completed <= 0 || rep.ThroughputQPS <= 0 {
		t.Fatalf("no queries completed: %+v", rep)
	}
	for _, c := range rep.PerClient {
		if c.Completed <= 0 {
			t.Errorf("client %s completed no queries (starved)", c.Label)
		}
	}
	if rep.SoloP50Millis <= 0 || rep.P99Millis < rep.P50Millis {
		t.Errorf("implausible latencies: solo p50 %.2f, p50 %.2f, p99 %.2f",
			rep.SoloP50Millis, rep.P50Millis, rep.P99Millis)
	}
	if rep.PlanCacheHitRate < 0.90 {
		t.Errorf("plan cache hit rate %.2f, want >= 0.90 (single plan shape should miss once)", rep.PlanCacheHitRate)
	}
	if rep.Admitted == 0 {
		t.Errorf("admission controller admitted nothing: %+v", rep)
	}
}

// TestServiceJSONReport locks in the machine-readable serving report and its
// acceptance criteria: p99 latency at 32 closed-loop clients stays within 5x
// the uncontended p50 and no client falls behind by more than 1.5x. The
// default run checks the report's shape and the deterministic plan-cache hit
// rate; the latency ratios are asserted only under MPSM_PERF_ASSERT=1 — as
// the CI bench job does on an otherwise idle step — with one re-measurement,
// since both bounds sit close to a busy machine's noise floor (and a
// single-core runner has an inherent ~N× queueing floor at N clients).
func TestServiceJSONReport(t *testing.T) {
	if testing.Short() {
		t.Skip("the serving report runs a multi-second closed-loop workload")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts the latency ratios the test asserts")
	}
	const maxP99VsSolo, maxFairness = 5.0, 1.5

	cfg := Config{Scale: 0.25, Workers: DefaultConfig().Workers}
	rep, err := buildServiceReport(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkServiceReportShape(t, rep)
	if !perfAssert() {
		return // tier-1 checks shape and choice quality only; see perfAssert
	}
	if rep.P99VsSoloP50 > maxP99VsSolo || rep.Fairness > maxFairness {
		// One re-measurement: the strict bounds are latency ratios within a
		// shared runner's noise envelope.
		t.Logf("p99/solo-p50 %.2f (max %.2f), fairness %.2f (max %.2f); re-measuring once",
			rep.P99VsSoloP50, maxP99VsSolo, rep.Fairness, maxFairness)
		rep, err = buildServiceReport(cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkServiceReportShape(t, rep)
	}
	if rep.P99VsSoloP50 > maxP99VsSolo {
		t.Errorf("p99 at %d clients is %.2fx the solo p50, want <= %.2f",
			rep.Clients, rep.P99VsSoloP50, maxP99VsSolo)
	}
	if rep.Fairness > maxFairness {
		t.Errorf("completion fairness max/min = %.2f, want <= %.2f",
			rep.Fairness, maxFairness)
	}
}
