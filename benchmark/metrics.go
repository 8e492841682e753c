package main

import (
	"math"
	"sort"
)

// metricDef names one metric. The two tables below are the benchmark's side
// of the contract in BENCHMARK.json; a test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: the relative worsening that is a regression
	what   string
}

// endToEnd are the gated metrics, the same set on every workload.
//
// ISSUE 11 proposed six. error_rate is not among them because the contract in
// BENCHMARK.json cannot hold a metric whose value is 0: failures are reported
// as the `failed` and `attempted` counts of every run, and any failure fails
// the run. latency_p90_ms and peak_rss_mb did not repeat within their proposed
// bounds on every workload (see README.md), and were demoted, as the issue
// prescribes, to the per-layer metrics client.latency_p90_ms and
// mpsmd.peak_rss_mb; an untraced run still prints them. Latency and
// throughput are gated in units of the calibration kernel (calibrate.go says
// why); their raw forms are the per-layer client.latency_p50_ms and
// client.throughput_qps.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "mpsmd process start → /healthz OK → relations uploaded → warm-up done; median of the run's launches"},
	{"latency_p50_cal", "cal", "lower", 0.25, "client-side HTTP round trip ÷ calibration kernel time around it: median per request class, geometric mean over the classes"},
	{"throughput_per_cal", "1/cal", "higher", 0.25, "verified-correct responses per calibration kernel time spent under load"},
}

// perLayer are the informational metrics of the traced run, `layer.metric`.
// The first group is measured from outside the daemon during the HTTP window;
// the rest times public calls in-process (see layers.go).
var perLayer = []metricDef{
	{"mpsmd.http_overhead_ms", "ms", "lower", 0, "median of client round trip − the response's total_millis"},
	{"mpsmd.build_s", "s", "lower", 0, "go build ./cmd/mpsmd"},
	{"mpsmd.upload_mb_per_s", "MB/s", "higher", 0, "upload body bytes ÷ time in POST /v1/relations"},
	{"client.requests", "count", "higher", 0, "requests attempted in the window"},
	{"client.failed", "count", "lower", 0, "requests that failed or mismatched the oracle"},
	{"client.latency_p50_ms", "ms", "lower", 0, "client-side HTTP round trip, median over the window"},
	{"client.latency_p90_ms", "ms", "lower", 0, "client-side HTTP round trip, 90th percentile over the window"},
	{"client.throughput_qps", "1/s", "higher", 0, "verified-correct responses per second of window"},
	{"host.calibration_ms", "ms", "lower", 0, "the benchmark's calibration kernel, median of 5 calls: how fast the host was during this run"},
	{"mpsmd.peak_rss_mb", "MB", "lower", 0, "VmHWM of the mpsmd process just before SIGTERM"},
	{"service.admitted", "count", "higher", 0, "/v1/stats Admission.Admitted over the window"},
	{"service.queued", "count", "lower", 0, "/v1/stats Admission.Queued over the window"},
	{"service.degraded", "count", "lower", 0, "/v1/stats Degradation.NarrowedQueries over the window"},
	{"service.plancache_hit_rate", "ratio", "higher", 0, "/v1/stats PlanCache hits ÷ lookups over the window"},
	{"memory.pool_hit_rate", "ratio", "higher", 0, "/v1/stats Memory hits ÷ gets over the window"},
	{"planner.choice_pmpsm_share", "ratio", "higher", 0, "share of /v1/join answers run by P-MPSM"},
	{"planner.choice_bmpsm_share", "ratio", "higher", 0, "share of /v1/join answers run by B-MPSM"},
	{"planner.choice_wisconsin_share", "ratio", "higher", 0, "share of /v1/join answers run by the Wisconsin hash join"},
	{"planner.choice_radix_share", "ratio", "higher", 0, "share of /v1/join answers run by the radix hash join"},

	{"query.compile_us", "us", "lower", 0, "mpsm.Compile of the agg2 template"},
	{"stats.collect_us", "us", "lower", 0, "stats.Collect of the public input"},
	{"planner.optimize_us", "us", "lower", 0, "Optimizer.Optimize of a one-join plan, profiles cached"},
	{"service.plancache_hit_us", "us", "lower", 0, "PlanCache.OptimizeKeyed, key present"},
	{"service.plancache_miss_us", "us", "lower", 0, "PlanCache.OptimizeKeyed, key never seen"},
	{"service.admit_us", "us", "lower", 0, "Admission.Admit + Done, no contention"},
	{"service.overhead_us", "us", "lower", 0, "Service.Join − Engine.Join, same pinned join"},
	{"sched.phase_barrier_us", "us", "lower", 0, "Runtime.Phase with an empty body"},
	{"core.pmpsm_total_ms", "ms", "lower", 0, "core.PMPSM Result.Total"},
	{"core.pmpsm_phase1_ms", "ms", "lower", 0, "Result.Phases: sort public chunks"},
	{"core.pmpsm_phase2_ms", "ms", "lower", 0, "Result.Phases: histograms, splitters, scatter"},
	{"core.pmpsm_phase3_ms", "ms", "lower", 0, "Result.Phases: sort private partitions"},
	{"core.pmpsm_phase4_ms", "ms", "lower", 0, "Result.Phases: merge join"},
	{"core.bmpsm_total_ms", "ms", "lower", 0, "core.BMPSM wall time"},
	{"core.pmpsm_speedup_nproc", "ratio", "higher", 0, "P-MPSM at 1 worker ÷ at nproc workers"},
	{"core.pmpsm_worker_imbalance", "ratio", "lower", 0, "max ÷ mean of per-worker phase-4 time"},
	{"partition.split_imbalance", "ratio", "lower", 0, "max ÷ mean of per-worker private tuples"},
	{"partition.histogram_ns_per_tuple", "ns", "lower", 0, "BuildHistogramInto over the private input"},
	{"partition.scatter_ns_per_tuple", "ns", "lower", 0, "Scatter of the private input into nproc partitions"},
	{"sorting.columns_ns_per_tuple", "ns", "lower", 0, "SortColumnsInto on one worker's |S|/nproc chunk"},
	{"sorting.tuples_ns_per_tuple", "ns", "lower", 0, "SortInto on the same chunk"},
	{"mergejoin.columns_ns_per_tuple", "ns", "lower", 0, "JoinColumns, sorted R against the sorted chunk"},
	{"mergejoin.rows_ns_per_tuple", "ns", "lower", 0, "Join (row path) on the same runs"},
	{"mergejoin.band_ns_per_tuple", "ns", "lower", 0, "JoinBand of sorted d and e, width 16"},
	{"hashjoin.wisconsin_total_ms", "ms", "lower", 0, "hashjoin.Wisconsin wall time"},
	{"hashjoin.radix_total_ms", "ms", "lower", 0, "hashjoin.Radix wall time"},
	{"exec.runplan_agg2_ms", "ms", "lower", 0, "Engine.RunPlan of the compiled agg2 template"},
	{"exec.runplan_chain3_ms", "ms", "lower", 0, "Engine.RunPlan of the compiled chain3 template"},
	{"exec.runplan_range_ms", "ms", "lower", 0, "Engine.RunPlan of the compiled range template"},
	{"exec.runplan_band_ms", "ms", "lower", 0, "Engine.RunPlan of the compiled band template"},
	{"sink.groupagg_ns_per_tuple", "ns", "lower", 0, "sink.AggregateTuples(sum) over b"},
	{"batch.select_range_ns_per_key", "ns", "lower", 0, "batch.SelectRange over b's keys, half selected"},
	{"memory.lease_bytes_per_join", "B", "lower", 0, "Result.Scratch.Bytes of one P-MPSM join"},
	{"runtime.allocs_per_join", "count", "lower", 0, "heap objects allocated per pooled P-MPSM join"},
	{"runtime.alloc_bytes_per_join", "B", "lower", 0, "heap bytes allocated per pooled P-MPSM join"},
	{"runtime.gc_pause_ms", "ms", "lower", 0, "GC stop-the-world time per pooled P-MPSM join"},
	{"trace.unattributed_share", "ratio", "lower", 0, "share of a replayed request no leaf span accounts for"},
	{"trace.overhead_ratio", "ratio", "lower", 0, "p50 round trip with client spans on ÷ off"},
}

// median of an unsorted sample; NaN for an empty one.
func median(values []float64) float64 { return percentile(values, 0.5) }

// percentile interpolates linearly between the two nearest ranks.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) computes them (the exclusive method), so
// that -compare judges spread the way the acceptance procedure does. It needs
// at least two values.
func quartiles(values []float64) (q1, q3 float64) {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	n := len(sorted)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return cut(1), cut(3)
}
