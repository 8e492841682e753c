// Package result defines the common result and phase-timing representation
// shared by every join algorithm in this repository. Benchmarks and the
// experiment harness rely on it to print the per-phase breakdowns the paper's
// figures are built from (run generation, partitioning, sorting, joining for
// MPSM; build and probe for the hash joins).
package result

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/memory"
	"repro/internal/numa"
)

// Phase is a single timed phase of a join algorithm.
type Phase struct {
	// Name identifies the phase, e.g. "phase 1 (sort S)" or "build".
	Name string
	// Duration is the wall-clock time of the phase across all workers
	// (workers run concurrently, so this is the elapsed time of the
	// slowest worker, not the sum).
	Duration time.Duration
}

// WorkerBreakdown records the per-phase durations and work counters of a
// single worker. The Figure 16 experiments use it to show how skew unbalances
// individual workers and how the splitter computation restores balance.
type WorkerBreakdown struct {
	// Worker is the worker index.
	Worker int
	// Phases holds this worker's own durations, in algorithm phase order.
	Phases []Phase
	// PrivateTuples is the number of private-input (R) tuples assigned to
	// this worker after partitioning.
	PrivateTuples int
	// PublicScanned is the number of public-input (S) tuples this worker
	// scanned during the join phase.
	PublicScanned int
	// Matches is the number of join results this worker produced.
	Matches uint64
}

// BatchStats reports how much of the join output flowed through the columnar
// batch fast path: Batches is the number of batches delivered to the sink —
// range batches of the merge kernel taken whole by a sink that folds them,
// or column batches of expanded pairs — and Tuples the number of result
// pairs they stood for. Both are zero when every pair was delivered one by
// one (D-MPSM; a band join or a semi/anti classification into a sink that
// takes no ranges), so the counters double as a cheap assertion that the
// batch plumbing was actually exercised.
type BatchStats struct {
	// Batches is the number of range or column batches delivered.
	Batches uint64
	// Tuples is the number of result pairs those batches stood for.
	Tuples uint64
}

// Result describes the outcome of one join execution.
type Result struct {
	// Algorithm names the join implementation, e.g. "P-MPSM" or
	// "Wisconsin hash join".
	Algorithm string
	// Workers is the degree of parallelism used.
	Workers int

	// Matches is the join cardinality (number of matching tuple pairs).
	Matches uint64
	// MaxSum is the result of the paper's evaluation query
	// max(R.payload + S.payload); only meaningful if Matches > 0.
	MaxSum uint64

	// Phases is the elapsed-time breakdown by algorithm phase.
	Phases []Phase
	// Total is the end-to-end elapsed time of the join.
	Total time.Duration

	// PerWorker optionally holds per-worker phase breakdowns (used by the
	// skew experiments); nil when not collected.
	PerWorker []WorkerBreakdown

	// PublicScanned is the total number of public-input (S) tuples scanned
	// during the join phase, summed over workers. It exposes the |S| vs
	// |S|/T complexity difference between B-MPSM and P-MPSM.
	PublicScanned int

	// Batch reports the traffic of the columnar batch fast path; all zeros
	// when the join ran row at a time.
	Batch BatchStats

	// Scratch reports the join's scratch-pool traffic (buffers requested,
	// buffers served from the pool, bytes handed out); all zeros when the
	// engine ran without a scratch pool.
	Scratch memory.LeaseStats

	// NUMA aggregates the simulated NUMA access statistics of all workers.
	NUMA numa.AccessStats
	// SimulatedNUMACost is the duration the NUMA cost model assigns to the
	// recorded accesses; zero when NUMA tracking was disabled.
	SimulatedNUMACost time.Duration
}

// PhaseDuration returns the duration of the named phase, or zero if absent.
func (r *Result) PhaseDuration(name string) time.Duration {
	for _, p := range r.Phases {
		if p.Name == name {
			return p.Duration
		}
	}
	return 0
}

// AddPhase appends a phase to the breakdown.
func (r *Result) AddPhase(name string, d time.Duration) {
	r.Phases = append(r.Phases, Phase{Name: name, Duration: d})
}

// String renders a compact single-line summary.
func (r *Result) String() string {
	var phases []string
	for _, p := range r.Phases {
		phases = append(phases, fmt.Sprintf("%s=%s", p.Name, p.Duration.Round(time.Microsecond)))
	}
	return fmt.Sprintf("%s[T=%d] total=%s matches=%d max=%d (%s)",
		r.Algorithm, r.Workers, r.Total.Round(time.Microsecond), r.Matches, r.MaxSum, strings.Join(phases, " "))
}

// StopwatchPhase measures one phase: it invokes fn and returns its duration.
func StopwatchPhase(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}
