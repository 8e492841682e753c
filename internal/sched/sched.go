// Package sched is the shared parallel runtime of the join algorithms: one
// place that owns worker goroutines, phase barriers, per-worker timing and
// NUMA bookkeeping, and cancellation checks, so that the individual
// algorithms contain only their data movement and kernels.
//
// The runtime offers two execution primitives:
//
//   - Phase runs one function per worker and waits for all of them — the
//     barrier-only synchronization the paper's commandment C3 prescribes.
//     Work is assigned statically (worker w processes chunk/run w), which is
//     the paper-faithful Static scheduling mode.
//   - RunTasks drains a queue of morsels: small, independent units of join
//     work that idle workers steal dynamically. Workers prefer morsels whose
//     data lives on their own NUMA node and steal remote ones only when
//     their node's queue is empty. This is the Morsel scheduling mode; it
//     trades a single shared queue (a deliberate, small C3 violation) for
//     resilience against estimation errors and value skew that static
//     splitters cannot fully balance.
//
// Both primitives record per-worker phase durations and feed the per-worker
// breakdowns and NUMA statistics of the Result.
package sched

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/numa"
	"repro/internal/result"
)

// Panic policy. A panic that reaches a worker goroutine would kill the whole
// process, so the runtime draws the failure domain at the query: Phase and
// RunTasks recover panics, capture the stack, poison the barrier (canceling
// the phase-scoped context so sibling workers unwind at their existing
// cancellation checks), and surface the first panic as a *PanicError from
// Runtime.Err, which the algorithms turn into a returned error at the next
// phase boundary. Conditions a caller can trigger through the public API —
// unknown algorithms or schedulers, invalid join kinds, out-of-range worker
// counts — must be rejected with returned errors by exec's plan validation
// before execution starts; `panic` below that boundary is reserved for
// genuine programmer-error invariants (histogram length mismatches, split
// counts the normalization layer guarantees, unreachable switch arms), and
// this recovery layer is the backstop that keeps even those contained to the
// query that hit them.

// Mode selects how join-phase work is mapped onto workers.
type Mode int

const (
	// Static assigns work up front — worker w owns run/chunk w — and
	// synchronizes only at phase barriers, exactly as the paper prescribes
	// (commandment C3). Load balance rests entirely on the histogram/CDF
	// splitters. This is the default.
	Static Mode = iota
	// Morsel splits the match phase into small (private-segment,
	// public-run) morsels that idle workers steal from a locality-aware
	// queue. Estimation errors and value skew no longer leave workers
	// idle, at the price of one shared queue (a small, deliberate C3
	// violation confined to task dispatch).
	Morsel
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Static:
		return "static"
	case Morsel:
		return "morsel"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Valid reports whether m is a known scheduling mode.
func (m Mode) Valid() bool { return m == Static || m == Morsel }

// ParseMode converts a scheduling-mode name into a Mode. Matching is
// case-insensitive, so the String() forms round-trip.
func ParseMode(name string) (Mode, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "static":
		return Static, nil
	case "morsel", "morsels", "dynamic":
		return Morsel, nil
	default:
		return 0, fmt.Errorf("sched: unknown scheduling mode %q", name)
	}
}

// DefaultMorselSize is the default number of tuples per morsel. 8192 tuples
// (128 KiB of 16-byte tuples) amortize the dispatch cost while still
// producing enough morsels to balance skewed runs.
const DefaultMorselSize = 8192

// Config configures a Runtime.
type Config struct {
	// Workers is the degree of parallelism; 0 selects GOMAXPROCS.
	Workers int
	// Topology is the simulated NUMA topology workers are spread over; the
	// zero value selects the default 4-node × 8-core machine.
	Topology numa.Topology
	// TrackNUMA equips every worker with a NUMA access tracker.
	TrackNUMA bool
	// Gate, when non-nil, makes every execution unit — a whole worker phase
	// under Static, each morsel under Morsel — acquire a fair-share slot from
	// the ticket's arbiter before running, so concurrent queries sharing one
	// FairShare interleave by weighted fair queueing instead of FIFO.
	Gate *Ticket
	// Label identifies the query in PanicError reports (typically the
	// service's per-query label); empty is fine for standalone joins.
	Label string
	// Faults, when non-nil, arms deterministic fault injection inside the
	// runtime's workers (WorkerPanic, MorselStall).
	Faults *faultinject.Set
}

// PanicError reports a panic recovered during a query's execution: which
// query, which phase, which worker (or -1 for the coordinating goroutine),
// the recovered value and the stack captured at the panic site. It is the
// error the engine returns for the panicking query; sibling queries and the
// process are unaffected.
type PanicError struct {
	Query  string
	Phase  string
	Worker int
	Value  any
	Stack  []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	who := fmt.Sprintf("worker %d", e.Worker)
	if e.Worker < 0 {
		who = "coordinator"
	}
	query := e.Query
	if query == "" {
		query = "query"
	}
	return fmt.Sprintf("sched: recovered panic on %s in phase %q of %s: %v", who, e.Phase, query, e.Value)
}

// Unwrap exposes the panic value when it is itself an error (injected faults
// are), so errors.Is/As reach through.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// Recovered wraps a value recovered outside the runtime's workers — the
// coordinator-side recover in exec uses it with worker -1. It captures the
// stack, so it must be called directly from the deferred recover.
func Recovered(query, phase string, worker int, v any) *PanicError {
	return &PanicError{Query: query, Phase: phase, Worker: worker, Value: v, Stack: debug.Stack()}
}

// Worker is the per-worker state the runtime hands to phase functions and
// tasks: identity, NUMA home node, the access tracker (when enabled), and
// the per-phase time breakdown.
type Worker struct {
	id        int
	node      int
	tracker   *numa.Tracker
	phaseTime map[string]time.Duration
}

// ID returns the worker index in [0, Workers).
func (w *Worker) ID() int { return w.id }

// Node returns the worker's home NUMA node.
func (w *Worker) Node() int { return w.node }

// Tracker returns the worker's NUMA access tracker, or nil when tracking is
// disabled.
func (w *Worker) Tracker() *numa.Tracker { return w.tracker }

// Record adds a duration to the worker's breakdown for the named phase. The
// runtime calls it automatically for Phase and RunTasks; algorithms may call
// it for work they time themselves. It must only be called from the worker's
// own goroutine (or after the phase barrier).
func (w *Worker) Record(phase string, d time.Duration) {
	w.phaseTime[phase] += d
}

// Runtime owns the worker pool of one join execution. It is created per join
// (workers are plain goroutines, so creation is cheap) and collects the
// per-worker timing and NUMA state that the join's Result reports.
type Runtime struct {
	workers int
	topo    numa.Topology
	states  []*Worker
	gate    *Ticket
	label   string
	faults  *faultinject.Set

	failMu  sync.Mutex
	failure *PanicError
}

// New creates a runtime with one worker state per worker.
func New(cfg Config) *Runtime {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	topo := cfg.Topology
	if topo.Nodes == 0 {
		topo = numa.DefaultTopology()
	}
	rt := &Runtime{
		workers: workers,
		topo:    topo,
		states:  make([]*Worker, workers),
		gate:    cfg.Gate,
		label:   cfg.Label,
		faults:  cfg.Faults,
	}
	for w := 0; w < workers; w++ {
		rt.states[w] = &Worker{
			id:        w,
			node:      topo.NodeOfWorker(w),
			phaseTime: make(map[string]time.Duration),
		}
		if cfg.TrackNUMA {
			rt.states[w].tracker = numa.NewTracker(topo, w)
		}
	}
	return rt
}

// Workers returns the degree of parallelism.
func (rt *Runtime) Workers() int { return rt.workers }

// Worker returns the state of worker w.
func (rt *Runtime) Worker(w int) *Worker { return rt.states[w] }

// Err returns the first panic recovered from any worker of this runtime as a
// *PanicError, or nil. Once non-nil the runtime is poisoned: subsequent
// Phase and RunTasks calls return without running anything, so the algorithm
// falls through to its next phase-boundary error check.
func (rt *Runtime) Err() error {
	rt.failMu.Lock()
	defer rt.failMu.Unlock()
	if rt.failure == nil {
		return nil
	}
	return rt.failure
}

// poison records the first recovered panic and cancels the phase so sibling
// workers unwind. It must be called from the panicking goroutine's deferred
// recover so the stack identifies the panic site.
func (rt *Runtime) poison(phase string, worker int, v any, cancel context.CancelFunc) {
	stack := debug.Stack()
	rt.failMu.Lock()
	if rt.failure == nil {
		rt.failure = &PanicError{Query: rt.label, Phase: phase, Worker: worker, Value: v, Stack: stack}
	}
	rt.failMu.Unlock()
	cancel()
}

// Canceled reports whether the context has been canceled, without blocking.
// It is the one cancellation poll of the repository: the runtime's phases and
// task queue, the MPSM merge loops and the hash-join build and probe loops
// all call it at chunk boundaries, so a canceled join stops within one chunk
// of work per worker.
func Canceled(ctx context.Context) bool {
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}

// Phase runs fn once per worker concurrently and waits for all of them: a
// phase barrier. Each worker's elapsed time is recorded under the phase name
// (calling Phase repeatedly with the same name accumulates). Workers whose
// fn has not started when the context is canceled skip it; fn is expected to
// poll Canceled at its own chunk granularity. The returned duration is the
// wall-clock time of the whole phase.
func (rt *Runtime) Phase(ctx context.Context, name string, fn func(ctx context.Context, w *Worker)) time.Duration {
	return result.StopwatchPhase(func() {
		if rt.Err() != nil {
			return // poisoned by an earlier phase; nothing more may run
		}
		// Each phase gets a derived context so that poisoning cancels only
		// this query's siblings, not the caller's context.
		pctx, cancel := context.WithCancel(ctx)
		defer cancel()
		rt.fanOut(func(w *Worker) {
			if Canceled(pctx) {
				return
			}
			if err := rt.gate.Acquire(pctx); err != nil {
				return
			}
			t0 := time.Now()
			// The gate slot is released in the same deferred function
			// that recovers: a panicking worker must not strand a
			// fair-share slot, or sibling queries' workers block forever.
			defer func() {
				d := time.Since(t0)
				rt.gate.Release(d)
				if r := recover(); r != nil {
					rt.poison(name, w.id, r, cancel)
					return
				}
				w.Record(name, d)
			}()
			rt.faults.Panic(faultinject.WorkerPanic)
			fn(pctx, w)
		})
	})
}

// fanOut runs body once per worker and waits for all of them. The last
// worker runs on the calling goroutine, which would otherwise only park until
// the others are done: a phase starts one goroutine fewer and its barrier is a
// wake-up shorter, and a one-worker phase is a plain call. body must recover
// its own panics.
func (rt *Runtime) fanOut(body func(w *Worker)) {
	last := len(rt.states) - 1
	var wg sync.WaitGroup
	wg.Add(last)
	for _, w := range rt.states[:last] {
		go func() {
			defer wg.Done()
			body(w)
		}()
	}
	body(rt.states[last])
	wg.Wait()
}

// Task is one morsel of join work: an independent unit any worker may
// execute on behalf of the data's owner.
type Task struct {
	// Node is the NUMA node the task's data (typically its private-run
	// segment) lives on; workers prefer tasks local to their own node and
	// steal remote ones only when idle. A negative node means no
	// preference.
	Node int
	// Run executes the task. It runs on the stealing worker's goroutine
	// and must confine all mutable state to that worker (sink writers,
	// counters and trackers are per-worker, so indexing them by w.ID() is
	// safe).
	Run func(w *Worker)
}

// RunTasks drains the task queue with all workers and waits until every task
// has run (or the context is canceled): the morsel-driven counterpart of
// Phase. Each worker's busy time — the sum of its executed task durations —
// is recorded under the phase name, which is what exposes how evenly the
// queue balanced the phase. The returned duration is the wall-clock time of
// the whole phase.
func (rt *Runtime) RunTasks(ctx context.Context, name string, tasks []Task) time.Duration {
	q := newTaskQueue(rt.topo.Nodes, tasks)
	return result.StopwatchPhase(func() {
		if rt.Err() != nil {
			return // poisoned by an earlier phase; nothing more may run
		}
		pctx, cancel := context.WithCancel(ctx)
		defer cancel()
		rt.fanOut(func(w *Worker) {
			var busy time.Duration
			defer func() {
				w.Record(name, busy)
				if r := recover(); r != nil {
					rt.poison(name, w.id, r, cancel)
				}
			}()
			for {
				if Canceled(pctx) {
					break
				}
				if err := rt.gate.Acquire(pctx); err != nil {
					break
				}
				task, ok := q.pop(w.node)
				if !ok {
					rt.gate.Release(0)
					break
				}
				rt.faults.Stall(faultinject.MorselStall)
				t0 := time.Now()
				// The inner closure releases the gate slot even when the
				// task panics; the panic then unwinds into the recover
				// above, which poisons the phase.
				func() {
					defer func() {
						d := time.Since(t0)
						busy += d
						rt.gate.Release(d)
					}()
					rt.faults.Panic(faultinject.WorkerPanic)
					task.Run(w)
				}()
				// Yield between morsels so that co-scheduled workers
				// get to steal even when the machine has fewer cores
				// than workers; without this, one goroutine could
				// drain the whole queue between preemption points.
				runtime.Gosched()
			}
		})
	})
}

// ForEachSegment invokes fn(lo, hi) for every contiguous segment of at most
// size elements of an n-element sequence, in order. It is the shared
// morsel-slicing arithmetic of the task builders; a non-positive size
// selects DefaultMorselSize.
func ForEachSegment(n, size int, fn func(lo, hi int)) {
	if size <= 0 {
		size = DefaultMorselSize
	}
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		fn(lo, hi)
	}
}

// Breakdowns converts the per-worker phase times into the result
// representation over the given phases — a result's, typically — in their
// order. Callers fill in the per-worker work counters themselves.
func (rt *Runtime) Breakdowns(phases []result.Phase) []result.WorkerBreakdown {
	out := make([]result.WorkerBreakdown, rt.workers)
	for i, w := range rt.states {
		bd := result.WorkerBreakdown{Worker: w.id}
		for _, p := range phases {
			bd.Phases = append(bd.Phases, result.Phase{Name: p.Name, Duration: w.phaseTime[p.Name]})
		}
		out[i] = bd
	}
	return out
}

// NUMAStats merges the access statistics of all workers; it returns the zero
// value when tracking is disabled.
func (rt *Runtime) NUMAStats() numa.AccessStats {
	trackers := make([]*numa.Tracker, rt.workers)
	for i, w := range rt.states {
		trackers[i] = w.tracker
	}
	return numa.MergeStats(trackers)
}

// taskQueue is the locality-aware morsel queue: one FIFO list per NUMA node
// plus one for tasks without placement. A single mutex guards all lists —
// morsels are thousands of tuples of work, so the queue is not a hot spot,
// and the simplicity keeps the dispatch logic obviously correct.
type taskQueue struct {
	mu sync.Mutex
	// byNode[n] holds the pending tasks preferring node n; the final slot
	// holds tasks with no preference.
	byNode    [][]Task
	remaining int
}

// newTaskQueue buckets the tasks by preferred node.
func newTaskQueue(nodes int, tasks []Task) *taskQueue {
	if nodes < 1 {
		nodes = 1
	}
	q := &taskQueue{byNode: make([][]Task, nodes+1), remaining: len(tasks)}
	for _, t := range tasks {
		slot := nodes
		if t.Node >= 0 && t.Node < nodes {
			slot = t.Node
		}
		q.byNode[slot] = append(q.byNode[slot], t)
	}
	return q
}

// pop removes the next task for a worker homed on the given node: local
// tasks first, then unplaced tasks, then stealing from the other nodes in
// round-robin order. It returns false when the queue is empty.
func (q *taskQueue) pop(node int) (Task, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.remaining == 0 {
		return Task{}, false
	}
	nodes := len(q.byNode) - 1
	if node < 0 || node >= nodes {
		node = 0
	}
	if t, ok := q.popFrom(node); ok {
		return t, true
	}
	if t, ok := q.popFrom(nodes); ok { // unplaced tasks
		return t, true
	}
	for i := 1; i < nodes; i++ {
		if t, ok := q.popFrom((node + i) % nodes); ok {
			return t, true
		}
	}
	return Task{}, false
}

// popFrom removes the head of one bucket; the caller holds the lock.
func (q *taskQueue) popFrom(slot int) (Task, bool) {
	list := q.byNode[slot]
	if len(list) == 0 {
		return Task{}, false
	}
	t := list[0]
	q.byNode[slot] = list[1:]
	q.remaining--
	return t, true
}
