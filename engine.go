package mpsm

import (
	"context"
	"errors"
	"iter"
	"sync"
	"weak"

	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/relation"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/sink"
	"repro/internal/stats"
)

// settings is the resolved configuration of an Engine or a single join call:
// the join configuration every join node of a call runs with (core.Options,
// with the D-MPSM disk configuration beside it), and what the engine itself
// decides from — the algorithm, auto-planning and the scratch pool. Every
// option writes its field directly. The serving-layer fields of core.Options
// (Gate, Owner) are set only through the unexported options the Service
// injects; Scratch and KeyCheck are never set here — the plan runner draws
// the scratch pool from scratchFor.
type settings struct {
	core.Options
	disk        core.DiskOptions
	algorithm   Algorithm
	autoPlan    bool
	scratchPool bool
	poolLimit   int64
}

// withGate gates every worker goroutine of the call through the given
// fair-share ticket; the Service sets it per query.
func withGate(t *sched.Ticket) Option {
	return func(s *settings) { s.Gate = t }
}

// withOwner attributes the call's scratch leases to an admission reservation;
// the Service sets it per query.
func withOwner(r *memory.Reservation) Option {
	return func(s *settings) { s.Owner = r }
}

// Option configures an Engine at construction time or overrides the engine's
// configuration for a single Join call.
type Option func(*settings)

// WithAlgorithm selects the join implementation; the default is P-MPSM.
func WithAlgorithm(a Algorithm) Option {
	return func(s *settings) { s.algorithm = a }
}

// WithWorkers sets the degree of parallelism T; 0 selects GOMAXPROCS. It is an
// upper bound where the planner chooses (WithAutoPlan: every join runs on the
// count between 1 and n that the cost model says pays, see Explain), and
// exact with auto-planning off.
func WithWorkers(n int) Option {
	return func(s *settings) { s.Workers = n }
}

// WithKind selects the join semantics (inner, left-outer, semi, anti). The
// non-inner kinds are supported by the B-MPSM and P-MPSM algorithms, where
// they run on the inner join's column runs and merge kernel: a marker in
// front of the sink classifies the private key groups, and every unmatched
// (left-outer, anti) or matched (semi) private tuple reaches the sink paired
// with the zero Tuple.
func WithKind(k JoinKind) Option {
	return func(s *settings) { s.Kind = k }
}

// WithBandWidth turns the join into a non-equi band join: tuples match when
// |R.key − S.key| <= width. Requires an inner join kind and the B-MPSM or
// P-MPSM algorithm.
func WithBandWidth(width uint64) Option {
	return func(s *settings) { s.Band = width }
}

// WithSplitters selects P-MPSM's range-partition balancing strategy.
func WithSplitters(strategy SplitterStrategy) Option {
	return func(s *settings) { s.Splitters = strategy }
}

// WithPerWorkerStats records per-worker phase breakdowns in the Result.
func WithPerWorkerStats() Option {
	return func(s *settings) { s.CollectPerWorker = true }
}

// WithPresortedPublic declares that the public input is already sorted by
// join key, letting the MPSM variants skip its sorting phase (verified per
// chunk, so a false declaration costs only the check).
func WithPresortedPublic() Option {
	return func(s *settings) { s.PresortedPublic = true }
}

// WithPresortedPrivate is WithPresortedPublic for the private input.
func WithPresortedPrivate() Option {
	return func(s *settings) { s.PresortedPrivate = true }
}

// WithNUMATracking enables the simulated NUMA access accounting. An optional
// topology overrides the default 4-node × 8-core machine of the paper's
// evaluation.
func WithNUMATracking(topology ...Topology) Option {
	return func(s *settings) {
		s.TrackNUMA = true
		if len(topology) > 0 {
			s.Topology = topology[0]
		}
	}
}

// WithDisk configures the D-MPSM buffer pool and simulated disk (page size,
// page budget, per-page latency); it is ignored by the other algorithms.
func WithDisk(cfg DiskConfig) Option {
	return func(s *settings) { s.disk = cfg }
}

// WithScheduler selects how the match phase of B-MPSM, P-MPSM and the
// Wisconsin join is scheduled onto workers. Static (the default) is the
// paper-faithful barrier-only mode: every worker joins exactly its own
// private run, and load balance rests on the histogram/CDF splitters. Morsel
// splits the match phase into small morsels that idle workers steal with a
// NUMA-locality preference, closing the per-worker straggler gap that
// splitter estimation errors or value skew leave open. Both modes produce
// identical results. D-MPSM ignores the mode — every worker walks the paper's
// global page index behind one prefetcher — and so does the radix join, which
// always claims its partition pairs dynamically.
func WithScheduler(mode Scheduler) Option {
	return func(s *settings) { s.Scheduler = mode }
}

// WithSink directs the joined tuple stream into the given sink instead of the
// default max-sum aggregate. Sinks are stateful: pass a fresh (or reusable,
// see Sink) sink per Join call, not to New, when the engine runs joins
// concurrently.
func WithSink(snk Sink) Option {
	return func(s *settings) { s.Sink = snk }
}

// WithScratchPool enables (or disables) the engine-wide scratch pool: run,
// partition, histogram and hash-table buffers are checked out of a reusable,
// size-classed arena per join and returned — reset, not freed — when the join
// finishes, making the steady state of a long-lived Engine essentially
// allocation-free. The pool is created at engine construction, so pass this
// to New; as a per-call option it can only disable pooling for that call
// (WithScratchPool(true) on an engine built without a pool is a no-op). The
// pool is guarded for concurrent joins, and it is safe with JoinStream: the
// stream carries tuple values, never references into pooled buffers. Pool
// behaviour is observable via Result.Scratch and Engine.PoolStats.
func WithScratchPool(enabled bool) Option {
	return func(s *settings) { s.scratchPool = enabled }
}

// WithPoolLimit caps the bytes the scratch pool may keep parked between joins
// (buffers beyond the limit are released to the garbage collector); 0 selects
// the default of 512 MiB. It only takes effect together with
// WithScratchPool(true) at engine construction.
func WithPoolLimit(bytes int64) Option {
	return func(s *settings) { s.poolLimit = bytes }
}

// WithAutoPlan enables (or disables) the cost-based planner: a Join,
// JoinStream or RunPlan execution of a plan shape the engine has not seen —
// or whose relations' content changed since (see Engine) — samples
// statistics of the input relations, estimates cardinalities, and rewrites
// the physical plan — join algorithm and worker count per join, join order
// across inner multi-join chains, build/probe roles, presorted-input
// declarations, and a groupjoin for a group-by on the join key where that
// prices cheaper; repeated executions reuse the decisions from the engine's
// plan memo. Explain shows the decisions. Auto-planning overrides a
// configured algorithm (including per-node plan options) and chooses every
// join's worker count up to the configured one: a join it runs on one worker
// runs Static, a wider join runs the configured scheduler. It keeps a caller's
// presorted declarations and respects join kind, band width, and a configured
// D-MPSM (which expresses a memory constraint the cost model cannot see). As
// an engine option it sets the default for every call; as a per-call option
// it overrides that default.
func WithAutoPlan(enabled bool) Option {
	return func(s *settings) { s.autoPlan = enabled }
}

// Engine is a prepared, reusable join engine: construct it once with New and
// run any number of joins against it. The engine itself is immutable and safe
// for concurrent use; per-call state (sinks, results) is created per Join.
// When constructed with WithScratchPool(true) the engine additionally owns a
// scratch pool whose buffers all its joins share (the pool is internally
// synchronized, so this includes concurrent joins). Every call plans through
// the engine's one plan memo, which a Service over the engine shares.
type Engine struct {
	base settings
	pool *memory.Pool

	// memo holds the physical plan of every plan shape the engine has run:
	// Join, JoinWithDiskStats and JoinStream as the one-join plan, RunPlan,
	// Query and the queries of a Service over the engine. Its misses are
	// planned over statsCache, the sampled statistics of every relation seen,
	// keyed through weak pointers so a long-lived engine never pins a
	// transient relation's tuple memory (entries for collected relations
	// linger until the size-bound reset); statsMu guards it.
	//
	// Both are valid for a relation's identity and its content fingerprint
	// (service.Fingerprint: its length and about 64 evenly spaced tuples), so a
	// caller who rewrites a relation in place — even at the same length —
	// gets a fresh profile and a fresh plan on the next call. A rewrite the
	// sample misses reuses the old plan: a stale hit can cost time, never
	// correctness. Every decision a plan carries is safe on any data — the
	// algorithm, worker count, roles, order and schedule change how fast the
	// same result is computed, and a presorted declaration is verified per
	// chunk, falling back to sorting when it is false.
	memo       *service.PlanCache
	statsMu    sync.Mutex
	statsCache map[weak.Pointer[Relation]]statsEntry
}

// statsEntry is one cached relation profile and the fingerprint of the
// content it was sampled from.
type statsEntry struct {
	print uint64
	prof  *stats.Profile
}

// statsCacheLimit bounds the number of cached profiles; beyond it the cache
// resets (profiles are cheap to recompute, the bound only stops unbounded
// growth when an engine sees a stream of distinct relations).
const statsCacheLimit = 1024

// profileFor returns the (cached) sampled statistics of a relation.
func (e *Engine) profileFor(rel *relation.Relation) *stats.Profile {
	key, print := weak.Make(rel), service.Fingerprint(rel)
	e.statsMu.Lock()
	if ent, ok := e.statsCache[key]; ok && ent.print == print {
		e.statsMu.Unlock()
		return ent.prof
	}
	e.statsMu.Unlock()

	prof := stats.Collect(rel)

	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	if e.statsCache == nil || len(e.statsCache) >= statsCacheLimit {
		e.statsCache = make(map[weak.Pointer[Relation]]statsEntry)
	}
	e.statsCache[key] = statsEntry{print: print, prof: prof}
	return prof
}

// New returns an Engine with the given configuration. The zero configuration
// runs P-MPSM inner joins with GOMAXPROCS workers and the max-sum sink.
func New(opts ...Option) *Engine {
	e := &Engine{}
	for _, o := range opts {
		o(&e.base)
	}
	if e.base.scratchPool {
		e.pool = memory.NewPool(e.base.poolLimit)
	}
	e.memo = service.NewPlanCache(e.profileFor, 0)
	return e
}

// PoolStats returns a snapshot of the engine's scratch-pool counters; ok is
// false when the engine was constructed without WithScratchPool.
func (e *Engine) PoolStats() (stats PoolStats, ok bool) {
	if e.pool == nil {
		return PoolStats{}, false
	}
	return e.pool.Stats(), true
}

// resolve merges per-call options over the engine's base configuration.
func (e *Engine) resolve(opts []Option) settings {
	cfg := e.base
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// scratchFor returns the pool one call should use: the engine's pool, unless
// the call (or the engine) runs with pooling disabled.
func (e *Engine) scratchFor(cfg settings) *memory.Pool {
	if !cfg.scratchPool {
		return nil
	}
	return e.pool
}

// joinPlan is the one-join plan every join call runs: the paper's
// pipeline scan(r), scan(s) → join → sink (nil: the built-in max-sum
// aggregate).
func joinPlan(r, s *Relation, snk Sink) *Plan {
	p := NewPlan()
	p.Sink(p.Join(p.Scan(r), p.Scan(s)), snk)
	return p
}

// join runs one join call as the one-join plan.
func (e *Engine) join(ctx context.Context, r, s *Relation, opts []Option) (*PlanJoin, error) {
	pr, err := e.RunPlan(ctx, joinPlan(r, s, e.resolve(opts).Sink), opts...)
	if err != nil {
		return nil, err
	}
	return &pr.Joins[0], nil
}

// Join executes an equi-join between the private input r and the public
// input s, streaming every matching pair into the configured sink (the
// max-sum aggregate by default, whose Matches/MaxSum appear in the Result).
//
// The context is checked at every phase boundary and once per chunk inside
// the sort and merge loops; a canceled context aborts the join and returns
// ctx.Err().
//
// For P-MPSM the private input should be the smaller relation (see the
// paper's role-reversal discussion); Join does not reverse roles
// automatically — unless auto-planning is enabled (WithAutoPlan), which may
// execute the join with the roles reversed when the sink is the commutative
// built-in max-sum aggregate. Per-call options override the engine's
// configuration for this call only.
func (e *Engine) Join(ctx context.Context, r, s *Relation, opts ...Option) (*Result, error) {
	j, err := e.join(ctx, r, s, opts)
	if err != nil {
		return nil, err
	}
	return j.Result, nil
}

// JoinWithDiskStats is Join forced onto the D-MPSM algorithm, additionally
// returning the buffer pool and disk statistics of the execution.
func (e *Engine) JoinWithDiskStats(ctx context.Context, r, s *Relation, opts ...Option) (*Result, *DiskStats, error) {
	// The three-index slice keeps the append off the caller's backing array:
	// concurrent calls may share opts.
	j, err := e.join(ctx, r, s, append(opts[:len(opts):len(opts)], WithAlgorithm(DMPSM)))
	if err != nil {
		return nil, nil, err
	}
	return j.Result, j.Disk, nil
}

// JoinStream executes the join as a streaming iterator over the joined
// (r, s) tuple pairs, for use with range-over-func:
//
//	seq, errf := engine.JoinStream(ctx, r, s)
//	for rt, st := range seq {
//	    ... // breaking out cancels the join
//	}
//	if err := errf(); err != nil { ... }
//
// The join runs concurrently with the consumer; pairs arrive in an
// unspecified order. Breaking out of the loop cancels the underlying join
// and is not an error. The error function reports the join's outcome and
// must be called after the loop; ranging the sequence a second time re-runs
// the join. A WithSink option is ignored — the stream is the sink.
func (e *Engine) JoinStream(ctx context.Context, r, s *Relation, opts ...Option) (iter.Seq2[Tuple, Tuple], func() error) {
	var streamErr error
	seq := func(yield func(Tuple, Tuple) bool) {
		streamCtx, cancel := context.WithCancel(ctx)
		defer cancel()

		type pair struct{ r, s Tuple }
		ch := make(chan pair, 1024)
		errc := make(chan error, 1)
		go func() {
			defer close(ch)
			snk := sink.NewFunc(func(rt, st relation.Tuple) {
				select {
				case ch <- pair{rt, st}:
				case <-streamCtx.Done():
				}
			})
			// Three-index slice: never append into the caller's backing array.
			_, err := e.join(streamCtx, r, s, append(opts[:len(opts):len(opts)], WithSink(snk)))
			errc <- err
		}()

		broke := false
		for p := range ch {
			if !yield(p.r, p.s) {
				broke = true
				cancel()
				break
			}
		}
		if broke {
			// Wait for the producer to observe the cancellation and drain
			// whatever it already buffered.
			for range ch {
			}
		}
		err := <-errc
		if broke && errors.Is(err, context.Canceled) && ctx.Err() == nil {
			// The consumer stopped early; the resulting self-cancellation is
			// normal stream termination, not a failure.
			err = nil
		}
		streamErr = err
	}
	return seq, func() error { return streamErr }
}
