package mpsm

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"sync"
	"weak"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/memory"
	"repro/internal/planner"
	"repro/internal/relation"
	"repro/internal/sched"
	"repro/internal/sink"
	"repro/internal/stats"
)

// settings is the resolved configuration of an Engine or a single join call.
type settings struct {
	algorithm        Algorithm
	kind             JoinKind
	band             uint64
	workers          int
	splitters        SplitterStrategy
	histogramBits    int
	collectPerWorker bool
	presortedPublic  bool
	presortedPrivate bool
	trackNUMA        bool
	topology         Topology
	disk             DiskConfig
	sink             Sink
	scheduler        Scheduler
	morselSize       int
	batchSize        int
	scratchPool      bool
	poolLimit        int64
	autoPlan         bool

	// Serving-layer plumbing, set only through the unexported options the
	// Service injects: the fair-share ticket the query's workers are gated
	// by, and the admission reservation its scratch leases are attributed to.
	gate  *sched.Ticket
	owner *memory.Reservation

	// faults arms deterministic fault injection (WithFaultInjection); nil
	// injects nothing.
	faults *faultinject.Set
}

// withGate gates every worker goroutine of the call through the given
// fair-share ticket; the Service sets it per query.
func withGate(t *sched.Ticket) Option {
	return func(s *settings) { s.gate = t }
}

// withOwner attributes the call's scratch leases to an admission reservation;
// the Service sets it per query.
func withOwner(r *memory.Reservation) Option {
	return func(s *settings) { s.owner = r }
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
	return func(s *settings) { s.workers = n }
}

// WithKind selects the join semantics (inner, left-outer, semi, anti). The
// non-inner kinds are supported by the B-MPSM and P-MPSM algorithms, where
// they run on the inner join's column runs and merge kernel: a marker in
// front of the sink classifies the private key groups, and every unmatched
// (left-outer, anti) or matched (semi) private tuple reaches the sink paired
// with the zero Tuple.
func WithKind(k JoinKind) Option {
	return func(s *settings) { s.kind = k }
}

// WithBandWidth turns the join into a non-equi band join: tuples match when
// |R.key − S.key| <= width. Requires an inner join kind and the B-MPSM or
// P-MPSM algorithm.
func WithBandWidth(width uint64) Option {
	return func(s *settings) { s.band = width }
}

// WithSplitters selects P-MPSM's range-partition balancing strategy.
func WithSplitters(strategy SplitterStrategy) Option {
	return func(s *settings) { s.splitters = strategy }
}

// WithHistogramBits sets the granularity of P-MPSM's private-input histogram
// (2^bits clusters); 0 selects the default of 10.
func WithHistogramBits(bits int) Option {
	return func(s *settings) { s.histogramBits = bits }
}

// WithPerWorkerStats records per-worker phase breakdowns in the Result.
func WithPerWorkerStats() Option {
	return func(s *settings) { s.collectPerWorker = true }
}

// WithPresortedPublic declares that the public input is already sorted by
// join key, letting the MPSM variants skip its sorting phase (verified per
// chunk, so a false declaration costs only the check).
func WithPresortedPublic() Option {
	return func(s *settings) { s.presortedPublic = true }
}

// WithPresortedPrivate is WithPresortedPublic for the private input.
func WithPresortedPrivate() Option {
	return func(s *settings) { s.presortedPrivate = true }
}

// WithNUMATracking enables the simulated NUMA access accounting. An optional
// topology overrides the default 4-node × 8-core machine of the paper's
// evaluation.
func WithNUMATracking(topology ...Topology) Option {
	return func(s *settings) {
		s.trackNUMA = true
		if len(topology) > 0 {
			s.topology = topology[0]
		}
	}
}

// WithDisk configures the D-MPSM buffer pool and simulated disk; it is
// ignored by the other algorithms.
func WithDisk(cfg DiskConfig) Option {
	return func(s *settings) { s.disk = cfg }
}

// WithScheduler selects how the match phase is scheduled onto workers.
// Static (the default) is the paper-faithful barrier-only mode: every worker
// joins exactly its own private run, and load balance rests on the
// histogram/CDF splitters. Morsel splits the match phase into small morsels
// that idle workers steal with a NUMA-locality preference, closing the
// per-worker straggler gap that splitter estimation errors or value skew
// leave open. Both modes produce identical results.
func WithScheduler(mode Scheduler) Option {
	return func(s *settings) { s.scheduler = mode }
}

// WithMorselSize sets the number of private-run tuples per morsel used by
// the Morsel scheduler in the in-memory match phases (B-MPSM, P-MPSM and
// the hash-join baselines); 0 selects the default (8192). Smaller morsels
// balance better but pay more dispatch overhead. D-MPSM's disk-paged match
// phase always uses whole (private-run, public-run) pairs as its morsels
// and ignores this setting.
func WithMorselSize(tuples int) Option {
	return func(s *settings) { s.morselSize = tuples }
}

// WithBatchSize sets the batch size of the merge output of B-MPSM and P-MPSM.
// Both run every join — whatever its kind or band — on sorted key/payload
// column runs, and the merge kernel emits one range entry per matching key
// group, folded whole by the aggregating sinks and expanded into column
// batches for the others, n entries at a time. n <= 0 (the default) selects
// the built-in size of 1024. D-MPSM and the hash-join baselines ignore it
// (the hash joins always batch their probe output). Results do not depend on
// n; Result.Batch reports the batch traffic.
func WithBatchSize(n int) Option {
	return func(s *settings) { s.batchSize = n }
}

// WithSink directs the joined tuple stream into the given sink instead of the
// default max-sum aggregate. Sinks are stateful: pass a fresh (or reusable,
// see Sink) sink per Join call, not to New, when the engine runs joins
// concurrently.
func WithSink(snk Sink) Option {
	return func(s *settings) { s.sink = snk }
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

// WithAutoPlan enables (or disables) the cost-based planner: before every
// Join, JoinStream or RunPlan execution the engine samples statistics of the
// input relations (cached across calls), estimates cardinalities, and
// rewrites the physical plan — join algorithm and worker count per join, join
// order across inner multi-join chains, build/probe roles, Static vs Morsel
// scheduling, presorted-input declarations, and the aggregation strategy. Explain shows
// the decisions. Auto-planning overrides a configured algorithm and
// scheduler (including per-node plan options) and chooses every join's worker
// count up to the configured one; it respects join kind, band width, and a
// configured D-MPSM (which expresses a memory constraint the cost model
// cannot see). As an engine option it sets the
// default for every call; as a per-call option it overrides that default.
func WithAutoPlan(enabled bool) Option {
	return func(s *settings) { s.autoPlan = enabled }
}

// Engine is a prepared, reusable join engine: construct it once with New and
// run any number of joins against it. The engine itself is immutable and safe
// for concurrent use; per-call state (sinks, results) is created per Join.
// When constructed with WithScratchPool(true) the engine additionally owns a
// scratch pool whose buffers all its joins share (the pool is internally
// synchronized, so this includes concurrent joins).
type Engine struct {
	base settings
	pool *memory.Pool

	// statsMu guards statsCache, the per-relation statistics profiles the
	// auto-planner samples (keyed by relation identity, invalidated when the
	// cardinality changes; the join algorithms never mutate their inputs),
	// and planCache, the memoized single-join planner decisions. Both caches
	// key relations through weak pointers so a long-lived engine never
	// pins a transient relation's tuple memory; entries for collected
	// relations linger only until the size-bound reset.
	statsMu    sync.Mutex
	statsCache map[weak.Pointer[Relation]]statsEntry
	planCache  map[planKey]planner.Choice
}

// planKey identifies one single-join planning problem: the input relations
// (by identity and cardinality) and every configuration facet the planner's
// decision depends on.
type planKey struct {
	r, s       weak.Pointer[Relation]
	rLen, sLen int
	configured Algorithm
	kind       JoinKind
	band       uint64
	workers    int
	symmetric  bool
	folds      bool
}

// statsEntry is one cached relation profile.
type statsEntry struct {
	len  int
	prof *stats.Profile
}

// statsCacheLimit bounds the number of cached profiles; beyond it the cache
// resets (profiles are cheap to recompute, the bound only stops unbounded
// growth when an engine sees a stream of distinct relations).
const statsCacheLimit = 1024

// profileFor returns the (cached) sampled statistics of a relation.
func (e *Engine) profileFor(rel *relation.Relation) *stats.Profile {
	key := weak.Make(rel)
	e.statsMu.Lock()
	if ent, ok := e.statsCache[key]; ok && ent.len == rel.Len() {
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
	e.statsCache[key] = statsEntry{len: rel.Len(), prof: prof}
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

// coreOptions projects the resolved configuration onto the join options.
func (cfg settings) coreOptions(pool *memory.Pool) core.Options {
	return core.Options{
		Sink:             cfg.sink,
		Workers:          cfg.workers,
		Kind:             cfg.kind,
		Band:             cfg.band,
		HistogramBits:    cfg.histogramBits,
		Splitters:        cfg.splitters,
		CollectPerWorker: cfg.collectPerWorker,
		PresortedPublic:  cfg.presortedPublic,
		PresortedPrivate: cfg.presortedPrivate,
		TrackNUMA:        cfg.trackNUMA,
		Topology:         cfg.topology,
		Scheduler:        cfg.scheduler,
		MorselSize:       cfg.morselSize,
		BatchSize:        cfg.batchSize,
		Scratch:          pool,
		Owner:            cfg.owner,
		Gate:             cfg.gate,
		Faults:           cfg.faults,
	}
}

// diskOptions projects the resolved configuration onto the D-MPSM options.
func (cfg settings) diskOptions() core.DiskOptions {
	return core.DiskOptions{
		PageSize:         cfg.disk.PageSize,
		PageBudget:       cfg.disk.PageBudget,
		PrefetchDistance: cfg.disk.PrefetchDistance,
		ReadLatency:      cfg.disk.ReadLatency,
		WriteLatency:     cfg.disk.WriteLatency,
	}
}

// query assembles the exec query for one join call.
func (cfg settings) query(r, s *Relation, pool *memory.Pool) exec.Query {
	return exec.Query{
		R:           r,
		S:           s,
		Algorithm:   cfg.algorithm,
		JoinOptions: cfg.coreOptions(pool),
		DiskOptions: cfg.diskOptions(),
	}
}

// run executes one join call end to end.
func (e *Engine) run(ctx context.Context, r, s *Relation, opts []Option) (*exec.QueryResult, error) {
	if r == nil || s == nil {
		return nil, fmt.Errorf("mpsm: Join requires non-nil relations")
	}
	cfg := e.resolve(opts)
	if cfg.autoPlan {
		cfg, r, s = e.autoJoin(cfg, r, s)
	}
	return exec.Run(ctx, cfg.query(r, s, e.scratchFor(cfg)))
}

// autoJoin applies the cost-based planner to a single-join call: the input
// profiles choose the algorithm, the worker count up to the configured one,
// scheduling mode, presorted declarations and, when the sink is the
// commutative built-in max-sum aggregate, the build/probe roles. Decisions are memoized per (inputs, configuration), so
// an engine serving the same join repeatedly plans it once.
func (e *Engine) autoJoin(cfg settings, r, s *Relation) (settings, *Relation, *Relation) {
	to := planner.Consumer{Folds: sink.FoldsRanges(cfg.sink)}
	key := planKey{
		r: weak.Make(r), s: weak.Make(s), rLen: r.Len(), sLen: s.Len(),
		configured: cfg.algorithm, kind: cfg.kind, band: cfg.band,
		workers: cfg.workers, symmetric: cfg.sink == nil, folds: to.Folds,
	}
	e.statsMu.Lock()
	ch, ok := e.planCache[key]
	e.statsMu.Unlock()
	if !ok {
		ch = planner.ChooseJoin(e.profileFor(r), e.profileFor(s), planner.Constraints{
			Configured:        cfg.algorithm,
			Kind:              cfg.kind,
			Band:              cfg.band,
			Workers:           cfg.workers,
			SymmetricConsumer: cfg.sink == nil,
			Consumer:          to,
		}, planner.DefaultCostModel())
		e.statsMu.Lock()
		if e.planCache == nil || len(e.planCache) >= statsCacheLimit {
			e.planCache = make(map[planKey]planner.Choice)
		}
		e.planCache[key] = ch
		e.statsMu.Unlock()
	}

	userPriv, userPub := cfg.presortedPrivate, cfg.presortedPublic
	cfg.algorithm = ch.Algorithm
	cfg.workers = ch.Workers
	cfg.scheduler = ch.Scheduler
	if ch.MorselSize > 0 {
		cfg.morselSize = ch.MorselSize
	}
	if ch.Swap {
		r, s = s, r
		userPriv, userPub = userPub, userPriv
	}
	cfg.presortedPrivate = ch.PresortedPrivate || userPriv
	cfg.presortedPublic = ch.PresortedPublic || userPub
	return cfg, r, s
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
	qr, err := e.run(ctx, r, s, opts)
	if err != nil {
		return nil, err
	}
	return qr.Join, nil
}

// JoinWithDiskStats is Join forced onto the D-MPSM algorithm, additionally
// returning the buffer pool and disk statistics of the execution.
func (e *Engine) JoinWithDiskStats(ctx context.Context, r, s *Relation, opts ...Option) (*Result, *DiskStats, error) {
	// The three-index slice keeps the append off the caller's backing array:
	// concurrent calls may share opts.
	qr, err := e.run(ctx, r, s, append(opts[:len(opts):len(opts)], WithAlgorithm(DMPSM)))
	if err != nil {
		return nil, nil, err
	}
	return qr.Join, qr.DiskStats, nil
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
			_, err := e.run(streamCtx, r, s, append(opts[:len(opts):len(opts)], WithSink(snk)))
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
