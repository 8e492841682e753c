package mpsm

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/memory"
	"repro/internal/sched"
	"repro/internal/service"
)

// Serving errors. ErrBudgetTooLarge, ErrQueueFull and ErrQueueTimeout are the
// admission controller's rejections; ErrServiceClosed reports a query
// submitted after Close.
var (
	ErrBudgetTooLarge = service.ErrBudgetTooLarge
	ErrQueueFull      = service.ErrQueueFull
	ErrQueueTimeout   = service.ErrQueueTimeout
	ErrServiceClosed  = errors.New("mpsm: service is closed")
)

// Retryable reports whether an error is transient pressure — a full or timed
// out admission queue, or an over-committed memory budget — that a client (or
// the service's own degradation ladder) may retry with backoff. Permanent
// rejections (ErrBudgetTooLarge, ErrServiceClosed, validation errors) and
// query failures (PanicError, cancellation) are not retryable.
func Retryable(err error) bool {
	return errors.Is(err, ErrQueueFull) ||
		errors.Is(err, ErrQueueTimeout) ||
		errors.Is(err, memory.ErrOverCommitted)
}

// AdmissionStats are the admission controller's counters.
type AdmissionStats = service.AdmissionStats

// PlanCacheStats are the plan cache's counters.
type PlanCacheStats = service.PlanCacheStats

// ServiceStats snapshots all serving-layer counters at once.
type ServiceStats struct {
	// Admission reports admitted/queued/rejected/canceled queries and the
	// current queue depth.
	Admission AdmissionStats
	// PlanCache reports plan-cache hits, misses, invalidations and
	// evictions.
	PlanCache PlanCacheStats
	// Memory is the scratch pool's snapshot, including the per-query
	// reserved and in-use attribution of every active query.
	Memory PoolStats
	// Active is the number of queries currently executing (admitted, not
	// yet completed).
	Active int64
	// Degradation counts the graceful-degradation ladder's interventions
	// and the failures the service absorbed.
	Degradation DegradationStats
}

// DegradationStats count the service's graceful-degradation events.
type DegradationStats struct {
	// AdmissionRetries counts admission attempts beyond each query's first
	// (the degradation ladder re-queueing with backoff).
	AdmissionRetries uint64
	// BudgetShrinks counts budget halvings taken by the ladder before
	// re-attempting admission.
	BudgetShrinks uint64
	// NarrowedQueries counts queries that executed with degraded
	// parallelism/batch size after retried admission.
	NarrowedQueries uint64
	// DeadlineExpired counts queries aborted by their execution deadline.
	DeadlineExpired uint64
	// PanicsRecovered counts queries that failed with a recovered
	// PanicError while the service carried on.
	PanicsRecovered uint64
}

// degCounters is the internal atomic mirror of DegradationStats.
type degCounters struct {
	admissionRetries atomic.Uint64
	budgetShrinks    atomic.Uint64
	narrowed         atomic.Uint64
	deadlineExpired  atomic.Uint64
	panicsRecovered  atomic.Uint64
}

// snapshot converts the counters into their public form.
func (d *degCounters) snapshot() DegradationStats {
	return DegradationStats{
		AdmissionRetries: d.admissionRetries.Load(),
		BudgetShrinks:    d.budgetShrinks.Load(),
		NarrowedQueries:  d.narrowed.Load(),
		DeadlineExpired:  d.deadlineExpired.Load(),
		PanicsRecovered:  d.panicsRecovered.Load(),
	}
}

// serviceConfig collects the ServiceOption knobs.
type serviceConfig struct {
	maxMemory       int64
	queueLimit      int
	queueTimeout    time.Duration
	fairSlots       int
	planCacheSize   int
	defaultBudget   int64
	execDeadline    time.Duration
	degradeSteps    int
	degradeStepsSet bool
	faults          *faultinject.Set
}

// ServiceOption configures a Service at construction.
type ServiceOption func(*serviceConfig)

// WithMaxMemory caps the total bytes concurrently admitted queries may
// reserve (the engine-wide memory limit admission control enforces); 0
// selects the scratch pool's parked-byte limit (512 MiB by default).
func WithMaxMemory(bytes int64) ServiceOption {
	return func(c *serviceConfig) { c.maxMemory = bytes }
}

// WithAdmissionQueue bounds the admission queue: at most limit queries wait
// (0 = unbounded), each for at most timeout (0 = only the query's own
// context). Queries beyond the limit are rejected with ErrQueueFull; queries
// whose wait exceeds the timeout fail with ErrQueueTimeout.
func WithAdmissionQueue(limit int, timeout time.Duration) ServiceOption {
	return func(c *serviceConfig) { c.queueLimit = limit; c.queueTimeout = timeout }
}

// WithFairSlots sets the number of concurrent execution slots the fair-share
// scheduler arbitrates (the machine's effective parallelism); 0 selects
// GOMAXPROCS.
func WithFairSlots(n int) ServiceOption {
	return func(c *serviceConfig) { c.fairSlots = n }
}

// WithPlanCacheSize bounds the number of cached physical plans; 0 selects the
// default (256).
func WithPlanCacheSize(n int) ServiceOption {
	return func(c *serviceConfig) { c.planCacheSize = n }
}

// WithDefaultBudget sets the per-query memory budget assumed when a query
// does not declare one with WithQueryBudget; 0 derives the budget from the
// query's input sizes.
func WithDefaultBudget(bytes int64) ServiceOption {
	return func(c *serviceConfig) { c.defaultBudget = bytes }
}

// WithExecDeadline bounds every query's execution time (admission wait
// excluded), enforced at phase boundaries and chunk granularity like any
// context deadline; expired queries fail with context.DeadlineExceeded and
// count in DegradationStats.DeadlineExpired. Per-query WithQueryDeadline
// overrides it; 0 (the default) sets no deadline.
func WithExecDeadline(d time.Duration) ServiceOption {
	return func(c *serviceConfig) { c.execDeadline = d }
}

// WithDegradationSteps sets how many times the degradation ladder re-attempts
// admission for one query under transient pressure — each retry backs off,
// halves the query's budget (floored at 1 MiB) and narrows its parallelism —
// before the rejection surfaces to the caller. 0 disables the ladder
// (immediate hard rejection, the pre-degradation behaviour); the default is 2.
func WithDegradationSteps(n int) ServiceOption {
	return func(c *serviceConfig) {
		if n < 0 {
			n = 0
		}
		c.degradeSteps = n
		c.degradeStepsSet = true
	}
}

// WithServiceFaults arms service-wide deterministic fault injection: the
// admission controller's GrantRace point, per-query CancelStorm, and — unless
// a query overrides with its own WithFaultInjection — the engine-side points
// of every query the service runs. Nil (the default) injects nothing. See
// internal/faultinject for the points and NewFaultSet/ParseFaultSpec for
// construction.
func WithServiceFaults(f *FaultSet) ServiceOption {
	return func(c *serviceConfig) { c.faults = f }
}

// queryConfig collects the per-query QueryOption knobs.
type queryConfig struct {
	weight     int
	budget     int64
	label      string
	deadline   time.Duration
	engineOpts []Option
}

// QueryOption configures one query submitted to a Service.
type QueryOption func(*queryConfig)

// WithQueryWeight sets the query's fair-share weight (default 1): under
// contention a weight-2 query receives twice the busy slot time of a
// weight-1 query.
func WithQueryWeight(w int) QueryOption {
	return func(c *queryConfig) { c.weight = w }
}

// WithQueryBudget declares the query's memory budget in bytes for admission
// control; 0 derives it from the input sizes. Budgets larger than the
// service's memory limit are rejected with ErrBudgetTooLarge.
func WithQueryBudget(bytes int64) QueryOption {
	return func(c *queryConfig) { c.budget = bytes }
}

// WithQueryLabel names the query in ServiceStats.Memory.Queries; unnamed
// queries get a generated "q<N>" label.
func WithQueryLabel(label string) QueryOption {
	return func(c *queryConfig) { c.label = label }
}

// WithQueryOptions passes per-call engine options (algorithm, workers, sink,
// ...) through to the query's execution, exactly like the opts parameter of
// Engine.Join.
func WithQueryOptions(opts ...Option) QueryOption {
	return func(c *queryConfig) { c.engineOpts = append(c.engineOpts, opts...) }
}

// WithQueryDeadline bounds this query's execution time (admission wait
// excluded), overriding the service-wide WithExecDeadline; 0 keeps the
// service default.
func WithQueryDeadline(d time.Duration) QueryOption {
	return func(c *queryConfig) { c.deadline = d }
}

// Service is the multi-tenant serving layer over one Engine: every query is
// admission-controlled against a shared memory limit (queueing FIFO with an
// optional deadline when the limit is reached, rejecting what could never
// fit), scheduled through a weighted fair-share arbiter so concurrent
// queries interleave at morsel granularity instead of monopolizing the
// workers FIFO-style, and planned through a normalized plan cache that
// reuses physical plans across queries of the same shape, statistics and
// configuration.
//
// A Service is safe for concurrent use from any number of client
// goroutines; that is its purpose.
type Service struct {
	engine *Engine
	pool   *memory.Pool
	adm    *service.Admission
	fs     *sched.FairShare
	cache  *service.PlanCache

	defaultBudget int64
	execDeadline  time.Duration
	degradeSteps  int
	faults        *faultinject.Set
	nextID        atomic.Uint64
	active        atomic.Int64
	deg           degCounters

	mu       sync.Mutex
	closed   bool
	inflight int
	drained  *sync.Cond // signaled when inflight reaches 0, for Close
}

// NewService wraps an engine in a serving layer. When the engine has a
// scratch pool (WithScratchPool), admission budgets are carved out of that
// pool and the per-query attribution shows up in its PoolStats; otherwise
// the service creates an accounting-only pool to track reservations.
// Queries default to the Morsel scheduler — the granularity fair-share
// interleaving needs — and to an elastic share of the workers: all fair-share
// slots when the service is idle, down to one per query under fan-in. The
// share is an upper bound where the planner chooses the worker count of each
// join (an auto-planning engine; see WithWorkers) and the count itself where
// it does not (WithAutoPlan(false), as for a pinned algorithm).
// WithQueryOptions(WithScheduler(Static)) and WithQueryOptions(WithWorkers(n))
// override either per query.
func NewService(e *Engine, opts ...ServiceOption) *Service {
	var cfg serviceConfig
	for _, o := range opts {
		o(&cfg)
	}
	pool := e.pool
	if pool == nil {
		pool = memory.NewPool(cfg.maxMemory)
	}
	if cfg.maxMemory > 0 {
		pool.SetReserveLimit(cfg.maxMemory)
	}
	adm := service.NewAdmission(pool)
	adm.MaxQueue = cfg.queueLimit
	adm.Timeout = cfg.queueTimeout
	adm.Faults = cfg.faults
	if !cfg.degradeStepsSet {
		cfg.degradeSteps = defaultDegradeSteps
	}
	s := &Service{
		engine:        e,
		pool:          pool,
		adm:           adm,
		fs:            sched.NewFairShare(cfg.fairSlots),
		cache:         service.NewPlanCache(e.profileFor, cfg.planCacheSize),
		defaultBudget: cfg.defaultBudget,
		execDeadline:  cfg.execDeadline,
		degradeSteps:  cfg.degradeSteps,
		faults:        cfg.faults,
	}
	s.drained = sync.NewCond(&s.mu)
	return s
}

// Close marks the service closed and drains: subsequent queries fail with
// ErrServiceClosed, while queries already submitted — executing or still
// waiting in the admission queue — finish normally before Close returns.
// Close is idempotent and safe to call concurrently with in-flight Join and
// RunPlan calls (and with other Close calls); every call blocks until the
// service is drained.
func (s *Service) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	for s.inflight > 0 {
		s.drained.Wait()
	}
	return nil
}

// beginQuery registers a query as in-flight; it fails once the service is
// closed. Every successful begin must be paired with endQuery.
func (s *Service) beginQuery() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrServiceClosed
	}
	s.inflight++
	return nil
}

// endQuery retires an in-flight query and wakes Close when the last one
// finishes.
func (s *Service) endQuery() {
	s.mu.Lock()
	s.inflight--
	if s.inflight == 0 {
		s.drained.Broadcast()
	}
	s.mu.Unlock()
}

// Stats snapshots the serving-layer counters.
func (s *Service) Stats() ServiceStats {
	return ServiceStats{
		Admission:   s.adm.Stats(),
		PlanCache:   s.cache.Stats(),
		Memory:      s.pool.Stats(),
		Active:      s.active.Load(),
		Degradation: s.deg.snapshot(),
	}
}

// Join executes an equi-join between the private input r and the public
// input p through the serving layer: admission control, fair-share
// scheduling, and the plan cache (which, when the engine auto-plans, reuses
// the planner's physical decisions across repeated joins of the same shape).
// It is Engine.Join behind the serving layer; see there for the join
// semantics.
func (s *Service) Join(ctx context.Context, r, p *Relation, opts ...QueryOption) (*Result, error) {
	if r == nil || p == nil {
		return nil, fmt.Errorf("mpsm: Join requires non-nil relations")
	}
	var q queryConfig
	for _, o := range opts {
		o(&q)
	}
	resolvedSink := s.engine.resolve(q.engineOpts).sink
	plan := NewPlan()
	rs := plan.Scan(r)
	ps := plan.Scan(p)
	j := plan.Join(rs, ps)
	plan.Sink(j, resolvedSink)

	pr, err := s.run(ctx, plan, q, r.Len()+p.Len())
	if err != nil {
		return nil, err
	}
	return pr.Joins[0].Result, nil
}

// RunPlan executes a plan through the serving layer; see Engine.RunPlan for
// plan semantics.
func (s *Service) RunPlan(ctx context.Context, p *Plan, opts ...QueryOption) (*PlanResult, error) {
	var q queryConfig
	for _, o := range opts {
		o(&q)
	}
	rows := 0
	if p != nil {
		for _, n := range p.nodes {
			if n.rel != nil {
				rows += n.rel.Len()
			}
		}
	}
	return s.run(ctx, p, q, rows)
}

// Explain renders the physical plan the underlying engine would execute for
// p, without running it. Per-query engine options (WithQueryOptions) apply;
// serving-layer options are irrelevant to planning and ignored.
func (s *Service) Explain(p *Plan, opts ...QueryOption) (*Explain, error) {
	var q queryConfig
	for _, o := range opts {
		o(&q)
	}
	return s.engine.Explain(p, q.engineOpts...)
}

// budgetFor resolves a query's admission budget: the declared one, the
// service default, or an estimate from the input cardinality (the MPSM runs
// copy both inputs once and the partition phase copies the private one
// again, so ~3 tuple copies bounds the scratch demand, histograms and each
// worker's run-generation bucket scratch — at most one key column of its
// chunk, when a single radix bucket holds it all — included. A hash join
// needs less: its table is 8 four-byte bucket heads per build tuple, rounded up
// to a power of two, and a chain link — at most 64 + 4 bytes per build tuple —
// over tuples it does not copy, and the radix join's partitions are one copy
// of each input).
func (s *Service) budgetFor(q queryConfig, inputRows int) int64 {
	if q.budget > 0 {
		return q.budget
	}
	if s.defaultBudget > 0 {
		return s.defaultBudget
	}
	const tupleBytes = 16
	b := int64(inputRows) * tupleBytes * 3
	if b < 1<<20 {
		b = 1 << 20
	}
	return b
}

// run is the shared serving path: admit, gate, plan through the cache,
// execute, release.
// Degradation-ladder constants: a degraded query's budget never shrinks
// below minDegradedBudget, admission retries back off starting at
// degradeBackoff (doubling, capped at degradeBackoffMax), and degraded
// queries run with degradedBatchSize-tuple batches to bound the memory each
// worker holds between checkpoints.
const (
	defaultDegradeSteps = 2
	minDegradedBudget   = 1 << 20 // 1 MiB
	degradeBackoff      = 500 * time.Microsecond
	degradeBackoffMax   = 4 * time.Millisecond
	degradedBatchSize   = 256
)

// admit runs the graceful-degradation ladder in front of the admission
// controller: on transient pressure (Retryable errors — queue full, queue
// timeout, over-committed budget) it retries admission up to s.degradeSteps
// times, each time backing off and halving the requested budget (floored at
// minDegradedBudget). It returns the granted reservation together with the
// number of degradation steps taken, so the caller can narrow the query's
// parallelism to match its shrunken budget. Non-retryable errors and
// exhausted ladders surface immediately.
func (s *Service) admit(ctx context.Context, label string, budget int64) (*memory.Reservation, int, error) {
	backoff := degradeBackoff
	for step := 0; ; step++ {
		res, err := s.adm.Admit(ctx, label, budget)
		if err == nil {
			return res, step, nil
		}
		if step >= s.degradeSteps || !Retryable(err) || ctx.Err() != nil {
			return nil, step, err
		}
		s.deg.admissionRetries.Add(1)
		if half := budget / 2; half >= minDegradedBudget {
			budget = half
			s.deg.budgetShrinks.Add(1)
		} else if budget > minDegradedBudget {
			budget = minDegradedBudget
			s.deg.budgetShrinks.Add(1)
		}
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return nil, step, ctx.Err()
		}
		if backoff *= 2; backoff > degradeBackoffMax {
			backoff = degradeBackoffMax
		}
	}
}

func (s *Service) run(ctx context.Context, p *Plan, q queryConfig, inputRows int) (*PlanResult, error) {
	if err := s.beginQuery(); err != nil {
		return nil, err
	}
	defer s.endQuery()

	label := q.label
	if label == "" {
		label = "q" + strconv.FormatUint(s.nextID.Add(1), 10)
	}

	// CancelStorm injection: abort this query's context shortly after it
	// enters the service, exercising the cancellation paths under load.
	if s.faults.Should(faultinject.CancelStorm) {
		stormCtx, cancel := context.WithCancel(ctx)
		timer := time.AfterFunc(s.faults.Delay(faultinject.CancelStorm), cancel)
		defer timer.Stop()
		defer cancel()
		ctx = stormCtx
	}

	res, degraded, err := s.admit(ctx, label, s.budgetFor(q, inputRows))
	if err != nil {
		return nil, err
	}
	defer s.adm.Done(res)
	s.active.Add(1)
	defer s.active.Add(-1)

	// Execution deadline (admission wait excluded): per-query override
	// first, service-wide default otherwise.
	deadline := q.deadline
	if deadline == 0 {
		deadline = s.execDeadline
	}
	if deadline > 0 {
		dctx, cancel := context.WithTimeout(ctx, deadline)
		defer cancel()
		ctx = dctx
	}

	ticket := s.fs.Ticket(q.weight)
	// The query's share of the slots — all of them for a lone query, one under
	// fan-in — bounds its degree of parallelism; it does not set it. Under
	// auto-planning the planner prices every join at each worker count up to
	// the share and keeps a worker only where the cost model says it pays
	// (planner.CostModel.EfficiencyFloor), because a worker that returns little
	// to this query is worth a whole worker to the next one; the plan cache
	// keys the decision by the share it was taken under. With auto-planning
	// off — a pinned algorithm — every join runs on exactly the share.
	dop := s.fs.Slots() / int(s.active.Load())
	if dop < 1 {
		dop = 1
	}
	// The serving defaults go first so per-query options can override them
	// (an explicit WithWorkers in WithQueryOptions replaces the share,
	// WithScheduler(Static) the Morsel default).
	defaults := []Option{WithScheduler(Morsel), WithWorkers(dop)}
	if degraded > 0 {
		// A query admitted through the degradation ladder runs on a
		// fraction of its requested budget: narrow its share to match
		// (each step halves the bound on its worker count) and shrink its
		// batch size so less memory sits in flight between checkpoints.
		ndop := dop >> degraded
		if ndop < 1 {
			ndop = 1
		}
		defaults = append(defaults, WithWorkers(ndop), WithBatchSize(degradedBatchSize))
		s.deg.narrowed.Add(1)
	}
	if s.faults != nil {
		defaults = append(defaults, WithFaultInjection(s.faults))
	}
	opts := append(defaults, q.engineOpts...)
	opts = append(opts, withGate(ticket), withOwner(res))

	pr, err := s.execute(ctx, p, opts, res)
	if err != nil {
		var pe *sched.PanicError
		if errors.As(err, &pe) {
			s.deg.panicsRecovered.Add(1)
		}
		if errors.Is(err, context.DeadlineExceeded) {
			s.deg.deadlineExpired.Add(1)
		}
		return nil, err
	}
	return pr, nil
}

// execute builds, optimizes and runs the plan with the resolved options,
// attributing the plan-level lease to the query's admission reservation.
func (s *Service) execute(ctx context.Context, p *Plan, opts []Option, res *memory.Reservation) (*PlanResult, error) {
	ep, g, err := s.engine.buildExecPlan(p, opts)
	if err != nil {
		return nil, err
	}
	if p.info != nil {
		// Compiled queries cache by their canonical text: equivalent
		// spellings share one entry, and the per-relation fingerprints still
		// invalidate it when the underlying data changes.
		ep, err = s.cache.OptimizeKeyed(p.info.Text, ep, g.autoPlan)
	} else {
		ep, err = s.cache.Optimize(ep, g.autoPlan)
	}
	if err != nil {
		return nil, err
	}
	pr, err := exec.RunPlanFor(ctx, ep, s.engine.scratchFor(g), res)
	if err != nil {
		return nil, err
	}
	return convertPlanResult(pr), nil
}
