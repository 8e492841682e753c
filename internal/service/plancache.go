package service

import (
	"reflect"
	"strconv"
	"sync"

	"repro/internal/exec"
	"repro/internal/planner"
	"repro/internal/relation"
	"repro/internal/sched"
	"repro/internal/sink"
	"repro/internal/stats"
)

// DefaultPlanCacheSize bounds the number of cached physical plans; beyond it
// the least-recently-used entry is evicted.
const DefaultPlanCacheSize = 256

// PlanCacheStats are cumulative counters of a plan cache.
type PlanCacheStats struct {
	// Hits counts lookups answered from the cache.
	Hits uint64
	// Misses counts lookups that had to run the optimizer (including the
	// first sighting of every shape).
	Misses uint64
	// Invalidations counts entries dropped because a relation's content
	// fingerprint no longer matched the one the plan was optimized for.
	Invalidations uint64
	// Evictions counts entries dropped by the LRU size bound.
	Evictions uint64
	// Entries is the current cache size.
	Entries int
}

// nodeChoice is the cached physical decision for one plan node: everything
// the optimizer may change, and nothing it may not. Node IDs are stable
// across optimization (node i of the optimized plan computes node i of the
// input plan), so applying these onto a freshly lowered plan of the same
// shape reproduces the optimized plan exactly — without aliasing the cached
// execution's relations, sinks or closures.
type nodeChoice struct {
	inputs    []exec.NodeID
	algorithm exec.Algorithm
	// workers is the count the optimizer chose under the bound the key holds:
	// a hit must run as wide as the miss that filled the entry did.
	workers                           int
	scheduler                         sched.Mode
	presortedPrivate, presortedPublic bool
	// groupJoin is a GroupAggregate's groupjoin, nil where the sort-based
	// kernel runs: a hit runs the strategy, driver and worker count the miss
	// chose.
	groupJoin *exec.GroupJoin
}

// cacheEntry is one cached physical plan.
type cacheEntry struct {
	choices []nodeChoice
	// prints fingerprint the content of every scan relation at optimization
	// time (indexed by node ID; zero for non-scan nodes). A mismatch at
	// lookup means the relation mutated since the statistics were sampled:
	// the cached plan may be stale and is invalidated.
	prints []uint64
	// use is the LRU clock value of the last hit.
	use uint64
}

// PlanCache memoizes the cost-based planner's physical decisions for whole
// plans, keyed by normalized plan shape (operator DAG, relation and function
// identities, per-join configuration — the worker bound of every join
// included, under a caller's key as well) and validated per lookup by the
// content Fingerprint of every scanned relation. Optimizing a plan costs
// profile sampling and a cost-model search per join; a serving workload
// repeats a handful of plan shapes thousands of times, so the cache turns that
// into a map lookup.
type PlanCache struct {
	// Profile returns the (possibly cached) statistics of a base relation;
	// typically the engine's memoized profiles. Nil falls back to uncached
	// collection.
	Profile func(*relation.Relation) *stats.Profile
	// Size bounds the entry count; 0 selects DefaultPlanCacheSize.
	Size int

	mu      sync.Mutex
	entries map[string]*cacheEntry
	clock   uint64
	stats   PlanCacheStats
}

// NewPlanCache creates a plan cache that fills misses by running the planner
// with the given stats provider.
func NewPlanCache(profile func(*relation.Relation) *stats.Profile, size int) *PlanCache {
	return &PlanCache{Profile: profile, Size: size}
}

// SetSize rebounds a cache that may be in use; entries beyond a smaller bound
// go as new ones arrive.
func (c *PlanCache) SetSize(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.Size = n
}

// Optimize returns the physical plan for p: on a hit the cached node choices
// are applied to p in place (p must be freshly lowered and owned by the
// caller), on a miss the optimizer runs and its decisions are cached.
// rewrite selects whether the planner may mutate the plan (auto-planning) or
// only validates and annotates the configured one; it is part of the cache
// key, so the two modes never cross-contaminate. The returned plan is always
// safe to execute concurrently with other queries — cached entries hold only
// physical decisions, never relations or sinks.
func (c *PlanCache) Optimize(p *exec.Plan, rewrite bool) (*exec.Plan, error) {
	key := keyBuffers.Get().(*[]byte)
	defer keyBuffers.Put(key)
	*key = appendCacheKey((*key)[:0], p, rewrite)
	return c.optimize(*key, p, rewrite)
}

// OptimizeKeyed is Optimize under a caller-provided cache key — typically the
// canonical text of a compiled query, so equivalent spellings share one
// entry without normalizing the lowered plan's shape. The configuration of
// every join goes into the key beside it — its worker bound, algorithm and
// scheduler among them: the cached choices were made under it, and a query
// pinned to another algorithm is another plan. Content staleness is still
// caught per lookup: the per-relation fingerprints are validated on every
// hit, so rebinding a name to new data invalidates rather than reuses the
// entry. Caller keys live in their own namespace and never collide with
// structural keys.
func (c *PlanCache) OptimizeKeyed(key string, p *exec.Plan, rewrite bool) (*exec.Plan, error) {
	buf := keyBuffers.Get().(*[]byte)
	defer keyBuffers.Put(buf)
	b := strconv.AppendQuote(append((*buf)[:0], "key"...), key)
	b = strconv.AppendBool(append(b, ";rw"...), rewrite)
	for _, n := range p.Nodes {
		if n.Kind == exec.NodeJoin {
			b = appendJoinKey(append(b, ';'), n)
		}
	}
	*buf = b
	return c.optimize(b, p, rewrite)
}

// keyBuffers recycles the buffers cache keys are rendered into: a lookup reads
// the map through the buffer, and only a miss makes a string of it.
var keyBuffers = sync.Pool{New: func() any {
	buf := make([]byte, 0, 512)
	return &buf
}}

// optimize is the shared lookup-or-plan core of Optimize and OptimizeKeyed.
func (c *PlanCache) optimize(key []byte, p *exec.Plan, rewrite bool) (*exec.Plan, error) {
	prints := fingerprints(p)

	c.mu.Lock()
	if ent, ok := c.entries[string(key)]; ok {
		// The choice vector must line up with the plan (a caller key used
		// across differently shaped plans is a caller bug; degrade to a
		// re-plan rather than applying choices onto the wrong nodes).
		if len(ent.choices) == len(p.Nodes) && printsMatch(ent.prints, prints) {
			c.clock++
			ent.use = c.clock
			c.stats.Hits++
			c.mu.Unlock()
			applyChoices(p, ent.choices)
			return p, nil
		}
		delete(c.entries, string(key))
		c.stats.Invalidations++
	}
	c.stats.Misses++
	c.mu.Unlock()

	opt := &planner.Optimizer{Profile: c.Profile, Rewrite: rewrite}
	optimized, _, err := opt.Optimize(p)
	if err != nil {
		return nil, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries == nil {
		c.entries = make(map[string]*cacheEntry)
	}
	size := c.Size
	if size <= 0 {
		size = DefaultPlanCacheSize
	}
	if _, exists := c.entries[string(key)]; !exists && len(c.entries) >= size {
		c.evictLRU()
	}
	c.clock++
	c.entries[string(key)] = &cacheEntry{choices: captureChoices(optimized), prints: prints, use: c.clock}
	return optimized, nil
}

// evictLRU drops the least-recently-used entry; the caller holds c.mu.
func (c *PlanCache) evictLRU() {
	var victim string
	var oldest uint64
	first := true
	for k, e := range c.entries {
		if first || e.use < oldest {
			victim, oldest, first = k, e.use, false
		}
	}
	delete(c.entries, victim)
	c.stats.Evictions++
}

// Stats returns a snapshot of the cache counters.
func (c *PlanCache) Stats() PlanCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.entries)
	return s
}

// captureChoices extracts the cacheable physical decisions of an optimized
// plan.
func captureChoices(p *exec.Plan) []nodeChoice {
	choices := make([]nodeChoice, len(p.Nodes))
	for i, n := range p.Nodes {
		choices[i] = nodeChoice{
			inputs:           append([]exec.NodeID(nil), n.Inputs...),
			algorithm:        n.Algorithm,
			workers:          n.JoinOptions.Workers,
			scheduler:        n.JoinOptions.Scheduler,
			presortedPrivate: n.JoinOptions.PresortedPrivate,
			presortedPublic:  n.JoinOptions.PresortedPublic,
		}
		if n.GroupJoin != nil {
			gj := *n.GroupJoin
			choices[i].groupJoin = &gj
		}
	}
	return choices
}

// applyChoices overwrites the physical decision fields of a freshly lowered
// plan with the cached ones. The plan's relations, predicates, functions and
// sinks are untouched — they belong to the current query.
func applyChoices(p *exec.Plan, choices []nodeChoice) {
	for i := range p.Nodes {
		n := &p.Nodes[i]
		ch := choices[i]
		n.Inputs = append([]exec.NodeID(nil), ch.inputs...)
		if n.Kind == exec.NodeGroupAggregate {
			n.GroupJoin = nil
			if ch.groupJoin != nil {
				gj := *ch.groupJoin
				n.GroupJoin = &gj
			}
		}
		if n.Kind == exec.NodeJoin {
			n.Algorithm = ch.algorithm
			n.JoinOptions.Workers = ch.workers
			n.JoinOptions.Scheduler = ch.scheduler
			n.JoinOptions.PresortedPrivate = ch.presortedPrivate
			n.JoinOptions.PresortedPublic = ch.presortedPublic
		}
	}
}

// appendCacheKey renders a lowered plan's cache identity: the operator DAG
// with relation identities, function identities, and every configuration
// facet the planner's decision depends on — the worker count of a join node is
// the bound the planner chooses under. Relation content is deliberately not
// part of the key — it is validated separately via fingerprints, so a mutated
// relation invalidates rather than silently forks the entry. It runs on every
// request, hit or miss, hence strconv into the caller's buffer and no fmt.
func appendCacheKey(b []byte, p *exec.Plan, rewrite bool) []byte {
	num := func(tag string, v int64) { b = strconv.AppendInt(append(b, tag...), v, 10) }
	hex := func(tag string, v uint64) { b = strconv.AppendUint(append(b, tag...), v, 16) }
	flag := func(tag string, v bool) { b = strconv.AppendBool(append(b, tag...), v) }
	flag("rw", rewrite)
	b = append(b, ';')
	for id, n := range p.Nodes {
		num("", int64(id))
		num(":", int64(n.Kind))
		for _, in := range n.Inputs {
			num(",", int64(in))
		}
		switch n.Kind {
		case exec.NodeScan:
			hex(" r", uint64(reflect.ValueOf(n.Rel).Pointer()))
			num("/", int64(n.Rel.Len()))
			hex(" f", uint64(fnPtr(n.Pred)))
			if n.Range != nil {
				hex(" rg", n.Range.Low)
				hex(",", n.Range.High)
			}
		case exec.NodeJoin:
			b = appendJoinKey(b, n)
		case exec.NodeMap:
			hex(" f", uint64(fnPtr(n.MapFn)))
		case exec.NodeProject:
			hex(" f", uint64(fnPtr(n.ProjectFn)))
		case exec.NodeGroupAggregate:
			num(" g", int64(n.Agg))
		case exec.NodeSink:
			// A user sink observes the pair order and pins the build/probe
			// roles, the built-in max-sum sink is symmetric, and a sink that
			// folds ranges is cheaper to deliver to. The sink's identity does
			// not change the plan.
			flag(" nil", n.Sink == nil)
			flag(" fold", sink.FoldsRanges(n.Sink))
		}
		b = append(b, ';')
	}
	return b
}

// appendJoinKey renders the configuration of one join node.
func appendJoinKey(b []byte, n exec.PlanNode) []byte {
	num := func(tag string, v int64) { b = strconv.AppendInt(append(b, tag...), v, 10) }
	flag := func(tag string, v bool) { b = strconv.AppendBool(append(b, tag...), v) }
	o, d := n.JoinOptions, n.DiskOptions
	num(" a", int64(n.Algorithm))
	num(" w", int64(o.Workers))
	num(" k", int64(o.Kind))
	b = strconv.AppendUint(append(b, " b"...), o.Band, 16)
	num(" s", int64(o.Splitters))
	flag(" pp", o.PresortedPublic)
	flag(" pv", o.PresortedPrivate)
	num(" sch", int64(o.Scheduler))
	num(" m", int64(o.MorselSize))
	num(" d", int64(d.PageSize))
	num(",", int64(d.PageBudget))
	num(",", int64(d.ReadLatency))
	num(",", int64(d.WriteLatency))
	return b
}

// fnPtr returns the code-pointer identity of a function value (0 for nil).
// Two plans using the same predicate/projection function are the same shape;
// distinct closures of the same function body also share a code pointer,
// which is correct here because the planner's decisions depend only on
// relation statistics, never on what a predicate computes.
func fnPtr(fn any) uintptr {
	v := reflect.ValueOf(fn)
	if !v.IsValid() || v.IsNil() {
		return 0
	}
	return v.Pointer()
}

// fingerprints hashes the content of every scan relation (indexed by node
// ID).
func fingerprints(p *exec.Plan) []uint64 {
	prints := make([]uint64, len(p.Nodes))
	for id, n := range p.Nodes {
		if n.Kind == exec.NodeScan {
			prints[id] = Fingerprint(n.Rel)
		}
	}
	return prints
}

// Fingerprint hashes a relation's length and about 64 evenly spaced tuples:
// a cheap strided sample that catches an in-place rewrite — even at the same
// length — without rescanning a multi-million tuple relation on every lookup.
// It is the one staleness rule of the plan cache and of the profiles that
// fill it. The hash is FNV-1a over 64-bit words rather than bytes: every step
// is a bijection of the running hash and of the word, so a change to any one
// sampled word always changes the fingerprint, at an eighth of the multiplies.
func Fingerprint(rel *relation.Relation) uint64 {
	const prime = 1099511628211
	n := rel.Len()
	h := (14695981039346656037 ^ uint64(n)) * prime
	for i, stride := 0, max(1, n/64); i < n; i += stride {
		t := rel.Tuples[i]
		h = (h ^ t.Key) * prime
		h = (h ^ t.Payload) * prime
	}
	return h
}

// printsMatch compares two fingerprint vectors.
func printsMatch(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
