package service

import (
	"context"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/relation"
)

func testRel(name string, n int) *relation.Relation {
	tuples := make([]relation.Tuple, n)
	for i := range tuples {
		tuples[i] = relation.Tuple{Key: uint64(i*2654435761) % uint64(n), Payload: uint64(i)}
	}
	return relation.New(name, tuples)
}

// lowerPlan builds the lowered single-join plan the engine would produce for
// Join(r, s) with the given worker count.
func lowerPlan(r, s *relation.Relation, workers int) *exec.Plan {
	p := &exec.Plan{}
	rs := p.AddScan(r, nil)
	ss := p.AddScan(s, nil)
	p.AddJoin(rs, ss, exec.AlgorithmPMPSM, core.Options{Workers: workers}, core.DiskOptions{})
	return p
}

func TestPlanCacheHitOnRepeatedShape(t *testing.T) {
	r, s := testRel("R", 2000), testRel("S", 4000)
	c := NewPlanCache(nil, 0)

	first, err := c.Optimize(lowerPlan(r, s, 2), true)
	if err != nil {
		t.Fatalf("first Optimize: %v", err)
	}
	second, err := c.Optimize(lowerPlan(r, s, 2), true)
	if err != nil {
		t.Fatalf("second Optimize: %v", err)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 miss / 1 hit / 1 entry", st)
	}
	// The cached plan must carry the identical physical decisions.
	for i := range first.Nodes {
		f, g := first.Nodes[i], second.Nodes[i]
		if f.Algorithm != g.Algorithm ||
			f.JoinOptions.Scheduler != g.JoinOptions.Scheduler ||
			f.JoinOptions.PresortedPrivate != g.JoinOptions.PresortedPrivate ||
			len(f.Inputs) != len(g.Inputs) {
			t.Fatalf("node %d diverged: fresh %+v vs cached %+v", i, f, g)
		}
		for j := range f.Inputs {
			if f.Inputs[j] != g.Inputs[j] {
				t.Fatalf("node %d inputs diverged: %v vs %v", i, f.Inputs, g.Inputs)
			}
		}
	}
}

func TestPlanCacheMissOnDifferentConfig(t *testing.T) {
	r, s := testRel("R", 1000), testRel("S", 1000)
	c := NewPlanCache(nil, 0)
	if _, err := c.Optimize(lowerPlan(r, s, 2), true); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Optimize(lowerPlan(r, s, 4), true); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want 2 misses (different worker counts)", st)
	}
}

func TestPlanCacheMissOnDifferentRelations(t *testing.T) {
	r, s := testRel("R", 1000), testRel("S", 1000)
	r2 := testRel("R2", 1000)
	c := NewPlanCache(nil, 0)
	c.Optimize(lowerPlan(r, s, 2), true)  //nolint:errcheck
	c.Optimize(lowerPlan(r2, s, 2), true) //nolint:errcheck
	if st := c.Stats(); st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want 2 misses (different relations)", st)
	}
}

func TestPlanCacheRewriteModesDoNotMix(t *testing.T) {
	r, s := testRel("R", 1000), testRel("S", 1000)
	c := NewPlanCache(nil, 0)
	c.Optimize(lowerPlan(r, s, 2), true)  //nolint:errcheck
	c.Optimize(lowerPlan(r, s, 2), false) //nolint:errcheck
	if st := c.Stats(); st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want 2 misses (rewrite on vs off)", st)
	}
}

func TestPlanCacheInvalidationOnMutation(t *testing.T) {
	r, s := testRel("R", 1000), testRel("S", 1000)
	c := NewPlanCache(nil, 0)
	if _, err := c.Optimize(lowerPlan(r, s, 2), true); err != nil {
		t.Fatal(err)
	}
	r.Tuples[0].Key += 1 << 40 // in-place mutation: stats are stale now
	if _, err := c.Optimize(lowerPlan(r, s, 2), true); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Invalidations != 1 || st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want 1 invalidation and a re-plan", st)
	}
	// The re-planned entry is valid again.
	if _, err := c.Optimize(lowerPlan(r, s, 2), true); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Fatalf("stats after re-plan = %+v, want a hit", st)
	}
}

func TestPlanCacheLRUEviction(t *testing.T) {
	rels := make([]*relation.Relation, 4)
	for i := range rels {
		rels[i] = testRel("R", 500+i)
	}
	s := testRel("S", 500)
	c := NewPlanCache(nil, 2)
	for _, r := range rels[:3] {
		if _, err := c.Optimize(lowerPlan(r, s, 2), true); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 entries after 1 eviction", st)
	}
	// The evicted shape (the oldest) misses again.
	if _, err := c.Optimize(lowerPlan(rels[0], s, 2), true); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 4 {
		t.Fatalf("stats = %+v, want the evicted shape to miss", st)
	}
}

// TestPlanCacheExecutionParity runs the same plan fresh and from the cache
// and checks the outputs are multiset-identical.
func TestPlanCacheExecutionParity(t *testing.T) {
	r, s := testRel("R", 3000), testRel("S", 6000)
	c := NewPlanCache(nil, 0)

	fresh, err := c.Optimize(lowerPlan(r, s, 2), true)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := c.Optimize(lowerPlan(r, s, 2), true)
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats().Hits != 1 {
		t.Fatalf("stats = %+v, want the second plan served from cache", c.Stats())
	}

	freshRes, err := exec.RunPlan(context.Background(), fresh, nil)
	if err != nil {
		t.Fatal(err)
	}
	cachedRes, err := exec.RunPlan(context.Background(), cached, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, b := sortedTuples(freshRes.Output.Tuples), sortedTuples(cachedRes.Output.Tuples)
	if len(a) != len(b) {
		t.Fatalf("cardinality diverged: fresh %d vs cached %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("tuple %d diverged: fresh %+v vs cached %+v", i, a[i], b[i])
		}
	}
}

func sortedTuples(in []relation.Tuple) []relation.Tuple {
	out := append([]relation.Tuple(nil), in...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key != out[j].Key {
			return out[i].Key < out[j].Key
		}
		return out[i].Payload < out[j].Payload
	})
	return out
}

// TestPlanCacheKeyed: OptimizeKeyed shares one entry per caller key,
// invalidates on relation mutation, and never collides with structural keys.
func TestPlanCacheKeyed(t *testing.T) {
	r, s := testRel("R", 2000), testRel("S", 4000)
	c := NewPlanCache(nil, 0)

	const key = "ans(K, V) :- r(K, _), s(K, V)."
	if _, err := c.OptimizeKeyed(key, lowerPlan(r, s, 2), true); err != nil {
		t.Fatalf("first OptimizeKeyed: %v", err)
	}
	if _, err := c.OptimizeKeyed(key, lowerPlan(r, s, 2), true); err != nil {
		t.Fatalf("second OptimizeKeyed: %v", err)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 miss / 1 hit / 1 entry", st)
	}

	// The same plan through the structural path is a separate entry: caller
	// keys live in their own namespace.
	if _, err := c.Optimize(lowerPlan(r, s, 2), true); err != nil {
		t.Fatalf("structural Optimize: %v", err)
	}
	if st = c.Stats(); st.Misses != 2 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want a second miss and entry for the structural key", st)
	}

	// Mutating a scanned relation invalidates the keyed entry.
	r.Tuples[0].Payload += 12345
	if _, err := c.OptimizeKeyed(key, lowerPlan(r, s, 2), true); err != nil {
		t.Fatalf("post-mutation OptimizeKeyed: %v", err)
	}
	if st = c.Stats(); st.Invalidations != 1 {
		t.Fatalf("stats = %+v, want 1 invalidation after relation mutation", st)
	}
}

// TestPlanCacheKeyedShapeMismatch: reusing one caller key across differently
// shaped plans degrades to a re-plan instead of corrupting the new plan.
func TestPlanCacheKeyedShapeMismatch(t *testing.T) {
	r, s := testRel("R", 2000), testRel("S", 4000)
	c := NewPlanCache(nil, 0)

	if _, err := c.OptimizeKeyed("k", lowerPlan(r, s, 2), true); err != nil {
		t.Fatalf("OptimizeKeyed: %v", err)
	}
	// Same key, different shape: a bare scan.
	short := &exec.Plan{}
	short.AddScan(r, nil)
	got, err := c.OptimizeKeyed("k", short, true)
	if err != nil {
		t.Fatalf("OptimizeKeyed with new shape: %v", err)
	}
	if len(got.Nodes) != 1 || got.Nodes[0].Kind != exec.NodeScan {
		t.Fatalf("mismatched-shape lookup corrupted the plan: %+v", got.Nodes)
	}
}

// TestPlanCacheCarriesTheChosenWorkers: the worker count is part of what the
// optimizer decides, so a hit must run exactly as wide as the miss that filled
// the entry — here on one worker of a bound of four, which a hit that kept the
// lowered plan's count would silently widen again — and a decision taken under
// one bound is not served under another, whether the key is the plan's shape
// or a caller's.
func TestPlanCacheCarriesTheChosenWorkers(t *testing.T) {
	r, s := testRel("R", 3000), testRel("S", 6000)
	ctx := context.Background()
	lookups := map[string]func(c *PlanCache, bound int) (*exec.Plan, error){
		"structural": func(c *PlanCache, bound int) (*exec.Plan, error) { return c.Optimize(lowerPlan(r, s, bound), true) },
		"keyed": func(c *PlanCache, bound int) (*exec.Plan, error) {
			return c.OptimizeKeyed("q", lowerPlan(r, s, bound), true)
		},
	}
	for name, lookup := range lookups {
		c := NewPlanCache(nil, 0)
		var widths [2]int
		for i := range widths { // a miss, then a hit
			p, err := lookup(c, 4)
			if err != nil {
				t.Fatalf("%s lookup %d: %v", name, i, err)
			}
			res, err := exec.RunPlan(ctx, p, nil)
			if err != nil {
				t.Fatalf("%s lookup %d: %v", name, i, err)
			}
			widths[i] = res.Joins[0].Result.Workers
		}
		if st := c.Stats(); st.Misses != 1 || st.Hits != 1 {
			t.Fatalf("%s: stats = %+v, want one miss and one hit", name, st)
		}
		if widths[0] != 1 || widths[1] != widths[0] {
			t.Errorf("%s: the miss ran on %d workers and the hit on %d, want both on the one the planner chose of 4", name, widths[0], widths[1])
		}

		if _, err := lookup(c, 2); err != nil {
			t.Fatalf("%s under a bound of 2: %v", name, err)
		}
		if st := c.Stats(); st.Misses != 2 || st.Entries != 2 {
			t.Errorf("%s: stats = %+v after the same plan under a second bound, want a second miss and entry", name, st)
		}

		// With auto-planning off the configured count is the count.
		p, err := c.Optimize(lowerPlan(r, s, 4), false)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Nodes[2].JoinOptions.Workers; got != 4 {
			t.Errorf("%s: a configured plan runs on %d workers, want its 4", name, got)
		}
	}
}
