package mpsm

import (
	"context"
	"encoding/json"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/relation"
)

// sortedRelation returns a key-sorted copy of the relation.
func sortedRelation(rel *Relation) *Relation {
	c := rel.Clone()
	sort.Slice(c.Tuples, func(i, j int) bool { return c.Tuples[i].Key < c.Tuples[j].Key })
	return c
}

// autoplanDatasets enumerates input shapes that exercise every planner
// decision: hash picks, presorted MPSM picks, skewed scheduling, dense
// domains.
func autoplanDatasets(t *testing.T) map[string][2]*Relation {
	t.Helper()
	r := GenerateUniform("R", 1<<14, 101)
	s := GenerateForeignKey("S", r, 1<<16, 102)
	skewR := GenerateSkewedWithDomain("skewR", 1<<14, 1<<16, SkewHigh80, 103)
	skewS := GenerateSkewedWithDomain("skewS", 1<<16, 1<<16, SkewLow80, 104)
	return map[string][2]*Relation{
		"uniform-fk":      {r, s},
		"presorted-both":  {sortedRelation(r), sortedRelation(s)},
		"presorted-S":     {r, sortedRelation(s)},
		"negcorr":         {skewR, skewS},
		"tiny":            {GenerateUniform("tinyR", 512, 105), GenerateUniform("tinyS", 2048, 106)},
		"empty-public":    {r, NewRelation("empty", nil)},
		"big-build-small": {s, r}, // build larger than probe: swap territory
	}
}

// TestAutoPlanJoinParity: for every dataset, an auto-planned join must
// produce exactly the manual join's Matches and MaxSum.
func TestAutoPlanJoinParity(t *testing.T) {
	ctx := context.Background()
	manual := New(WithWorkers(2))
	auto := New(WithWorkers(2), WithAutoPlan(true))
	for name, rs := range autoplanDatasets(t) {
		want, err := manual.Join(ctx, rs[0], rs[1])
		if err != nil {
			t.Fatalf("%s: manual join: %v", name, err)
		}
		got, err := auto.Join(ctx, rs[0], rs[1])
		if err != nil {
			t.Fatalf("%s: auto join: %v", name, err)
		}
		if got.Matches != want.Matches || got.MaxSum != want.MaxSum {
			t.Errorf("%s: auto join diverged: matches %d vs %d, maxsum %d vs %d",
				name, got.Matches, want.Matches, got.MaxSum, want.MaxSum)
		}
	}
}

// TestAutoPlanRespectsSemantics: join kinds, band joins, user sinks and
// streams must survive auto-planning unchanged.
func TestAutoPlanRespectsSemantics(t *testing.T) {
	ctx := context.Background()
	r := GenerateUniform("R", 1<<13, 111)
	s := GenerateForeignKey("S", r, 1<<14, 112)
	manual := New(WithWorkers(2))
	auto := New(WithWorkers(2), WithAutoPlan(true))

	for _, kind := range []JoinKind{LeftOuterJoin, SemiJoin, AntiJoin} {
		want, err := manual.Join(ctx, r, s, WithKind(kind))
		if err != nil {
			t.Fatalf("%v manual: %v", kind, err)
		}
		got, err := auto.Join(ctx, r, s, WithKind(kind))
		if err != nil {
			t.Fatalf("%v auto: %v", kind, err)
		}
		if got.Matches != want.Matches || got.MaxSum != want.MaxSum {
			t.Errorf("%v: auto join diverged: matches %d vs %d", kind, got.Matches, want.Matches)
		}
	}

	wantBand, err := manual.Join(ctx, r, s, WithBandWidth(1000))
	if err != nil {
		t.Fatal(err)
	}
	gotBand, err := auto.Join(ctx, r, s, WithBandWidth(1000))
	if err != nil {
		t.Fatal(err)
	}
	if gotBand.Matches != wantBand.Matches {
		t.Errorf("band join: auto %d matches vs manual %d", gotBand.Matches, wantBand.Matches)
	}

	// Band pairs carry R.Key != S.Key, so the materialized output keys expose
	// an illegal build/probe swap that the pair-symmetric Matches count would
	// hide: compare the full grouped band output.
	bandPlan := func() *Plan {
		p := NewPlan()
		p.GroupAggregate(p.Join(p.Scan(s), p.Scan(r), WithBandWidth(1000)), AggSum)
		return p
	}
	wantGroups, err := manual.RunPlan(ctx, bandPlan())
	if err != nil {
		t.Fatal(err)
	}
	gotGroups, err := auto.RunPlan(ctx, bandPlan())
	if err != nil {
		t.Fatal(err)
	}
	if !relation.SameMultiset(wantGroups.Output.Tuples, gotGroups.Output.Tuples) {
		t.Errorf("grouped band join diverged under auto-planning: %d vs %d groups",
			gotGroups.Output.Len(), wantGroups.Output.Len())
	}

	// A user sink observes (r, s) pair order; auto-planning must not swap
	// roles out from under it. Compare materialized pairs against the
	// default P-MPSM execution pairwise.
	wantSink := NewMaterializeSink()
	if _, err := manual.Join(ctx, s, r, WithSink(wantSink)); err != nil {
		t.Fatal(err)
	}
	gotSink := NewMaterializeSink()
	if _, err := auto.Join(ctx, s, r, WithSink(gotSink)); err != nil {
		t.Fatal(err)
	}
	wantPairs := wantSink.Pairs()
	gotPairs := gotSink.Pairs()
	toTuples := func(pairs []Pair) []Tuple {
		out := make([]Tuple, 0, 2*len(pairs))
		for _, p := range pairs {
			// Fold each ordered pair into two tuples keyed by side so that a
			// swapped (s, r) emission cannot masquerade as (r, s).
			out = append(out, Tuple{Key: p.R.Key, Payload: p.R.Payload},
				Tuple{Key: ^p.S.Key, Payload: p.S.Payload})
		}
		return out
	}
	if !relation.SameMultiset(toTuples(wantPairs), toTuples(gotPairs)) {
		t.Errorf("user-sink pairs diverged under auto-planning (%d vs %d pairs)", len(wantPairs), len(gotPairs))
	}

	// A non-inner or band join configured onto a hash algorithm is rerouted
	// to an MPSM variant under auto-planning — through RunPlan exactly like
	// through Join.
	hashAuto := New(WithWorkers(2), WithAlgorithm(Wisconsin), WithAutoPlan(true))
	semiPlan := NewPlan()
	semiPlan.Sink(semiPlan.Join(semiPlan.Scan(r), semiPlan.Scan(s), WithKind(SemiJoin)), nil)
	planRes, err := hashAuto.RunPlan(ctx, semiPlan)
	if err != nil {
		t.Fatalf("auto RunPlan with semi join on a hash-configured engine: %v", err)
	}
	joinRes, err := hashAuto.Join(ctx, r, s, WithKind(SemiJoin))
	if err != nil {
		t.Fatalf("auto Join with semi join on a hash-configured engine: %v", err)
	}
	if planRes.Matches != joinRes.Matches {
		t.Errorf("semi join via RunPlan (%d) and Join (%d) disagree", planRes.Matches, joinRes.Matches)
	}

	// JoinWithDiskStats pins D-MPSM even under auto-planning.
	res, disk, err := auto.JoinWithDiskStats(ctx, r, s)
	if err != nil {
		t.Fatal(err)
	}
	if disk == nil || res.Algorithm != "D-MPSM" {
		t.Errorf("auto JoinWithDiskStats ran %s without disk stats", res.Algorithm)
	}
}

// TestExplainShowsDecisionsAndEstimates: the Explain tree must surface the
// planner's decision with estimates — for this sum by key over a join, a
// groupjoin on the GroupAggregate with the join marked fused; over an opaque
// projection, the join's algorithm, candidate costs and reason — and
// ExplainAnalyze must fill in actuals that match the estimates within the
// stats package's documented bounds: the fused join's are the pairs the
// groupjoin counted.
func TestExplainShowsDecisionsAndEstimates(t *testing.T) {
	ctx := context.Background()
	r := GenerateUniform("R", 1<<15, 121)
	s := GenerateForeignKey("S", r, 1<<17, 122)
	engine := New(WithWorkers(2), WithAutoPlan(true))

	plan := NewPlan()
	j := plan.Join(plan.Scan(r), plan.Scan(s))
	plan.GroupAggregate(j, AggSum)

	ex, err := engine.Explain(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !ex.AutoPlan {
		t.Errorf("Explain does not report auto-planning")
	}
	tree := ex.String()
	for _, want := range []string{"Scan R", "Scan S", "Join", "GroupAggregate", "est="} {
		if !strings.Contains(tree, want) {
			t.Errorf("Explain tree missing %q:\n%s", want, tree)
		}
	}
	join, agg := ex.Nodes[2], ex.Nodes[3]
	if !join.Fused || join.Algorithm != "" {
		t.Fatalf("join node is not fused into the group-by: %+v", join)
	}
	if agg.GroupJoin != "on R: S→sum" || agg.Workers != 1 || agg.EstMillis <= 0 || !strings.Contains(agg.Reason, "vs joins + group-by") {
		t.Fatalf("GroupAggregate node lacks the groupjoin decision: %+v", agg)
	}
	if join.ActualRows != -1 {
		t.Errorf("unexecuted Explain reports actual rows %d", join.ActualRows)
	}

	// Over an opaque projection, which may change the key, the group-by keeps
	// its join: that join shows the algorithm chosen, every candidate's cost
	// and the reason.
	opaque := NewPlan()
	project := opaque.Project(opaque.Join(opaque.Scan(r), opaque.Scan(s)), func(r, s Tuple) Tuple {
		return Tuple{Key: r.Key, Payload: r.Payload + s.Payload}
	})
	opaque.GroupAggregate(project, AggSum)
	exO, err := engine.Explain(opaque)
	if err != nil {
		t.Fatal(err)
	}
	kept := exO.Nodes[2]
	if kept.Kind != "Join" || kept.Fused || kept.Algorithm == "" || len(kept.Costs) == 0 || kept.Reason == "" {
		t.Fatalf("join node lacks decisions: %+v", kept)
	}
	if agg := exO.Nodes[len(exO.Nodes)-1]; agg.GroupJoin != "" {
		t.Fatalf("group-by over an opaque projection planned as a groupjoin: %+v", agg)
	}

	blob, err := json.Marshal(ex)
	if err != nil {
		t.Fatalf("Explain JSON: %v", err)
	}
	if !strings.Contains(string(blob), `"auto_plan":true`) || !strings.Contains(string(blob), `"est_rows"`) {
		t.Errorf("Explain JSON lacks expected fields: %s", blob)
	}

	exA, res, err := engine.ExplainAnalyze(ctx, plan)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || res.Output == nil {
		t.Fatalf("ExplainAnalyze returned no result")
	}
	if exA.Nodes[3].Millis <= 0 || len(res.Joins) != 1 || res.Joins[0].Result.Algorithm != "GroupJoin" {
		t.Errorf("analyzed groupjoin not reported: %+v", exA.Nodes[3])
	}
	exOA, resO, err := engine.ExplainAnalyze(ctx, opaque)
	if err != nil {
		t.Fatal(err)
	}
	if len(resO.Joins) != 1 || resO.Joins[0].Result.Algorithm != kept.Algorithm {
		t.Errorf("analyzed opaque plan ran %+v, want one %s join", resO.Joins, kept.Algorithm)
	}
	for _, n := range append(exA.Nodes, exOA.Nodes...) {
		if n.Kind == "Join" {
			if n.ActualRows < 0 {
				t.Errorf("analyzed join has no actual rows")
				continue
			}
			// Foreign-key workload: the probe estimator's documented bound
			// is a factor of 1.5.
			ratio := n.EstRows / float64(n.ActualRows)
			if ratio < 1/1.5 || ratio > 1.5 {
				t.Errorf("join estimate %f vs actual %d outside the documented 1.5x bound", n.EstRows, n.ActualRows)
			}
		}
	}
}

// TestExplainWithoutAutoPlanDescribesConfiguredPlan: without auto-planning,
// Explain reports the configured algorithm annotated with estimates.
func TestExplainWithoutAutoPlanDescribesConfiguredPlan(t *testing.T) {
	r := GenerateUniform("R", 1<<13, 131)
	s := GenerateForeignKey("S", r, 1<<14, 132)
	engine := New(WithWorkers(2), WithAlgorithm(BMPSM))
	plan := NewPlan()
	plan.Sink(plan.Join(plan.Scan(r), plan.Scan(s)), nil)

	ex, err := engine.Explain(plan)
	if err != nil {
		t.Fatal(err)
	}
	if ex.AutoPlan {
		t.Errorf("Explain claims auto-planning on a manual engine")
	}
	for _, n := range ex.Nodes {
		if n.Kind == "Join" && n.Algorithm != "B-MPSM" {
			t.Errorf("Explain shows %q, want the configured B-MPSM", n.Algorithm)
		}
	}
}

// TestAutoPlanKeepsPresortedDeclarations: under auto-planning a caller's
// presorted declaration stays in the plan Explain shows and RunPlan runs —
// the planner only adds its own — and follows its input through a
// build/probe swap.
func TestAutoPlanKeepsPresortedDeclarations(t *testing.T) {
	ctx := context.Background()
	r := GenerateUniform("R", 1<<14, 161)
	s := GenerateForeignKey("S", r, 1<<16, 162)
	for _, tc := range []struct {
		name     string
		plan     *Plan
		priv     bool // the declaration lands on the private input
		wantSwap bool
	}{
		// A user sink pins the roles.
		{"pinned roles", joinPlan(r, s, NewCountSink()), true, false},
		// The max-sum aggregate lets the planner build on the smaller input.
		{"swapped roles", joinPlan(s, r, nil), false, true},
	} {
		e := New(WithWorkers(2), WithAutoPlan(true))
		opts := []Option{WithPresortedPrivate()}
		ex, err := e.Explain(tc.plan, opts...)
		if err != nil {
			t.Fatal(err)
		}
		join := ex.Nodes[2]
		if join.Swapped != tc.wantSwap || join.PresortedPrivate != tc.priv || join.PresortedPublic == tc.priv {
			t.Fatalf("%s: Explain shows %s", tc.name, ex)
		}
		if _, err := e.RunPlan(ctx, tc.plan, opts...); err != nil {
			t.Fatal(err)
		}
		// What RunPlan ran is the memo's plan: look it up again.
		ep, g, err := e.buildExecPlan(tc.plan, opts)
		if err != nil {
			t.Fatal(err)
		}
		if ep, err = e.memo.Optimize(ep, g.autoPlan); err != nil {
			t.Fatal(err)
		}
		if o := ep.Nodes[2].JoinOptions; e.memo.Stats().Hits != 1 || o.PresortedPrivate != tc.priv || o.PresortedPublic == tc.priv {
			t.Fatalf("%s: RunPlan ran presorted private=%v public=%v", tc.name, o.PresortedPrivate, o.PresortedPublic)
		}
	}
}

// --- Optimizer-safety property test -----------------------------------------

// randomPlanSpec drives the deterministic random plan generator.
type randomPlanSpec struct {
	rng *rand.Rand
}

// relationPool generates a small pool of base relations with varied shapes.
func (g *randomPlanSpec) relationPool() []*Relation {
	sizes := []int{0, 1, 513, 4096, 20000}
	pool := make([]*Relation, 0, 6)
	base := GenerateUniform("base", 8192, 1000+uint64(g.rng.Intn(100)))
	pool = append(pool, base)
	for i := 0; i < 4; i++ {
		n := sizes[g.rng.Intn(len(sizes))]
		seed := 2000 + uint64(g.rng.Intn(1000))
		var rel *Relation
		switch g.rng.Intn(4) {
		case 0:
			rel = GenerateUniform("u", n, seed)
		case 1:
			rel = GenerateSkewedWithDomain("sk", n, 1<<15, SkewLow80, seed)
		case 2:
			rel = GenerateForeignKey("fk", base, n, seed)
		default:
			rel = sortedRelation(GenerateForeignKey("sorted", base, n, seed))
		}
		pool = append(pool, rel)
	}
	return pool
}

// buildRandomPlan assembles a random valid logical plan over the pool:
// 1-3 joins (chain or using per-node algorithm overrides), optional scan
// predicates, and a random root (materialized join, project, aggregate, or
// sink).
func (g *randomPlanSpec) buildRandomPlan(pool []*Relation, algorithms []Algorithm) *Plan {
	plan := NewPlan()
	scan := func() PlanNode {
		rel := pool[g.rng.Intn(len(pool))]
		if g.rng.Intn(3) == 0 {
			cut := uint64(1) << (10 + g.rng.Intn(30))
			return plan.Scan(rel, func(t Tuple) bool { return t.Key < cut })
		}
		return plan.Scan(rel)
	}
	var joinOpts []Option
	if g.rng.Intn(2) == 0 {
		joinOpts = append(joinOpts, WithAlgorithm(algorithms[g.rng.Intn(len(algorithms))]))
	}
	node := plan.Join(scan(), scan(), joinOpts...)
	joins := g.rng.Intn(3)
	for i := 0; i < joins; i++ {
		var opts []Option
		if g.rng.Intn(2) == 0 {
			opts = append(opts, WithAlgorithm(algorithms[g.rng.Intn(len(algorithms))]))
		}
		node = plan.Join(node, scan(), opts...)
	}
	switch g.rng.Intn(4) {
	case 0:
		plan.GroupAggregate(node, []Agg{AggSum, AggMin, AggMax, AggCount}[g.rng.Intn(4)])
	case 1:
		plan.Project(node, func(r, s Tuple) Tuple { return Tuple{Key: r.Key, Payload: r.Payload ^ s.Payload} })
	case 2:
		plan.Sink(node, nil)
	default:
		// The join itself is the root: materialized default projection.
	}
	return plan
}

// runPlanOutputs executes a plan and reduces the outcome to a comparable
// form: the output multiset, or (Matches, MaxSum) for sink roots.
func runPlanOutputs(t *testing.T, engine *Engine, plan *Plan, opts ...Option) ([]Tuple, uint64, uint64) {
	t.Helper()
	res, err := engine.RunPlan(context.Background(), plan, opts...)
	if err != nil {
		t.Fatalf("RunPlan: %v", err)
	}
	if res.Output != nil {
		return res.Output.Tuples, 0, 0
	}
	return nil, res.Matches, res.MaxSum
}

// TestOptimizerSafetyProperty: any valid logical plan must optimize to a
// plan that still validates and produces multiset-identical results to the
// unoptimized execution, across all five algorithms as the engine default.
func TestOptimizerSafetyProperty(t *testing.T) {
	algorithms := []Algorithm{PMPSM, BMPSM, DMPSM, Wisconsin, RadixHash}
	const rounds = 12
	for seed := int64(0); seed < rounds; seed++ {
		g := &randomPlanSpec{rng: rand.New(rand.NewSource(seed))}
		pool := g.relationPool()
		for _, alg := range algorithms {
			g.rng = rand.New(rand.NewSource(seed*31 + int64(alg)))
			manual := New(WithWorkers(2), WithAlgorithm(alg))
			auto := New(WithWorkers(2), WithAlgorithm(alg), WithAutoPlan(true), WithScratchPool(true))

			plan := g.buildRandomPlan(pool, algorithms)
			wantOut, wantMatches, wantMax := runPlanOutputs(t, manual, plan)
			gotOut, gotMatches, gotMax := runPlanOutputs(t, auto, plan)

			if !relation.SameMultiset(wantOut, gotOut) || wantMatches != gotMatches || wantMax != gotMax {
				ex, _ := auto.Explain(plan)
				t.Fatalf("seed %d alg %v: optimized plan diverged (%d vs %d tuples, matches %d vs %d)\nplan:\n%s",
					seed, alg, len(wantOut), len(gotOut), wantMatches, gotMatches, ex)
			}
		}
	}
}

// FuzzOptimizerSafety drives the same property from fuzzed seeds.
func FuzzOptimizerSafety(f *testing.F) {
	for _, seed := range []int64{1, 7, 42} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		g := &randomPlanSpec{rng: rand.New(rand.NewSource(seed))}
		pool := g.relationPool()
		plan := g.buildRandomPlan(pool, []Algorithm{PMPSM, BMPSM, DMPSM, Wisconsin, RadixHash})
		manual := New(WithWorkers(2))
		auto := New(WithWorkers(2), WithAutoPlan(true))
		wantOut, wantMatches, wantMax := runPlanOutputs(t, manual, plan)
		gotOut, gotMatches, gotMax := runPlanOutputs(t, auto, plan)
		if !relation.SameMultiset(wantOut, gotOut) || wantMatches != gotMatches || wantMax != gotMax {
			t.Fatalf("seed %d: optimized plan diverged", seed)
		}
	})
}
