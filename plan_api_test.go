package mpsm

import (
	"context"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// hashAggregate is the reference group-by over (key, value) tuples: a plain
// hash aggregation sorted by key, sharing no code with the plan executor.
func hashAggregate(tuples []Tuple, agg Agg) []Tuple {
	type acc struct {
		val   uint64
		count uint64
	}
	groups := make(map[uint64]*acc)
	for _, t := range tuples {
		a, ok := groups[t.Key]
		if !ok {
			groups[t.Key] = &acc{val: t.Payload, count: 1}
			continue
		}
		a.count++
		switch agg {
		case AggSum:
			a.val += t.Payload
		case AggMin:
			if t.Payload < a.val {
				a.val = t.Payload
			}
		case AggMax:
			if t.Payload > a.val {
				a.val = t.Payload
			}
		}
	}
	out := make([]Tuple, 0, len(groups))
	for k, a := range groups {
		v := a.val
		if agg == AggCount {
			v = a.count
		}
		out = append(out, Tuple{Key: k, Payload: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// materializedJoin runs one engine join and materializes the default
// projection, the manual counterpart of a join feeding another operator.
func materializedJoin(t *testing.T, engine *Engine, r, s *Relation, opts ...Option) *Relation {
	t.Helper()
	snk := NewMaterializeSink()
	if _, err := engine.Join(context.Background(), r, s, append(opts, WithSink(snk))...); err != nil {
		t.Fatal(err)
	}
	return snk.Relation("intermediate")
}

// TestRunPlanThreeWayParity is the acceptance check of the operator layer: a
// 3-way plan (R ⋈ S) ⋈ T followed by a GroupAggregate must produce exactly
// the groups of manually composed pairwise joins plus a reference hash
// aggregation, for every algorithm as the first join under both schedulers.
func TestRunPlanThreeWayParity(t *testing.T) {
	r := GenerateUniform("R", 1500, 501)
	s := GenerateForeignKey("S", r, 3000, 502)
	tr := GenerateForeignKey("T", r, 2000, 503)

	for _, mode := range []Scheduler{Static, Morsel} {
		engine := New(WithWorkers(4), WithScheduler(mode), WithScratchPool(true))

		for _, alg := range allAlgorithms {
			// Manual composition through the classic one-join API.
			inter := materializedJoin(t, engine, r, s, WithAlgorithm(alg))
			joined := materializedJoin(t, engine, inter, tr)
			want := hashAggregate(joined.Tuples, AggSum)

			plan := NewPlan()
			pr := plan.Scan(r)
			ps := plan.Scan(s)
			pt := plan.Scan(tr)
			j1 := plan.Join(pr, ps, WithAlgorithm(alg))
			j2 := plan.Join(j1, pt, WithAlgorithm(PMPSM))
			plan.GroupAggregate(j2, AggSum)

			res, err := engine.RunPlan(context.Background(), plan)
			if err != nil {
				t.Fatalf("%v/%v: %v", alg, mode, err)
			}
			if !reflect.DeepEqual(res.Output.Tuples, want) {
				t.Fatalf("%v/%v: plan groups diverge from manual composition (%d vs %d groups)",
					alg, mode, res.Output.Len(), len(want))
			}
			if len(res.Joins) != 2 {
				t.Fatalf("%v/%v: %d join results, want 2", alg, mode, len(res.Joins))
			}
			if res.Joins[0].Result.Matches != uint64(inter.Len()) {
				t.Fatalf("%v/%v: first join matched %d, manual %d",
					alg, mode, res.Joins[0].Result.Matches, inter.Len())
			}
			if alg == DMPSM && res.Joins[0].Disk == nil {
				t.Fatalf("%v/%v: missing disk stats on the D-MPSM join", alg, mode)
			}
		}
	}
}

func TestRunPlanSinkTerminalMatchesJoin(t *testing.T) {
	r := GenerateUniform("R", 1000, 504)
	s := GenerateForeignKey("S", r, 4000, 505)
	engine := New(WithWorkers(4))

	direct, err := engine.Join(context.Background(), r, s)
	if err != nil {
		t.Fatal(err)
	}

	plan := NewPlan()
	plan.Sink(plan.Join(plan.Scan(r), plan.Scan(s)), nil)
	res, err := engine.RunPlan(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != nil {
		t.Fatal("sink-terminated plan should not materialize an output relation")
	}
	if res.Matches != direct.Matches || res.MaxSum != direct.MaxSum {
		t.Fatalf("plan (%d, %d) != direct join (%d, %d)", res.Matches, res.MaxSum, direct.Matches, direct.MaxSum)
	}
}

func TestRunPlanSelfJoinSharedScan(t *testing.T) {
	r := GenerateUniform("R", 800, 506)
	engine := New(WithWorkers(2))

	plan := NewPlan()
	scan := plan.Scan(r)
	plan.Sink(plan.Join(scan, scan), nil)
	res, err := engine.RunPlan(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(len(nestedLoopJoin(r, r)))
	if res.Matches != want {
		t.Fatalf("self join matched %d, oracle %d", res.Matches, want)
	}
}

func TestRunPlanScanPredicatePushdown(t *testing.T) {
	r := GenerateUniform("R", 2000, 507)
	s := GenerateForeignKey("S", r, 4000, 508)
	engine := New(WithWorkers(4))
	keep := func(t Tuple) bool { return t.Key%2 == 0 }

	plan := NewPlan()
	plan.Sink(plan.Join(plan.Scan(r, keep), plan.Scan(s, keep)), nil)
	res, err := engine.RunPlan(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}

	var want uint64
	for _, p := range nestedLoopJoin(r, s) {
		if keep(p.R) && keep(p.S) {
			want++
		}
	}
	if res.Matches != want {
		t.Fatalf("filtered plan matched %d, oracle %d", res.Matches, want)
	}
	if res.ScanTime <= 0 {
		t.Fatal("plan did not record scan time for predicated scans")
	}
}

func TestRunPlanBuilderErrors(t *testing.T) {
	r := GenerateUniform("R", 100, 509)
	engine := New()

	if _, err := engine.RunPlan(context.Background(), NewPlan()); err == nil {
		t.Fatal("empty plan accepted")
	}
	if _, err := engine.RunPlan(context.Background(), nil); err == nil {
		t.Fatal("nil plan accepted")
	}

	// A node handle from one plan must not wire into another.
	other := NewPlan()
	foreign := other.Scan(r)
	plan := NewPlan()
	plan.Join(plan.Scan(r), foreign)
	if _, err := engine.RunPlan(context.Background(), plan); err == nil {
		t.Fatal("cross-plan node handle accepted")
	}

	// Unterminated multi-root plans are rejected by validation.
	dangling := NewPlan()
	dangling.Scan(r)
	dangling.Scan(r)
	if _, err := engine.RunPlan(context.Background(), dangling); err == nil {
		t.Fatal("multi-root plan accepted")
	}
}

func TestRunPlanPerNodeOptionsOverride(t *testing.T) {
	r := GenerateUniform("R", 1000, 510)
	s := GenerateForeignKey("S", r, 2000, 511)
	// Engine default Wisconsin; the node override forces B-MPSM, whose
	// result carries the algorithm name.
	engine := New(WithWorkers(2), WithAlgorithm(Wisconsin))

	plan := NewPlan()
	plan.Sink(plan.Join(plan.Scan(r), plan.Scan(s), WithAlgorithm(BMPSM)), nil)
	res, err := engine.RunPlan(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Joins) != 1 || res.Joins[0].Result.Algorithm != "B-MPSM" {
		t.Fatalf("per-node algorithm override ignored: %+v", res.Joins[0].Result.Algorithm)
	}
}

// TestExplainAnalyzeAttributesFusedAggregate: an aggregate fused into its
// join through a Project reports the time its finalisation took — on the
// node, in the rendered tree and summed into PlanResult.AggTime — and the
// never-materialized Project shows the join's match count as its actual rows.
func TestExplainAnalyzeAttributesFusedAggregate(t *testing.T) {
	r := GenerateUniform("R", 1<<13, 141)
	s := GenerateForeignKey("S", r, 1<<15, 142)
	plan := NewPlan()
	j := plan.Join(plan.Scan(r), plan.Scan(s))
	proj := plan.Project(j, func(rt, st Tuple) Tuple { return Tuple{Key: rt.Key, Payload: st.Payload} })
	plan.GroupAggregate(proj, AggMax)

	for _, alg := range []Algorithm{PMPSM, Wisconsin} {
		engine := New(WithWorkers(2), WithAlgorithm(alg), WithScratchPool(true))
		ex, res, err := engine.ExplainAnalyze(context.Background(), plan)
		if err != nil {
			t.Fatal(err)
		}
		want := hashAggregate(materializedJoin(t, engine, r, s).Tuples, AggCount) // one group per joined key
		if res.Output.Len() != len(want) {
			t.Fatalf("%v: %d groups, want %d", alg, res.Output.Len(), len(want))
		}
		join, project, agg := ex.Nodes[2], ex.Nodes[3], ex.Nodes[4]
		if project.ActualRows != join.ActualRows || join.ActualRows != int64(res.Joins[0].Result.Matches) {
			t.Errorf("%v: fused Project reports %d rows, join %d, matches %d", alg, project.ActualRows, join.ActualRows, res.Joins[0].Result.Matches)
		}
		if agg.AggMillis <= 0 || res.AggTime <= 0 || !strings.Contains(ex.String(), " agg=") {
			t.Errorf("%v: aggregate time not attributed: node %.3fms, result %v\n%s", alg, agg.AggMillis, res.AggTime, ex)
		}
		if res.AggTime > res.Total {
			t.Errorf("%v: AggTime %v exceeds the plan's total %v", alg, res.AggTime, res.Total)
		}
	}
}
