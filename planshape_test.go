package mpsm

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/workload"
)

// gateCatalog generates the relations of the benchmark's query_mix and
// short_concurrent workloads with this repository's generator: a, the
// foreign-key relations b and c, the dense d and e of the band template, and
// one short_concurrent pair. Payloads stay below 10^6 as the benchmark's do,
// so the agg2 constant selects about half of a.
func gateCatalog(seed uint64) MapCatalog {
	const keyDomain, payloads = 1 << 32, 1_000_000
	a := workload.UniformRelation("a", 65_536, keyDomain, seed)
	r := workload.UniformRelation("r", 4_096, keyDomain, seed+5)
	cat := MapCatalog{
		"a": a,
		"b": workload.ForeignKeyRelation("b", a, 262_144, seed+1),
		"c": workload.ForeignKeyRelation("c", a, 262_144, seed+2),
		"d": workload.UniformRelation("d", 32_768, 1<<18, seed+3),
		"e": workload.UniformRelation("e", 32_768, 1<<18, seed+4),
		"r": r,
		"s": workload.ForeignKeyRelation("s", r, 16_384, seed+6),
	}
	for _, rel := range cat {
		for i := range rel.Tuples {
			rel.Tuples[i].Payload %= payloads
		}
	}
	return cat
}

// gateShapes are the plans the gated benchmark runs auto-planned: the four
// query_mix templates and short_concurrent's join into the max-sum sink.
var gateShapes = []struct{ name, query string }{
	{"agg2", "ans(K,S) :- a(K,X), b(K,Y), X > 500000, agg sum(Y)"},
	{"chain3", "ans(K,S) :- a(K,X), b(K,Y), c(K,Z), agg sum(Z)"},
	{"range", "ans(K,Y) :- a(K,_), b(K,Y), K >= 0, K < 67108864"},
	{"band", "ans(K,C) :- d(K,X), e(J,Y), |K - J| <= 16, agg count(*)"},
	{"short", ""}, // r ⋈ s, built by hand: /v1/join has no query text
}

// gatePlan builds one shape over a catalog.
func gatePlan(t *testing.T, query string, cat MapCatalog) *Plan {
	t.Helper()
	if query == "" {
		p := NewPlan()
		p.Sink(p.Join(p.Scan(cat["r"]), p.Scan(cat["s"])), nil)
		return p
	}
	p, err := Compile(query, cat)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// physicalPlan renders what the optimizer decided — operators, inputs,
// algorithms, scheduling, what each join hands on — without the estimates,
// which differ with the data.
func physicalPlan(ex *Explain) string {
	var b strings.Builder
	for _, n := range ex.Nodes {
		fmt.Fprintf(&b, "%d %s%v", n.ID, n.Kind, n.Inputs)
		if n.Algorithm != "" {
			fmt.Fprintf(&b, " %s %s workers=%d of %d swapped=%t → %s", n.Algorithm, n.Scheduler, n.Workers, n.WorkersBound, n.Swapped, n.Output)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestGateShapesPlanStably: for every plan shape the gated benchmark runs
// auto-planned, under the worker bounds 2 and 8, the physical plan — worker
// counts included — is the same on every optimizer run and for every seed of
// the generator: a plan that flips between launches shows up as spread on the
// gated metric. It is also the kind the measurements call for. Every join of
// the five shapes runs on one worker whatever the bound: none of them returns
// half a worker's worth for a second one (TestWorkerLadderModel holds the
// model to the measured ladder). The joins under chain3's and agg2's group-by
// run on an MPSM variant, whose range output the group-by folds, and the
// 4 096 × 16 384 join keeps a hash join.
func TestGateShapesPlanStably(t *testing.T) {
	for _, bound := range []int{2, 8} {
		for _, shape := range gateShapes {
			var first string
			for seed := uint64(1); seed <= 3; seed++ {
				cat := gateCatalog(seed)
				for run := 0; run < 3; run++ {
					engine := New(WithWorkers(bound), WithAutoPlan(true)) // a fresh engine: nothing cached
					ex, err := engine.Explain(gatePlan(t, shape.query, cat))
					if err != nil {
						t.Fatal(err)
					}
					plan := physicalPlan(ex)
					if first == "" {
						first = plan
					}
					if plan != first {
						t.Fatalf("%s under a bound of %d workers, seed %d run %d: the plan changed\n--- first ---\n%s--- now ---\n%s", shape.name, bound, seed, run, first, plan)
					}
					if run > 0 || seed > 1 {
						continue
					}
					var joins []ExplainNode
					for _, n := range ex.Nodes {
						if n.Kind != "Join" {
							continue
						}
						joins = append(joins, n)
						if n.Workers != 1 || n.WorkersBound != bound {
							t.Errorf("%s: join %d runs on %d of %d workers, want 1 of %d\n%s", shape.name, n.ID, n.Workers, n.WorkersBound, bound, ex)
						}
					}
					top := joins[len(joins)-1]
					mpsmVariant := top.Algorithm == PMPSM.String() || top.Algorithm == BMPSM.String()
					switch shape.name {
					case "agg2", "chain3":
						if !mpsmVariant {
							t.Errorf("%s under a bound of %d workers: the join under the group-by runs on %s, want an MPSM variant\n%s", shape.name, bound, top.Algorithm, ex)
						}
					case "short":
						if mpsmVariant {
							t.Errorf("short under a bound of %d workers: the 4 096 × 16 384 join runs on %s, want a hash join\n%s", bound, top.Algorithm, ex)
						}
					}
				}
			}
		}
	}
}

// TestWorkerCountGrowsWithTheInput: under either bound, a larger join never
// gets fewer workers than a smaller one of the same shape — |R| × 4|R| foreign
// keys into the max-sum sink, |R| doubling from 4 096 to 524 288 — the
// smallest runs on one, and the largest, join_large's sizes auto-planned, on
// both of two.
func TestWorkerCountGrowsWithTheInput(t *testing.T) {
	for _, bound := range []int{2, 8} {
		engine := New(WithWorkers(bound), WithAutoPlan(true))
		prev, chosen := 0, 0
		for n := 4096; n <= 524288; n *= 2 {
			r := workload.UniformRelation("r", n, 1<<32, 1)
			p := NewPlan()
			p.Sink(p.Join(p.Scan(r), p.Scan(workload.ForeignKeyRelation("s", r, 4*n, 2))), nil)
			ex, err := engine.Explain(p)
			if err != nil {
				t.Fatal(err)
			}
			join := ex.Nodes[2]
			chosen = join.Workers
			if chosen < prev || chosen < 1 || chosen > bound {
				t.Errorf("bound %d: %d × %d runs on %d workers, the join half its size on %d\n%s", bound, n, 4*n, chosen, prev, ex)
			}
			if n == 4096 && chosen != 1 {
				t.Errorf("bound %d: 4 096 × 16 384 runs on %d workers, want 1\n%s", bound, chosen, ex)
			}
			prev = chosen
		}
		if chosen < 2 || (bound == 2 && chosen != 2) {
			t.Errorf("bound %d: 524 288 × 2 097 152 runs on %d workers, want every one of two", bound, chosen)
		}
	}
}

// TestGateShapesChosenPlanIsNearTheBest measures, under MPSM_PERF_ASSERT=1
// only, every gate shape auto-planned under a bound of two workers against the
// same plan forced onto each algorithm at one worker and at two (interleaved,
// pooled, medians of the plan execution time, which leaves out the optimizer
// call a plan cache saves): the chosen plan must be within 15 % of the best
// plan forced onto the worker count the planner chose. What the forced plans
// take on the other count is logged beside it: on an idle host the two-worker
// plans of agg2 and chain3 are the faster ones, by less than the efficiency
// floor asks of a second worker. Wall-clock ratios stay out of tier-1.
func TestGateShapesChosenPlanIsNearTheBest(t *testing.T) {
	if os.Getenv("MPSM_PERF_ASSERT") == "" {
		t.Skip("wall-clock assertion: runs only under MPSM_PERF_ASSERT=1")
	}
	const bound, reps = 2, 15
	ctx := context.Background()
	cat := gateCatalog(1)
	engine := New(WithWorkers(bound), WithScratchPool(true))
	type variant struct {
		name    string
		workers int // 0: the planner's choice
		opts    []Option
	}
	for _, shape := range gateShapes {
		plan := gatePlan(t, shape.query, cat)
		variants := []variant{{"auto", 0, []Option{WithAutoPlan(true)}}}
		for _, alg := range []Algorithm{PMPSM, BMPSM, Wisconsin, RadixHash} {
			if shape.name == "band" && (alg == Wisconsin || alg == RadixHash) {
				continue // band joins run on the MPSM variants only
			}
			for w := 1; w <= bound; w++ {
				variants = append(variants, variant{fmt.Sprintf("%v@%d", alg, w), w, []Option{WithAlgorithm(alg), WithAutoPlan(false), WithWorkers(w)}})
			}
		}
		times := make([][]float64, len(variants))
		chosen := 0
		for rep := 0; rep < reps+2; rep++ {
			for k := range variants {
				// Rotate who follows whom: a plan runs faster right behind
				// one that leased the same buffers.
				v := (rep + k) % len(variants)
				res, err := engine.RunPlan(ctx, plan, variants[v].opts...)
				if err != nil {
					t.Fatal(err)
				}
				if rep >= 2 { // two warm-up rounds fill the pool
					times[v] = append(times[v], float64(res.Total))
				}
				if v == 0 {
					for _, j := range res.Joins {
						chosen = max(chosen, j.Result.Workers)
					}
				}
			}
		}
		median := func(v []float64) float64 { sort.Float64s(v); return v[len(v)/2] }
		auto, best, bestName, all := median(times[0]), 0.0, "", ""
		for v := 1; v < len(variants); v++ {
			m := median(times[v])
			if variants[v].workers == chosen && (bestName == "" || m < best) {
				best, bestName = m, variants[v].name
			}
			all += fmt.Sprintf(" %s %.2f", variants[v].name, m/1e6)
		}
		t.Logf("%s: auto %.2f ms on %d of %d workers; forced%s", shape.name, auto/1e6, chosen, bound, all)
		if auto > 1.15*best {
			t.Errorf("%s: the chosen plan takes %.2f ms, all-%s takes %.2f ms (more than 15 %% apart)", shape.name, auto/1e6, bestName, best/1e6)
		}
	}
}
