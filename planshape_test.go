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
			fmt.Fprintf(&b, " %s %s swapped=%t → %s", n.Algorithm, n.Scheduler, n.Swapped, n.Output)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestGateShapesPlanStably: for every plan shape the gated benchmark runs
// auto-planned, at the worker counts 2 and 8, the physical plan is the same
// on every optimizer run and for every seed of the generator — a plan that
// flips between launches shows up as spread on the gated metric. At two
// workers, where the plans were measured, it is also the kind the measurements
// call for: the joins under chain3's and agg2's group-by run on an MPSM
// variant, whose range output the group-by folds, and the 4 096 × 16 384 join
// keeps a hash join. Which algorithm wins at eight workers is the model's
// extrapolation, measured on no host, and is not pinned.
func TestGateShapesPlanStably(t *testing.T) {
	for _, workers := range []int{2, 8} {
		for _, shape := range gateShapes {
			var first string
			for seed := uint64(1); seed <= 3; seed++ {
				cat := gateCatalog(seed)
				for run := 0; run < 3; run++ {
					engine := New(WithWorkers(workers), WithAutoPlan(true)) // a fresh engine: nothing cached
					ex, err := engine.Explain(gatePlan(t, shape.query, cat))
					if err != nil {
						t.Fatal(err)
					}
					plan := physicalPlan(ex)
					if first == "" {
						first = plan
					}
					if plan != first {
						t.Fatalf("%s at %d workers, seed %d run %d: the plan changed\n--- first ---\n%s--- now ---\n%s", shape.name, workers, seed, run, first, plan)
					}
					if run > 0 || seed > 1 || workers != 2 {
						continue
					}
					var joins []ExplainNode
					for _, n := range ex.Nodes {
						if n.Kind == "Join" {
							joins = append(joins, n)
						}
					}
					top := joins[len(joins)-1]
					mpsmVariant := top.Algorithm == PMPSM.String() || top.Algorithm == BMPSM.String()
					switch shape.name {
					case "agg2", "chain3":
						if !mpsmVariant {
							t.Errorf("%s at %d workers: the join under the group-by runs on %s, want an MPSM variant\n%s", shape.name, workers, top.Algorithm, ex)
						}
					case "short":
						if mpsmVariant {
							t.Errorf("short at %d workers: the 4 096 × 16 384 join runs on %s, want a hash join\n%s", workers, top.Algorithm, ex)
						}
					}
				}
			}
		}
	}
}

// TestGateShapesChosenPlanIsNearTheBest measures, under MPSM_PERF_ASSERT=1
// only, every gate shape auto-planned against the same plan forced onto each
// algorithm (interleaved, pooled, medians of the plan execution time, which
// leaves out the optimizer call a plan cache saves): the chosen plan must be
// within 15 % of the best forced one. Wall-clock ratios stay out of tier-1.
// The range template is measured and logged, not asserted: its scan's key
// range does not reach the join's cardinality estimate (305 152 rows against
// 4 234), so it plans as the full join and misses the hash join a 1 027-tuple
// build side calls for — an open item in ROADMAP ("Truth the planner").
func TestGateShapesChosenPlanIsNearTheBest(t *testing.T) {
	if os.Getenv("MPSM_PERF_ASSERT") == "" {
		t.Skip("wall-clock assertion: runs only under MPSM_PERF_ASSERT=1")
	}
	const workers, reps = 2, 15
	ctx := context.Background()
	cat := gateCatalog(1)
	engine := New(WithWorkers(workers), WithScratchPool(true))
	for _, shape := range gateShapes {
		plan := gatePlan(t, shape.query, cat)
		variants := []struct {
			name string
			opts []Option
		}{{"auto", []Option{WithAutoPlan(true)}}}
		for _, alg := range []Algorithm{PMPSM, BMPSM, Wisconsin, RadixHash} {
			if shape.name == "band" && (alg == Wisconsin || alg == RadixHash) {
				continue // band joins run on the MPSM variants only
			}
			variants = append(variants, struct {
				name string
				opts []Option
			}{alg.String(), []Option{WithAlgorithm(alg), WithAutoPlan(false)}})
		}
		times := make([][]float64, len(variants))
		for rep := 0; rep < reps+2; rep++ {
			for k := range variants {
				// Rotate who follows whom: a plan runs faster right behind
				// one that leased the same buffers.
				v := (rep + k) % len(variants)
				variant := variants[v]
				res, err := engine.RunPlan(ctx, plan, variant.opts...)
				if err != nil {
					t.Fatal(err)
				}
				if rep >= 2 { // two warm-up rounds fill the pool
					times[v] = append(times[v], float64(res.Total))
				}
			}
		}
		median := func(v []float64) float64 { sort.Float64s(v); return v[len(v)/2] }
		auto, best, bestName, all := median(times[0]), 0.0, "", ""
		for v := 1; v < len(variants); v++ {
			m := median(times[v])
			if bestName == "" || m < best {
				best, bestName = m, variants[v].name
			}
			all += fmt.Sprintf(" %s %.2f", variants[v].name, m/1e6)
		}
		t.Logf("%s: auto %.2f ms; forced%s", shape.name, auto/1e6, all)
		if auto > 1.15*best && shape.name != "range" {
			t.Errorf("%s: the chosen plan takes %.2f ms, all-%s takes %.2f ms (more than 15 %% apart)", shape.name, auto/1e6, bestName, best/1e6)
		}
	}
}
