package mpsm

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
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

// gateConstants returns a shape's query at the other constants the benchmark
// sends: query_mix's 16 pooled agg2 thresholds, range lower bounds and band
// widths, and a few of the never-seen agg2 thresholds and range bounds its
// plan-cache misses carry, computed as the benchmark's request computes them.
func gateConstants(name string) []string {
	const rangeWidth = 1 << 26
	var qs []string
	for j := uint64(0); j < 16; j++ {
		switch name {
		case "agg2":
			qs = append(qs, fmt.Sprintf("ans(K,S) :- a(K,X), b(K,Y), X > %d, agg sum(Y)", 400_000+12_500*j))
		case "range":
			qs = append(qs, fmt.Sprintf("ans(K,Y) :- a(K,_), b(K,Y), K >= %d, K < %d", j<<27, j<<27+rangeWidth))
		case "band":
			qs = append(qs, fmt.Sprintf("ans(K,C) :- d(K,X), e(J,Y), |K - J| <= %d, agg count(*)", 2*(j+1)))
		}
	}
	for fresh := uint64(0); fresh < 8; fresh++ {
		switch name {
		case "agg2":
			qs = append(qs, fmt.Sprintf("ans(K,S) :- a(K,X), b(K,Y), X > %d, agg sum(Y)", 400_001+2*(fresh*7919%100_000)))
		case "range":
			lo := 1 + fresh*7919%64_000<<16
			qs = append(qs, fmt.Sprintf("ans(K,Y) :- a(K,_), b(K,Y), K >= %d, K < %d", lo, lo+rangeWidth))
		}
	}
	return qs
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
		switch {
		case n.Algorithm != "":
			fmt.Fprintf(&b, " %s %s workers=%d of %d swapped=%t → %s", n.Algorithm, n.Scheduler, n.Workers, n.WorkersBound, n.Swapped, n.Output)
		case n.GroupJoin != "":
			fmt.Fprintf(&b, " groupjoin %s workers=%d of %d", n.GroupJoin, n.Workers, n.WorkersBound)
		case n.Fused:
			b.WriteString(" fused")
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestGateShapesPlanStably: for every plan shape the gated benchmark runs
// auto-planned, under the worker bounds 2 and 8, the physical plan — worker
// counts included — is the same on every optimizer run, for every seed of the
// generator and for every constant the benchmark sends (gateConstants): a
// plan that flips between launches or constants shows up as spread on the
// gated metric. It is also the kind the measurements call for. Every join and
// groupjoin of the five shapes runs on one worker whatever the bound: none of
// them returns half a worker's worth for a second one (TestWorkerLadderModel
// holds the model to the measured ladder). chain3's and agg2's group-by by the
// join key runs as a groupjoin on a, the smallest leaf, with every join below
// it fused: neither b nor c is sorted, and chain3 builds no intermediate. The
// band join under its count is no equi-join and keeps its MPSM variant, the
// range query has no group-by, and the 4 096 × 16 384 join into the max-sum
// sink keeps a hash join.
func TestGateShapesPlanStably(t *testing.T) {
	for _, bound := range []int{2, 8} {
		for _, shape := range gateShapes {
			var first string
			queries := append([]string{shape.query}, gateConstants(shape.name)...)
			for seed := uint64(1); seed <= 3; seed++ {
				cat := gateCatalog(seed)
				for run := 0; run < 3*len(queries); run++ {
					query := queries[run/3]
					engine := New(WithWorkers(bound), WithAutoPlan(true)) // a fresh engine: nothing cached
					ex, err := engine.Explain(gatePlan(t, query, cat))
					if err != nil {
						t.Fatal(err)
					}
					plan := physicalPlan(ex)
					if first == "" {
						first = plan
					}
					if plan != first {
						t.Fatalf("%s under a bound of %d workers, seed %d run %d, %q: the plan changed\n--- first ---\n%s--- now ---\n%s", shape.name, bound, seed, run%3, query, first, plan)
					}
					if run > 0 || seed > 1 {
						continue
					}
					var running, fused []ExplainNode
					groupJoin := ""
					for _, n := range ex.Nodes {
						switch {
						case n.Fused:
							fused = append(fused, n)
							continue
						case n.GroupJoin != "":
							groupJoin = n.GroupJoin
						case n.Kind != "Join":
							continue
						default:
							running = append(running, n)
						}
						if n.Workers != 1 || n.WorkersBound != bound {
							t.Errorf("%s: node %d runs on %d of %d workers, want 1 of %d\n%s", shape.name, n.ID, n.Workers, n.WorkersBound, bound, ex)
						}
					}
					want := map[string]string{"agg2": "on a: b→sum", "chain3": "on a: b→count, c→sum"}[shape.name]
					if groupJoin != want || (want != "") != (len(fused) > 0 && len(running) == 0) {
						t.Errorf("%s under a bound of %d workers: groupjoin %q over %d fused and %d running joins, want %q over fused joins only\n%s", shape.name, bound, groupJoin, len(fused), len(running), want, ex)
					}
					if shape.name == "short" {
						if top := running[0].Algorithm; top == PMPSM.String() || top == BMPSM.String() {
							t.Errorf("short under a bound of %d workers: the 4 096 × 16 384 join runs on %s, want a hash join\n%s", bound, top, ex)
						}
					}
				}
			}
		}
	}
}

// TestRangeMissingTheSampleIsNotEmpty: a key range 2^20 keys wide holds about
// 16 of a's 65 536 tuples and 64 of b's 262 144, none of them among the 2 048
// each profile samples. Its scans are estimated at half a sampled tuple's
// share, 16 and 64 rows, not at 0 — a scan estimated empty counts as
// presorted, and the join over them was priced at nothing on P-MPSM with both
// inputs declared presorted. A range with High <= Low is provably empty and
// stays estimated at 0.
func TestRangeMissingTheSampleIsNotEmpty(t *testing.T) {
	cat := gateCatalog(1)
	scans := func(query string) (a, b float64, join ExplainNode) {
		ex, err := New(WithWorkers(2), WithAutoPlan(true)).Explain(gatePlan(t, query, cat))
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range ex.Nodes {
			switch {
			case n.Relation == "a":
				a = n.EstRows
			case n.Relation == "b":
				b = n.EstRows
			case n.Kind == "Join":
				join = n
			}
		}
		return a, b, join
	}
	const low, high = 268435456, 269484032
	for _, rel := range []string{"a", "b"} {
		if !slices.ContainsFunc(cat[rel].Tuples, func(tup Tuple) bool { return tup.Key >= low && tup.Key < high }) {
			t.Fatalf("no tuple of %s lies in [%d, %d)", rel, low, high)
		}
	}
	a, b, join := scans(fmt.Sprintf("ans(K,Y) :- a(K,_), b(K,Y), K >= %d, K < %d", low, high))
	if a != 16 || b != 64 {
		t.Errorf("the range's scans are estimated at %g rows of a and %g of b, want 16 and 64", a, b)
	}
	if join.PresortedPrivate || join.PresortedPublic {
		t.Errorf("the join over the range's shuffled scans declares them presorted (%s)", join.Algorithm)
	}
	if a, b, _ := scans(fmt.Sprintf("ans(K,Y) :- a(K,_), b(K,Y), K >= %d, K < %d", low, low)); a != 0 || b != 0 {
		t.Errorf("the empty range's scans are estimated at %g and %g rows, want 0", a, b)
	}
}

// TestHashJoinExplainsWhatItHandsOn: the 4 096 × 16 384 join into the default
// sink — auto-planned onto a hash join, or pinned to either — hands on no
// pairs, because its probe loop folds them into (count, max), and so does it
// into the count sink; into a sink that keeps pairs it hands on range entries,
// one per matching probe tuple, in probe order.
func TestHashJoinExplainsWhatItHandsOn(t *testing.T) {
	cat := gateCatalog(1)
	configs := map[string][]Option{
		"auto":      {WithAutoPlan(true)},
		"Wisconsin": {WithAlgorithm(Wisconsin)},
		"Radix HJ":  {WithAlgorithm(RadixHash)},
	}
	for name, opts := range configs {
		for _, c := range []struct {
			sink Sink
			want string
		}{
			{nil, "folded (count, max)"},
			{NewCountSink(), "folded (count, max)"},
			{NewMaterializeSink(), "ranges, probe order"},
		} {
			p := NewPlan()
			p.Sink(p.Join(p.Scan(cat["r"]), p.Scan(cat["s"])), c.sink)
			ex, err := New(WithWorkers(2)).Explain(p, opts...)
			if err != nil {
				t.Fatal(err)
			}
			join := ex.Nodes[2]
			if join.Algorithm != Wisconsin.String() && join.Algorithm != RadixHash.String() {
				t.Fatalf("%s: the join runs on %s, want a hash join\n%s", name, join.Algorithm, ex)
			}
			if join.Output != c.want || !strings.Contains(ex.String(), "→ "+c.want) {
				t.Errorf("%s into %T: the join hands on %q, want %q\n%s", name, c.sink, join.Output, c.want, ex)
			}
		}
	}
}

// TestMergeJoinExplainsWhatItHandsOn: the same join pinned to B-, P- or
// D-MPSM folds into (count, max) in its merge loop behind the default and the
// count sink, and Explain says so; into a sink that keeps pairs, and as a band
// or semi join into the default sink, it hands on key-ordered range entries.
func TestMergeJoinExplainsWhatItHandsOn(t *testing.T) {
	cat := gateCatalog(1)
	for _, alg := range []Algorithm{PMPSM, BMPSM, DMPSM} {
		for _, c := range []struct {
			name   string
			sink   Sink
			join   []Option
			folded bool
		}{
			{"default", nil, nil, true},
			{"count", NewCountSink(), nil, true},
			{"materialize", NewMaterializeSink(), nil, false},
			{"band", nil, []Option{WithBandWidth(3)}, false},
			{"semi", nil, []Option{WithKind(SemiJoin)}, false},
		} {
			if alg == DMPSM && c.join != nil {
				continue // D-MPSM joins inner equi-joins only
			}
			p := NewPlan()
			p.Sink(p.Join(p.Scan(cat["r"]), p.Scan(cat["s"]), c.join...), c.sink)
			ex, err := New(WithWorkers(2)).Explain(p, WithAlgorithm(alg))
			if err != nil {
				t.Fatal(err)
			}
			join := ex.Nodes[2]
			if join.Algorithm != alg.String() {
				t.Fatalf("%v %s: the join runs on %s\n%s", alg, c.name, join.Algorithm, ex)
			}
			if folded := join.Output == "folded (count, max)"; folded != c.folded {
				t.Errorf("%v %s: the join hands on %q, want folded %t\n%s", alg, c.name, join.Output, c.folded, ex)
			}
			if !c.folded && !strings.HasPrefix(join.Output, "ranges, key-ordered") {
				t.Errorf("%v %s: the join hands on %q, want key-ordered ranges\n%s", alg, c.name, join.Output, ex)
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

// TestGatePlansGolden renders the physical plan of every gate shape at every
// constant the benchmark sends (gateConstants), over generator seeds 1–3, at
// the worker bounds 1, 2 and 8, through Engine.Explain (WithWorkers as the
// bound, auto-planned) and through Service.Explain (WithFairSlots as the
// bound), and compares the distinct plans of every (shape, bound, entry point)
// — with the number of (seed, query) cases that produced each — to
// testdata/gateplans.golden. A change to the cost model that moves a gate plan
// shows here as a diff. Regenerate with `go test -run TestGatePlansGolden
// -update`.
func TestGatePlansGolden(t *testing.T) {
	type entry struct {
		name    string
		explain func(p *Plan, bound int) (*Explain, error)
	}
	entries := []entry{
		{"Engine.Explain", func(p *Plan, bound int) (*Explain, error) {
			return New(WithWorkers(bound), WithAutoPlan(true)).Explain(p)
		}},
		{"Service.Explain", func(p *Plan, bound int) (*Explain, error) {
			svc := NewService(New(WithAutoPlan(true)), WithFairSlots(bound))
			defer svc.Close()
			return svc.Explain(p)
		}},
	}
	cats := []MapCatalog{gateCatalog(1), gateCatalog(2), gateCatalog(3)}
	var b strings.Builder
	for _, shape := range gateShapes {
		queries := append([]string{shape.query}, gateConstants(shape.name)...)
		for _, bound := range []int{1, 2, 8} {
			for _, e := range entries {
				var plans []string
				cases := map[string]int{}
				for _, cat := range cats {
					for _, query := range queries {
						ex, err := e.explain(gatePlan(t, query, cat), bound)
						if err != nil {
							t.Fatal(err)
						}
						plan := physicalPlan(ex)
						if cases[plan] == 0 {
							plans = append(plans, plan)
						}
						cases[plan]++
					}
				}
				fmt.Fprintf(&b, "=== %s, bound %d, %s\n", shape.name, bound, e.name)
				for _, plan := range plans {
					fmt.Fprintf(&b, "--- %d of %d cases\n%s", cases[plan], len(cats)*len(queries), plan)
				}
				b.WriteString("\n")
			}
		}
	}
	got := b.String()

	path := filepath.Join("testdata", "gateplans.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file: %v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("gate plans diverge from %s (run with -update after intentional changes)\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
