package planner

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/workload"
)

// gateRelations are the relations of the benchmark's query_mix and
// short_concurrent workloads as the root package's gateCatalog generates
// them: a, the foreign-key relations b and c, the dense d and e of the band
// template, and one short_concurrent pair r, s; payloads below 10^6.
func gateRelations(seed uint64) map[string]*relation.Relation {
	a := workload.UniformRelation("a", 65_536, 1<<32, seed)
	r := workload.UniformRelation("r", 4_096, 1<<32, seed+5)
	rels := map[string]*relation.Relation{
		"a": a,
		"b": workload.ForeignKeyRelation("b", a, 262_144, seed+1),
		"c": workload.ForeignKeyRelation("c", a, 262_144, seed+2),
		"d": workload.UniformRelation("d", 32_768, 1<<18, seed+3),
		"e": workload.UniformRelation("e", 32_768, 1<<18, seed+4),
		"r": r,
		"s": workload.ForeignKeyRelation("s", r, 16_384, seed+6),
	}
	for _, rel := range rels {
		for i := range rel.Tuples {
			rel.Tuples[i].Payload %= 1_000_000
		}
	}
	return rels
}

// gatePlanOf compiles one gate shape — the four query_mix templates, and
// short_concurrent's r ⋈ s into the max-sum sink for an empty query — with
// every join bounded to the given worker count, as Engine.Explain configures
// it.
func gatePlanOf(t *testing.T, src string, rels map[string]*relation.Relation, bound int) *exec.Plan {
	t.Helper()
	var p *exec.Plan
	if src == "" {
		p = &exec.Plan{}
		p.AddSink(p.AddJoin(p.AddScan(rels["r"], nil), p.AddScan(rels["s"], nil), exec.AlgorithmPMPSM, core.Options{}, core.DiskOptions{}), nil)
	} else {
		c, err := query.Compile(src, func(name string) (*relation.Relation, bool) { rel, ok := rels[name]; return rel, ok })
		if err != nil {
			t.Fatal(err)
		}
		p = c.Plan
	}
	for i := range p.Nodes {
		if p.Nodes[i].Kind == exec.NodeJoin {
			p.Nodes[i].JoinOptions.Workers = bound
		}
	}
	return p
}

// decided renders what the optimizer decided for every node: inputs,
// algorithm, worker count and roles of every join that runs, and every
// groupjoin's driver and worker count.
func decided(p *exec.Plan, decisions []NodeDecision) string {
	var b strings.Builder
	for i, n := range p.Nodes {
		fmt.Fprintf(&b, "%d %v%v", i, n.Kind, n.Inputs)
		switch {
		case decisions[i].Fused:
			b.WriteString(" fused") // the groupjoin runs in its place
		case n.Kind == exec.NodeJoin:
			fmt.Fprintf(&b, " %v workers=%d swapped=%t", n.Algorithm, n.JoinOptions.Workers, decisions[i].Swapped)
		case n.GroupJoin != nil:
			fmt.Fprintf(&b, " groupjoin on %d workers=%d", n.GroupJoin.Driver, n.GroupJoin.Workers)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestGatePlansHoldUnderEstimateNoise: the gate shapes plan the same when
// every join's estimated cardinality is a quarter lower or higher, over
// generator seeds 1–3 at the worker bounds 1, 2 and 8. Resolution is
// narrower than that noise, so what keeps a plan is the distance between its
// candidates, not the tie.
func TestGatePlansHoldUnderEstimateNoise(t *testing.T) {
	shapes := []struct{ name, query string }{
		{"agg2", "ans(K,S) :- a(K,X), b(K,Y), X > 500000, agg sum(Y)"},
		{"chain3", "ans(K,S) :- a(K,X), b(K,Y), c(K,Z), agg sum(Z)"},
		{"range", "ans(K,Y) :- a(K,_), b(K,Y), K >= 0, K < 67108864"},
		{"band", "ans(K,C) :- d(K,X), e(J,Y), |K - J| <= 16, agg count(*)"},
		{"short", ""},
	}
	opt := &Optimizer{Rewrite: true}
	for seed := uint64(1); seed <= 3; seed++ {
		rels := gateRelations(seed)
		for _, shape := range shapes {
			for _, bound := range []int{1, 2, 8} {
				plans := map[float64]string{}
				for _, scale := range []float64{1, 0.75, 1.25} {
					p, decisions, err := opt.optimize(gatePlanOf(t, shape.query, rels, bound), scale)
					if err != nil {
						t.Fatal(err)
					}
					plans[scale] = decided(p, decisions)
				}
				for _, scale := range []float64{0.75, 1.25} {
					if plans[scale] != plans[1] {
						t.Errorf("%s, seed %d, bound %d: the plan moves with the estimates ×%g\n--- as estimated ---\n%s--- ×%g ---\n%s",
							shape.name, seed, bound, scale, plans[1], scale, plans[scale])
					}
				}
			}
		}
	}
}
