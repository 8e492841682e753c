package mpsm

import (
	"context"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
)

// storedNode is what the planner and the plan memo rewrite on a run's copy
// of a plan node.
type storedNode struct {
	kind      exec.NodeKind
	inputs    []exec.NodeID
	algorithm Algorithm
	join      core.Options
	groupJoin *exec.GroupJoin
}

// storedNodes snapshots a plan's nodes as the caller built them.
func storedNodes(p *Plan) []storedNode {
	out := make([]storedNode, len(p.ep.Nodes))
	for i, n := range p.ep.Nodes {
		out[i] = storedNode{n.Kind, slices.Clone(n.Inputs), n.Algorithm, n.JoinOptions, n.GroupJoin}
	}
	return out
}

// TestPlanConcurrentReuse: one Plan runs from many goroutines at once on an
// auto-planning engine that reorders, swaps and replaces its joins, and every
// run equals a single-worker run of the same plan. Each run plans its own
// copy of the nodes; the caller's plan keeps its kinds, inputs and join
// settings.
func TestPlanConcurrentReuse(t *testing.T) {
	ctx := context.Background()
	r := GenerateUniform("r", 1<<14, 451)
	cat := MapCatalog{
		"r": r,
		"s": GenerateForeignKey("s", r, 1<<16, 452),
		"t": GenerateForeignKey("t", r, 1<<10, 453), // a sliver of r: joined first
	}
	compile := func(src string) *Plan {
		p, err := Compile(src, cat)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	hand := NewPlan()
	hand.Sink(hand.Join(hand.Scan(cat["s"]), hand.Scan(cat["r"]), WithWorkers(1)), nil)
	plans := []struct {
		name string
		plan *Plan
	}{
		{"chain", compile("ans(K, N) :- s(K, _), r(K, _), t(K, _), agg count(*)")},
		{"band", compile("ans(X, N) :- s(X, _), r(Y, _), |X - Y| <= 3, agg count(*)")},
		{"hand-built", hand},
	}

	engine := New(WithWorkers(2), WithAutoPlan(true))
	single := New(WithWorkers(1))
	rewired := map[string]bool{}
	for _, tc := range plans {
		ex, err := engine.Explain(tc.plan)
		if err != nil {
			t.Fatal(err)
		}
		for i, n := range ex.Nodes {
			stored := tc.plan.ep.Nodes[i].Inputs
			if n.Swapped || len(stored) == 2 && (int(stored[0]) != n.Inputs[0] || int(stored[1]) != n.Inputs[1]) {
				rewired[tc.name] = true
			}
		}
	}
	if !rewired["chain"] || !rewired["hand-built"] {
		t.Fatalf("the planner reorders or swaps no join of the chain (%v) or the hand-built plan (%v)",
			rewired["chain"], rewired["hand-built"])
	}

	for _, tc := range plans {
		before := storedNodes(tc.plan)
		want, err := single.RunPlan(ctx, tc.plan)
		if err != nil {
			t.Fatal(err)
		}
		if want.Matches == 0 && (want.Output == nil || want.Output.Len() == 0) {
			t.Fatalf("%s: the single-worker run is empty", tc.name)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 4; i++ {
					got, err := engine.RunPlan(ctx, tc.plan)
					if err != nil {
						t.Errorf("%s: %v", tc.name, err)
						return
					}
					if got.Matches != want.Matches || got.MaxSum != want.MaxSum ||
						(want.Output != nil) != (got.Output != nil) ||
						want.Output != nil && !slices.Equal(got.Output.Tuples, want.Output.Tuples) {
						t.Errorf("%s: a concurrent run differs from the single-worker run", tc.name)
						return
					}
				}
			}()
		}
		wg.Wait()
		if after := storedNodes(tc.plan); !reflect.DeepEqual(after, before) {
			t.Errorf("%s: running the plan rewrote it:\nbefore %+v\nafter  %+v", tc.name, before, after)
		}
	}
}
