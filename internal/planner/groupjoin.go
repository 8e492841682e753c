package planner

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/exec"
)

// decideGroupJoin runs a GroupAggregate as a groupjoin (exec.GroupJoin) where
// the plan allows it (exec.Plan.GroupJoinInputs) and the cost model prices it
// below the joins it replaces as they were decided, each with its consumer —
// the group-by itself included. The driver is the leaf with the fewest
// estimated tuples, the first of them on a tie, and the worker count is
// widened as a join's is, under the bound of the cluster's root. Costs within
// Resolution of each other keep the joins.
func (s *planState) decideGroupJoin(id exec.NodeID) {
	n, d := &s.plan.Nodes[id], &s.decide[id]
	n.GroupJoin = nil
	in, err := s.plan.GroupJoinInputs(id)
	if err != nil {
		return
	}
	driver, probes := 0, 0.0
	for i, leaf := range in.Leaves {
		probes += float64(s.profiles[leaf].Tuples)
		if s.profiles[leaf].Tuples < s.profiles[in.Leaves[driver]].Tuples {
			driver = i
		}
	}
	dp := s.profiles[in.Leaves[driver]]
	probes -= float64(dp.Tuples)
	distinct, groups := math.Min(dp.DistinctKeys, float64(dp.Tuples)), float64(s.profiles[id].Tuples)
	cost := func(t int) float64 {
		return s.cm.groupJoin(float64(dp.Tuples), distinct, probes, groups, len(in.Leaves), t)
	}
	bound := s.decide[in.Joins[0]].Bound
	workers, step := s.cm.widen(bound, cost)
	gj, joins := cost(workers)/1e6, 0.0
	for _, j := range in.Joins {
		joins += s.decide[j].EstMillis
	}
	if gj*(1+s.cm.Resolution) >= joins {
		return
	}

	n.GroupJoin = &exec.GroupJoin{Driver: in.Leaves[driver], Workers: workers}
	for _, j := range in.Joins {
		s.decide[j].Fused = true
	}
	folds := make([]string, 0, len(in.Leaves)-1)
	for i, leaf := range in.Leaves {
		if i == driver {
			continue
		}
		fold := "count"
		if in.Carries[i] {
			fold = n.Agg.String()
		}
		folds = append(folds, s.plan.Nodes[leaf].Rel.Name+"→"+fold)
	}
	d.GroupJoin = fmt.Sprintf("on %s: %s", s.plan.Nodes[in.Leaves[driver]].Rel.Name, strings.Join(folds, ", "))
	d.Workers, d.Bound, d.EstMillis = workers, bound, gj
	d.Reason = fmt.Sprintf("groupjoin %.1fms vs joins + group-by %.1fms", gj, joins)
	if st := step.String(); st != "" {
		d.Reason += "; " + st
	}
}
