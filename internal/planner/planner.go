// Package planner is the cost-based query planner: it turns the sampled
// relation statistics of internal/stats into physical execution choices for
// operator plans — which join algorithm runs each Join node, in which order a
// chain of joins consumes its inputs, whether the match phase is scheduled
// statically or morsel-driven, whether presorted inputs skip their sort
// phase, and whether a GroupAggregate merges or hashes.
//
// The pipeline is
//
//	stats.Profile (per base relation, cached on the Engine)
//	   → cost model (calibrated ns/tuple constants, CostModel)
//	   → rewrite (join order, build/probe roles, per-node physical choices)
//
// and every decision is recorded as a NodeDecision so that Explain can show
// the chosen plan with its estimates and the per-algorithm cost comparison.
//
// The optimizer never changes what a plan computes: rewrites are restricted
// to inner, non-band join clusters joined on the shared key attribute (where
// commutativity and associativity hold, including the default payload-sum
// projection), build/probe swaps to symmetric join kinds, and presorted
// declarations that the join verifies per chunk anyway. The optimizer-safety
// property test exercises exactly this guarantee.
package planner

import (
	"fmt"
	"math"
	"runtime"
	"sort"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/mergejoin"
	"repro/internal/relation"
	"repro/internal/sched"
	"repro/internal/stats"
)

// MorselSkewThreshold is the skew coefficient (max histogram bucket share
// relative to uniform) above which the match phase switches to morsel
// scheduling when more than one worker is available.
const MorselSkewThreshold = 3.0

// Constraints are the parts of a join's configuration the planner must
// respect when choosing an algorithm.
type Constraints struct {
	// Configured is the algorithm the engine/plan configuration selects.
	// AlgorithmDMPSM is kept as configured: it expresses an external memory
	// constraint (bounded buffer pool) the cost model cannot see.
	Configured exec.Algorithm
	// Kind restricts non-inner joins to the B-MPSM and P-MPSM algorithms.
	Kind mergejoin.Kind
	// Band restricts band joins to the B-MPSM and P-MPSM algorithms and
	// pins the build/probe roles: band pairs carry R.Key != S.Key, so the
	// default projection's output keys depend on which side is the build.
	Band uint64
	// Workers is the degree of parallelism the join will run with.
	Workers int
	// LatencyNs is the configured simulated disk latency per tuple (D-MPSM).
	LatencyNs float64
	// SymmetricConsumer reports that whatever consumes the join's (r, s)
	// pair stream is commutative in the pair — the default payload-sum
	// projection, a group aggregate over it, or the built-in max-sum sink.
	// Only then may the planner exchange build and probe roles; a user sink
	// or explicit projection observes the pair order.
	SymmetricConsumer bool
}

// Choice is the physical decision for one join.
type Choice struct {
	// Algorithm is the selected join implementation.
	Algorithm exec.Algorithm
	// Scheduler and MorselSize select the match-phase scheduling; a zero
	// MorselSize keeps the runtime default, heavy skew halves it so the
	// queue has enough morsels to balance the hot key range.
	Scheduler  sched.Mode
	MorselSize int
	// PresortedPrivate/Public declare verified-per-chunk pre-existing sort
	// orders (after any swap, i.e. for the final build/probe roles).
	PresortedPrivate, PresortedPublic bool
	// Swap exchanges the build and probe inputs.
	Swap bool
	// EstRows is the estimated join cardinality.
	EstRows float64
	// Costs holds the per-algorithm modelled costs (for the final
	// orientation), most attractive first.
	Costs []AlgorithmCost
	// Keys describes the key-schema regime of the join (empty for raw
	// uint64 keys): prefix width, fast-path vs tie-break, and the sampled
	// collision-rate estimate that priced the tie-break path.
	Keys string
	// Reason summarizes the decision for Explain output.
	Reason string
}

// normWorkers resolves the effective degree of parallelism.
func normWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// candidates returns the algorithms the constraints allow.
func candidates(c Constraints) []exec.Algorithm {
	if c.Configured == exec.AlgorithmDMPSM {
		return []exec.Algorithm{exec.AlgorithmDMPSM}
	}
	if c.Kind != mergejoin.Inner || c.Band > 0 {
		return []exec.Algorithm{exec.AlgorithmPMPSM, exec.AlgorithmBMPSM}
	}
	return []exec.Algorithm{
		exec.AlgorithmPMPSM, exec.AlgorithmBMPSM,
		exec.AlgorithmWisconsin, exec.AlgorithmRadix,
	}
}

// swappable reports whether exchanging build and probe preserves semantics:
// inner equi-joins (outer/semi/anti are asymmetric, and a band join's pairs
// carry R.Key != S.Key, so swapping changes which key the default projection
// emits) whose pair consumer is commutative in (r, s).
func swappable(c Constraints) bool {
	return c.Kind == mergejoin.Inner && c.Band == 0 && c.SymmetricConsumer
}

// ChooseJoin picks the cheapest (algorithm, orientation) pair the
// constraints allow and derives the scheduling mode from the skew profile.
// build/probe are the profiles of the join's current private/public inputs.
func ChooseJoin(build, probe *stats.Profile, c Constraints, cm CostModel) Choice {
	workers := normWorkers(c.Workers)
	algs := candidates(c)

	type option struct {
		alg  exec.Algorithm
		swap bool
		cost float64
	}
	matches := stats.EstimateJoin(build, probe)
	bestPer := make(map[exec.Algorithm]option, len(algs))
	var best option
	first := true
	for _, alg := range algs {
		orientations := []bool{false}
		if swappable(c) {
			orientations = append(orientations, true)
		}
		for _, swap := range orientations {
			b, p := build, probe
			if swap {
				b, p = p, b
			}
			cost := cm.Estimate(alg, inputsFor(b, p, matches, workers, c.LatencyNs))
			if prev, ok := bestPer[alg]; !ok || cost < prev.cost {
				bestPer[alg] = option{alg: alg, swap: swap, cost: cost}
			}
			if first || cost < best.cost {
				best = option{alg: alg, swap: swap, cost: cost}
				first = false
			}
		}
	}

	choice := Choice{
		Algorithm: best.alg,
		Swap:      best.swap,
		EstRows:   matches,
	}
	finalBuild, finalProbe := build, probe
	if best.swap {
		finalBuild, finalProbe = probe, build
	}
	choice.PresortedPrivate = finalBuild.LikelySorted()
	choice.PresortedPublic = finalProbe.LikelySorted()

	// The cost list reports every allowed algorithm at its own best
	// orientation, cheapest first, so Explain shows the actual contest.
	for _, opt := range bestPer {
		choice.Costs = append(choice.Costs, AlgorithmCost{
			Algorithm: opt.alg, Millis: opt.cost / 1e6, Eligible: true,
		})
	}
	sort.Slice(choice.Costs, func(i, j int) bool {
		if choice.Costs[i].Millis != choice.Costs[j].Millis {
			return choice.Costs[i].Millis < choice.Costs[j].Millis
		}
		return choice.Costs[i].Algorithm < choice.Costs[j].Algorithm
	})

	// Skewed or clustered inputs get the morsel-driven match phase: with
	// several workers it fixes the straggler imbalance static splitters
	// leave open, and even on one worker the blocked (morsel-sized)
	// iteration is no slower than the static loop on such inputs. Balanced
	// uniform inputs keep the paper-faithful static barriers.
	skew := math.Max(build.Skew, probe.Skew)
	clustered := finalBuild.Clustered() || finalProbe.Clustered()
	if skew >= MorselSkewThreshold || clustered {
		choice.Scheduler = sched.Morsel
		if skew >= 2*MorselSkewThreshold {
			// Twice the skew threshold means one bucket dominates; finer
			// morsels keep enough stealable units in the hot range.
			choice.MorselSize = sched.DefaultMorselSize / 2
		}
	} else {
		choice.Scheduler = sched.Static
	}

	choice.Keys = keysClause(build, probe)
	choice.Reason = reasonFor(choice, c, skew, clustered)
	if choice.Keys != "" {
		choice.Reason += "; " + choice.Keys
	}
	return choice
}

// keysClause renders the key-regime description of a join's inputs: empty
// for raw uint64 keys, the fast-path note for exact normalized schemas,
// and the tie-break note — with the sampled prefix-collision rate that
// priced the verification — for inexact ones.
func keysClause(build, probe *stats.Profile) string {
	if !build.KeyNormalized && !probe.KeyNormalized {
		return ""
	}
	if !build.KeyTieBreak && !probe.KeyTieBreak {
		return "normalized keys: exact 8-byte prefix (fast path)"
	}
	collision := math.Max(build.PrefixCollisionRate, probe.PrefixCollisionRate)
	return fmt.Sprintf("normalized keys: 8-byte prefix + tie-break verify (est collision %.1f%%)",
		100*collision)
}

// reasonFor renders the one-line rationale of a join choice.
func reasonFor(ch Choice, c Constraints, skew float64, clustered bool) string {
	var why string
	switch {
	case c.Configured == exec.AlgorithmDMPSM:
		why = "kept D-MPSM (memory-constrained configuration)"
	case len(ch.Costs) > 1:
		why = fmt.Sprintf("%v cheapest (%.1fms vs %v %.1fms)",
			ch.Algorithm, ch.Costs[0].Millis, ch.Costs[1].Algorithm, ch.Costs[1].Millis)
	default:
		why = fmt.Sprintf("%v is the only eligible algorithm", ch.Algorithm)
	}
	if ch.PresortedPrivate || ch.PresortedPublic {
		why += ", exploiting presorted input"
	}
	if ch.Swap {
		why += ", roles reversed"
	}
	switch {
	case ch.Scheduler == sched.Morsel && clustered:
		why += "; morsel scheduling (clustered arrangement)"
	case ch.Scheduler == sched.Morsel:
		why += fmt.Sprintf("; morsel scheduling (skew %.1f)", skew)
	default:
		why += "; static scheduling (balanced inputs)"
	}
	return why
}

// NodeDecision records the planner's verdict for one plan node; Explain
// renders these.
type NodeDecision struct {
	// ID and Kind identify the node; Inputs are its (possibly rewired)
	// input node IDs.
	ID     exec.NodeID
	Kind   exec.NodeKind
	Inputs []exec.NodeID
	// EstRows is the estimated output cardinality (0 for sinks).
	EstRows float64
	// EstDistinct and Skew describe the estimated output distribution.
	EstDistinct float64
	Skew        float64

	// Join-node decisions.
	Algorithm                         exec.Algorithm
	Scheduler                         sched.Mode
	MorselSize                        int
	PresortedPrivate, PresortedPublic bool
	Swapped                           bool
	Reordered                         bool
	Costs                             []AlgorithmCost

	// Keys describes the key-schema regime (join and scan nodes over
	// normalized-key relations); empty for raw uint64 keys. Unlike Reason
	// it survives the non-rewrite annotate mode: the key path is a fact of
	// the schema, not a planner choice.
	Keys string

	// Reason summarizes why, empty for nodes without decisions.
	Reason string
}

// Optimizer rewrites plans using a stats provider and a cost model.
type Optimizer struct {
	// Cost is the cost model; the zero value selects DefaultCostModel.
	Cost CostModel
	// Profile returns the (possibly cached) statistics of a base relation.
	// Nil falls back to uncached stats.Collect.
	Profile func(*relation.Relation) *stats.Profile
	// Rewrite enables plan mutation. When false, Optimize only annotates
	// the configured plan with estimates (the EXPLAIN-without-auto path).
	Rewrite bool
}

// profileOf resolves the stats provider.
func (o *Optimizer) profileOf(rel *relation.Relation) *stats.Profile {
	if o.Profile != nil {
		return o.Profile(rel)
	}
	return stats.Collect(rel)
}

// costModel resolves the cost model.
func (o *Optimizer) costModel() CostModel {
	if o.Cost == (CostModel{}) {
		return DefaultCostModel()
	}
	return o.Cost
}

// Optimize validates p and returns the physical plan to execute together
// with the per-node decisions. The input plan is never mutated; with
// Rewrite unset the returned plan is an annotated copy with identical
// choices. Node IDs are stable across optimization: node i of the returned
// plan computes the output of node i of the input plan (with possibly
// different inputs inside reordered join clusters).
func (o *Optimizer) Optimize(p *exec.Plan) (*exec.Plan, []NodeDecision, error) {
	cp := &exec.Plan{Nodes: append([]exec.PlanNode(nil), p.Nodes...)}
	if o.Rewrite {
		// The planner overrides the configured algorithm anyway, so a
		// non-inner or band join configured onto a hash algorithm is not an
		// error under auto-planning: reroute it to an MPSM variant before
		// validation, exactly as the single-join path does (a configured
		// D-MPSM is never unpinned — it expresses a memory constraint, and
		// an unsupported kind on it stays an error like in manual mode).
		for i := range cp.Nodes {
			n := &cp.Nodes[i]
			if n.Kind != exec.NodeJoin {
				continue
			}
			constrained := n.JoinOptions.Kind != mergejoin.Inner || n.JoinOptions.Band > 0
			hashAlg := n.Algorithm == exec.AlgorithmWisconsin || n.Algorithm == exec.AlgorithmRadix
			if constrained && hashAlg {
				n.Algorithm = exec.AlgorithmPMPSM
			}
		}
	}
	if err := cp.Validate(); err != nil {
		return nil, nil, err
	}
	st := &planState{
		opt:      o,
		plan:     cp,
		cm:       o.costModel(),
		profiles: make([]*stats.Profile, len(cp.Nodes)),
		decide:   make([]NodeDecision, len(cp.Nodes)),
	}

	if o.Rewrite {
		st.profileAll()
		st.reorderClusters()
		// Rewiring invalidates downstream estimates; recompute from scratch.
		st.profiles = make([]*stats.Profile, len(cp.Nodes))
	}
	st.profileAll()
	st.decideNodes()

	if err := cp.Validate(); err != nil {
		// A rewrite must never produce an invalid plan; surface loudly.
		return nil, nil, fmt.Errorf("planner: optimized plan failed validation: %w", err)
	}
	return cp, st.decide, nil
}

// planState is the working state of one optimization.
type planState struct {
	opt       *Optimizer
	plan      *exec.Plan
	cm        CostModel
	profiles  []*stats.Profile
	decide    []NodeDecision
	symmetric []bool
}

// profileAll memoizes the output profile of every node.
func (s *planState) profileAll() {
	for id := range s.plan.Nodes {
		s.profile(exec.NodeID(id))
	}
}

// profile computes (and memoizes) the estimated output profile of a node.
func (s *planState) profile(id exec.NodeID) *stats.Profile {
	if p := s.profiles[id]; p != nil {
		return p
	}
	n := s.plan.Nodes[id]
	var p *stats.Profile
	switch n.Kind {
	case exec.NodeScan:
		p = s.opt.profileOf(n.Rel)
		if n.Pred != nil {
			p = p.Filtered(n.Pred)
		}
	case exec.NodeJoin:
		b := s.profile(n.Inputs[0])
		pr := s.profile(n.Inputs[1])
		p = stats.JoinOutput(b, pr, stats.EstimateJoin(b, pr))
	case exec.NodeMap:
		p = s.profile(n.Inputs[0]).Mapped(n.MapFn)
	case exec.NodeProject:
		// The projection function is opaque over pairs; cardinality carries
		// over, the key distribution of the join output is kept as the best
		// available guess.
		p = s.profile(n.Inputs[0])
	case exec.NodeGroupAggregate:
		in := s.profile(n.Inputs[0])
		groups := math.Max(1, math.Min(float64(in.Tuples), in.DistinctKeys))
		if in.Tuples == 0 {
			groups = 0
		}
		p = &stats.Profile{
			Tuples:         int(math.Round(groups)),
			DistinctKeys:   groups,
			Duplication:    1,
			MinKey:         in.MinKey,
			MaxKey:         in.MaxKey,
			SortedFraction: 1, // aggregate output is emitted in key order
			Histogram:      in.Histogram,
			Skew:           in.Skew,
			Correlated:     in.Correlated,
		}
	case exec.NodeSink:
		p = &stats.Profile{SortedFraction: 1}
	default:
		p = &stats.Profile{SortedFraction: 1}
	}
	s.profiles[id] = p
	return p
}

// symmetricConsumers marks every join whose pair stream is consumed
// commutatively: a further join or a group aggregate (both fold the pair
// through the commutative default payload-sum projection), the built-in
// max-sum sink, or direct materialization at the plan root (the default
// projection again). A user sink or an explicit Project observes the pair
// order and pins the roles.
func (s *planState) symmetricConsumers() []bool {
	sym := make([]bool, len(s.plan.Nodes))
	for id, n := range s.plan.Nodes {
		if n.Kind == exec.NodeJoin {
			sym[id] = true // root default projection, until a consumer says otherwise
		}
	}
	for _, n := range s.plan.Nodes {
		for _, in := range n.Inputs {
			if s.plan.Nodes[in].Kind != exec.NodeJoin {
				continue
			}
			switch n.Kind {
			case exec.NodeJoin, exec.NodeGroupAggregate:
				// commutative
			case exec.NodeSink:
				sym[in] = n.Sink == nil
			default:
				sym[in] = false
			}
		}
	}
	return sym
}

// decideNodes applies (or, without Rewrite, merely records) the per-node
// physical decisions.
func (s *planState) decideNodes() {
	s.symmetric = s.symmetricConsumers()
	for id := range s.plan.Nodes {
		n := &s.plan.Nodes[id]
		d := &s.decide[id]
		d.ID = exec.NodeID(id)
		d.Kind = n.Kind
		d.Inputs = append([]exec.NodeID(nil), n.Inputs...)
		p := s.profiles[id]
		d.EstRows = float64(p.Tuples)
		d.EstDistinct = p.DistinctKeys
		d.Skew = p.Skew
		if n.Kind == exec.NodeSink {
			d.EstRows = float64(s.profiles[n.Inputs[0]].Tuples)
		}

		switch n.Kind {
		case exec.NodeScan:
			if n.Rel.Meta != nil {
				d.Keys = n.Rel.Meta.Describe()
			}
		case exec.NodeJoin:
			s.decideJoin(exec.NodeID(id), n, d)
		}
	}
}

// decideJoin chooses and (when rewriting) applies one join's physical
// execution.
func (s *planState) decideJoin(id exec.NodeID, n *exec.PlanNode, d *NodeDecision) {
	build := s.profiles[n.Inputs[0]]
	probe := s.profiles[n.Inputs[1]]
	c := Constraints{
		Configured:        n.Algorithm,
		Kind:              n.JoinOptions.Kind,
		Band:              n.JoinOptions.Band,
		Workers:           n.JoinOptions.Workers,
		LatencyNs:         diskLatencyNs(n.DiskOptions),
		SymmetricConsumer: s.symmetric[id],
	}
	ch := ChooseJoin(build, probe, c, s.cm)
	d.EstRows = ch.EstRows
	d.Costs = ch.Costs
	d.Keys = ch.Keys
	d.Reason = ch.Reason

	if !s.opt.Rewrite {
		// Annotate what the configured plan will do.
		d.Algorithm = n.Algorithm
		d.Scheduler = n.JoinOptions.Scheduler
		d.MorselSize = n.JoinOptions.MorselSize
		d.PresortedPrivate = n.JoinOptions.PresortedPrivate
		d.PresortedPublic = n.JoinOptions.PresortedPublic
		d.Reason = ""
		return
	}

	n.Algorithm = ch.Algorithm
	n.JoinOptions.Scheduler = ch.Scheduler
	if ch.MorselSize > 0 {
		n.JoinOptions.MorselSize = ch.MorselSize
	}
	n.JoinOptions.PresortedPrivate = ch.PresortedPrivate
	n.JoinOptions.PresortedPublic = ch.PresortedPublic
	if ch.Swap {
		n.Inputs = []exec.NodeID{n.Inputs[1], n.Inputs[0]}
		d.Inputs = append([]exec.NodeID(nil), n.Inputs...)
		d.Swapped = true
	}
	d.Algorithm = ch.Algorithm
	d.Scheduler = ch.Scheduler
	d.MorselSize = n.JoinOptions.MorselSize
	d.PresortedPrivate = ch.PresortedPrivate
	d.PresortedPublic = ch.PresortedPublic
}

// diskLatencyNs converts the configured per-page disk latencies into a
// per-tuple nanosecond cost for the D-MPSM cost estimate.
func diskLatencyNs(d core.DiskOptions) float64 {
	pageSize := d.PageSize
	if pageSize <= 0 {
		pageSize = 1024
	}
	return float64(d.ReadLatency+d.WriteLatency) / float64(pageSize)
}
