// Package planner is the cost-based query planner: it turns the sampled
// relation statistics of internal/stats into physical execution choices for
// operator plans — which join algorithm runs each Join node and on how many
// workers, in which order a chain of joins consumes its inputs, whether the
// match phase is scheduled statically or morsel-driven, and whether presorted
// inputs skip their sort phase. A join is costed together with what consumes
// its output: the key-ordered range entries an MPSM join hands on, against a
// hash join's pairs in probe order, are a property the planner prices (see
// CostModel). The degree of parallelism is an output like the algorithm: the
// configured worker count — or a service's share of its slots — is the bound,
// every join is priced on one worker and at each doubling up to it, and a
// worker is kept only where the modelled time falls by
// CostModel.EfficiencyFloor of a worker's worth per worker added.
//
// The pipeline is
//
//	stats.Profile (per base relation, cached on the Engine)
//	   → cost model (committed ns/tuple constants, CostModel)
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
	"repro/internal/sink"
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
	// Workers bounds the degree of parallelism the join may run with — a
	// service's share of its slots, an engine's configured count, or, at 0,
	// GOMAXPROCS; the count it does run with is the planner's (Choice.Workers).
	Workers int
	// PinWorkers prices the join at exactly Workers instead of choosing a
	// count: annotating a configured plan describes what will run.
	PinWorkers bool
	// LatencyNs is the configured simulated disk latency per tuple (D-MPSM).
	LatencyNs float64
	// SymmetricConsumer reports that whatever consumes the join's (r, s)
	// pair stream is commutative in the pair — the default payload-sum
	// projection, a group aggregate over it, or the built-in max-sum sink.
	// Only then may the planner exchange build and probe roles; a user sink
	// or explicit projection observes the pair order.
	SymmetricConsumer bool
	// Consumer describes what the join's output is delivered to; the zero
	// value is a consumer that has every pair formed.
	Consumer Consumer
}

// Shape is a join's output as its consumer receives it.
type Shape struct {
	// Ranges reports range entries — one per private key group and public
	// run, key-ordered within every (private run, public run) pair — as B- and
	// P-MPSM emit them; the hash joins emit pairs in probe order.
	Ranges bool
	// Partitions, when positive, is the number of key ranges the output is
	// partitioned into by writer: under static scheduling P-MPSM's worker w
	// joins exactly splitter range w. Explain reports it; no operator starts
	// from it yet (ROADMAP, "Measured dead ends").
	Partitions int
}

// String renders the shape for Explain.
func (s Shape) String() string {
	switch {
	case !s.Ranges:
		return "pairs, probe order"
	case s.Partitions > 0:
		return fmt.Sprintf("ranges, key-ordered, range-partitioned ×%d", s.Partitions)
	default:
		return "ranges, key-ordered"
	}
}

// shapeOf is the output shape of an algorithm under a scheduling mode.
func shapeOf(alg exec.Algorithm, mode sched.Mode, workers int) Shape {
	sh := Shape{Ranges: emitsRanges(alg)}
	if alg == exec.AlgorithmPMPSM && mode == sched.Static && workers > 1 {
		sh.Partitions = workers
	}
	return sh
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
	// Workers is the worker count the join runs on, between 1 and Bound (the
	// resolved Constraints.Workers): the planner keeps a worker only where the
	// modelled time falls by CostModel.EfficiencyFloor of a worker's worth.
	Workers, Bound int
	// Step is the doubling that decided Workers: the one not taken when
	// Workers is below Bound, the last one taken otherwise (zero when Bound
	// is 1 or the count was pinned).
	Step WorkerStep
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

// WorkerStep is one candidate widening of a join, from From to To workers.
type WorkerStep struct {
	From, To int
	// Gain is the modelled time on From workers over the time on To; Floor is
	// the gain at which the added workers return CostModel.EfficiencyFloor of
	// a worker each, in units of the join's speed on one worker.
	Gain, Floor float64
}

// String renders the step for Explain: "a second worker returns 1.2×, floor
// 1.5×".
func (s WorkerStep) String() string {
	if s.To == 0 {
		return ""
	}
	subject := fmt.Sprintf("%d workers return", s.To)
	if s.To == 2 {
		subject = "a second worker returns"
	}
	over := ""
	if s.From > 1 {
		over = fmt.Sprintf(" over %d", s.From)
	}
	return fmt.Sprintf("%s %.2f×%s, floor %.2f×", subject, s.Gain, over, s.Floor)
}

// normWorkers resolves the effective degree of parallelism.
func normWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// candidates returns the algorithms the constraints allow, in the order
// that breaks ties (CostModel.Resolution): the paper's algorithm first.
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
// constraints allow — cheapest together with the join's consumer — and
// derives the scheduling mode from the skew profile. build/probe are the
// profiles of the join's current private/public inputs.
func ChooseJoin(build, probe *stats.Profile, c Constraints, cm CostModel) Choice {
	matches := stats.EstimateBandJoin(build, probe, c.Band)
	return chooseJoin(build, probe, matches, stats.JoinOutput(build, probe, matches).DistinctKeys, c, cm)
}

// chooseJoin is ChooseJoin for a caller that already estimated the join's
// cardinality and the distinct keys of its output.
func chooseJoin(build, probe *stats.Profile, matches, groups float64, c Constraints, cm CostModel) Choice {
	algs := candidates(c)

	// Skewed or clustered inputs get the morsel-driven match phase: with
	// several workers it fixes the straggler imbalance static splitters
	// leave open, and even on one worker the blocked (morsel-sized)
	// iteration is no slower than the static loop on such inputs. Balanced
	// uniform inputs keep the paper-faithful static barriers. Neither input
	// decides this alone, so the mode is the same for every orientation —
	// and known before the algorithms are priced: morsels change what
	// B-MPSM's match phase scans.
	choice := Choice{EstRows: matches, Scheduler: sched.Static}
	skew := math.Max(build.Skew, probe.Skew)
	clustered := build.Clustered() || probe.Clustered()
	if skew >= MorselSkewThreshold || clustered {
		choice.Scheduler = sched.Morsel
		if skew >= 2*MorselSkewThreshold {
			// Twice the skew threshold means one bucket dominates; finer
			// morsels keep enough stealable units in the hot range.
			choice.MorselSize = sched.DefaultMorselSize / 2
		}
	}

	// Price the candidates at one worker and at each doubling up to the
	// bound, and keep a doubling only where the added workers pay: the time
	// on one worker over the time on t is the join's speed in workers' worth,
	// and every added worker must add EfficiencyFloor to it — a worker that
	// returns less is worth more to the next query.
	ct := contest{cm: cm, algs: algs, build: build, probe: probe, matches: matches, groups: groups, c: c, mode: choice.Scheduler}
	choice.Bound = normWorkers(c.Workers)
	t := 1
	if c.PinWorkers {
		t = choice.Bound
	}
	best, perAlg, cheapest := ct.at(t)
	for single := cheapest; t < choice.Bound; {
		// The step is judged on the cheapest candidate either side of it, not
		// on the ones a tie picks: those cost up to Resolution more, and which
		// side of a step has a tie follows the estimates' noise.
		next := min(2*t, choice.Bound)
		wider, widerPerAlg, widerCheapest := ct.at(next)
		choice.Step = WorkerStep{
			From: t, To: next,
			Gain:  cheapest / widerCheapest,
			Floor: 1 + cm.EfficiencyFloor*float64(next-t)*cheapest/single,
		}
		if choice.Step.Gain < choice.Step.Floor {
			break
		}
		t, best, perAlg, cheapest = next, wider, widerPerAlg, widerCheapest
	}
	choice.Workers = t

	choice.Algorithm, choice.Swap = best.alg, best.swap
	finalBuild, finalProbe := build, probe
	if best.swap {
		finalBuild, finalProbe = probe, build
	}
	choice.PresortedPrivate = finalBuild.LikelySorted()
	choice.PresortedPublic = finalProbe.LikelySorted()

	// The cost list reports every allowed algorithm at its own best
	// orientation, cheapest first, so Explain shows the actual contest.
	for _, opt := range perAlg {
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

	choice.Keys = keysClause(build, probe)
	choice.Reason = reasonFor(choice, c, skew, clustered)
	if choice.Keys != "" {
		choice.Reason += "; " + choice.Keys
	}
	return choice
}

// option is one priced (algorithm, orientation) candidate.
type option struct {
	alg  exec.Algorithm
	swap bool
	cost float64
}

// contest is one join's candidates and everything pricing them needs but the
// worker count.
type contest struct {
	cm              CostModel
	algs            []exec.Algorithm
	build, probe    *stats.Profile
	matches, groups float64
	c               Constraints
	mode            sched.Mode
}

// at prices every allowed algorithm on the given worker count, each at its
// own best orientation, and returns the one to run, all of them in candidate
// order, and the cheapest cost among them. Costs closer than the model
// resolves are a tie, which goes to the first candidate: the same one
// whichever way the estimates lean.
func (ct contest) at(workers int) (option, []option, float64) {
	in := inputsFor(ct.build, ct.probe, ct.matches, ct.groups, ct.c, ct.mode, workers)
	swapped := inputsFor(ct.probe, ct.build, ct.matches, ct.groups, ct.c, ct.mode, workers)
	perAlg := make([]option, len(ct.algs))
	cheapest := math.Inf(1)
	for i, alg := range ct.algs {
		perAlg[i] = option{alg: alg, cost: ct.cm.Estimate(alg, in, ct.c.Consumer)}
		if swappable(ct.c) {
			if cost := ct.cm.Estimate(alg, swapped, ct.c.Consumer); cost < perAlg[i].cost {
				perAlg[i] = option{alg: alg, swap: true, cost: cost}
			}
		}
		cheapest = math.Min(cheapest, perAlg[i].cost)
	}
	for _, opt := range perAlg {
		if opt.cost <= cheapest*(1+ct.cm.Resolution) {
			return opt, perAlg, cheapest
		}
	}
	return perAlg[0], perAlg, cheapest // unreachable: the cheapest is within its own resolution
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
		// The costs include delivering to the consumer; name it where it has
		// a say in the ranking.
		with := ""
		if c.Consumer.Groups {
			with = " with its group-by"
		}
		if first := ch.Costs[0]; first.Algorithm != ch.Algorithm {
			why = fmt.Sprintf("%v ties with the cheapest%s (%.1fms vs %v %.1fms)",
				ch.Algorithm, with, costOf(ch.Costs, ch.Algorithm), first.Algorithm, first.Millis)
		} else {
			why = fmt.Sprintf("%v cheapest%s (%.1fms vs %v %.1fms)",
				ch.Algorithm, with, first.Millis, ch.Costs[1].Algorithm, ch.Costs[1].Millis)
		}
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
	if step := ch.Step.String(); step != "" {
		why += "; " + step
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
	// Workers is the worker count the join runs on and Bound the count it
	// could have had: equal for a configured plan, the planner's choice under
	// Rewrite.
	Workers, Bound int
	Swapped        bool
	Reordered      bool
	Costs          []AlgorithmCost
	// Output is the join's output shape and EstMillis the modelled cost of
	// the algorithm the node runs, delivery to its consumer included.
	Output    Shape
	EstMillis float64

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
		matches:  make([]float64, len(cp.Nodes)),
		decide:   make([]NodeDecision, len(cp.Nodes)),
	}

	if o.Rewrite {
		st.profileAll()
		if st.reorderClusters() {
			// Rewiring invalidates downstream estimates; recompute from scratch.
			st.profiles = make([]*stats.Profile, len(cp.Nodes))
		}
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
	opt      *Optimizer
	plan     *exec.Plan
	cm       CostModel
	profiles []*stats.Profile
	// matches is the estimated cardinality of every join node, kept from
	// profiling so that deciding a join does not estimate it again.
	matches   []float64
	decide    []NodeDecision
	symmetric []bool
	// consumer is the node consuming each node's output (-1 for the root and
	// for scans, which may feed several).
	consumer []exec.NodeID
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
		if n.Range != nil {
			p = p.InRange(n.Range.Low, n.Range.High)
		}
		if n.Pred != nil {
			p = p.Filtered(n.Pred)
		}
	case exec.NodeJoin:
		b := s.profile(n.Inputs[0])
		pr := s.profile(n.Inputs[1])
		s.matches[id] = stats.EstimateBandJoin(b, pr, n.JoinOptions.Band)
		p = stats.JoinOutput(b, pr, s.matches[id])
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

// consumers returns, per node, the node consuming its output: -1 for the
// root and for scans, the one kind of node validation lets feed several.
func (s *planState) consumers() []exec.NodeID {
	consumer := make([]exec.NodeID, len(s.plan.Nodes))
	for i := range consumer {
		consumer[i] = -1
	}
	for id, n := range s.plan.Nodes {
		for _, in := range n.Inputs {
			if s.plan.Nodes[in].Kind != exec.NodeScan {
				consumer[in] = exec.NodeID(id)
			}
		}
	}
	return consumer
}

// decideNodes applies (or, without Rewrite, merely records) the per-node
// physical decisions.
func (s *planState) decideNodes() {
	s.symmetric = s.symmetricConsumers()
	s.consumer = s.consumers()
	for id := range s.plan.Nodes {
		n := &s.plan.Nodes[id]
		d := &s.decide[id]
		d.ID = exec.NodeID(id)
		d.Kind = n.Kind
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
			s.decideJoin(exec.NodeID(id))
		}
		d.Inputs = append([]exec.NodeID(nil), n.Inputs...)
	}
}

// consumerOf describes what join id delivers its output to.
func (s *planState) consumerOf(id exec.NodeID) Consumer {
	named, c := true, s.consumer[id]
	if c >= 0 && s.plan.Nodes[c].Kind == exec.NodeProject {
		named, c = s.plan.Nodes[c].ProjectValue != sink.ValueOpaque, s.consumer[c]
	}
	if c < 0 {
		return Consumer{} // the plan's output, materialized pair by pair
	}
	switch n := s.plan.Nodes[c]; n.Kind {
	case exec.NodeGroupAggregate:
		return Consumer{Folds: named, Groups: true}
	case exec.NodeSink:
		return Consumer{Folds: sink.FoldsRanges(n.Sink)}
	}
	return Consumer{} // the next join takes pairs through Collect
}

// decideJoin chooses and (when rewriting) applies one join's physical
// execution.
func (s *planState) decideJoin(id exec.NodeID) {
	n, d := &s.plan.Nodes[id], &s.decide[id]
	c := Constraints{
		Configured: n.Algorithm,
		Kind:       n.JoinOptions.Kind,
		Band:       n.JoinOptions.Band,
		Workers:    n.JoinOptions.Workers,
		LatencyNs:  diskLatencyNs(n.DiskOptions),
		// Annotating a configured plan prices its worker count and its
		// orientation, not the best.
		PinWorkers:        !s.opt.Rewrite,
		SymmetricConsumer: s.symmetric[id] && s.opt.Rewrite,
		Consumer:          s.consumerOf(id),
	}
	ch := chooseJoin(s.profiles[n.Inputs[0]], s.profiles[n.Inputs[1]], s.matches[id], s.profiles[id].DistinctKeys, c, s.cm)
	d.EstRows = ch.EstRows
	d.Costs = ch.Costs
	d.Keys = ch.Keys

	if s.opt.Rewrite {
		n.Algorithm = ch.Algorithm
		n.JoinOptions.Workers = ch.Workers
		n.JoinOptions.Scheduler = ch.Scheduler
		if ch.MorselSize > 0 {
			n.JoinOptions.MorselSize = ch.MorselSize
		}
		n.JoinOptions.PresortedPrivate = ch.PresortedPrivate
		n.JoinOptions.PresortedPublic = ch.PresortedPublic
		if ch.Swap {
			n.Inputs = []exec.NodeID{n.Inputs[1], n.Inputs[0]}
			d.Swapped = true
		}
		d.Reason = ch.Reason
	}
	// Describe what the node — chosen just now, or configured — will do.
	d.Algorithm = n.Algorithm
	d.Scheduler = n.JoinOptions.Scheduler
	d.MorselSize = n.JoinOptions.MorselSize
	d.PresortedPrivate = n.JoinOptions.PresortedPrivate
	d.PresortedPublic = n.JoinOptions.PresortedPublic
	d.Workers, d.Bound = ch.Workers, ch.Bound
	d.Output = shapeOf(n.Algorithm, n.JoinOptions.Scheduler, ch.Workers)
	d.EstMillis = costOf(ch.Costs, n.Algorithm)
}

// costOf is the modelled cost of one algorithm among the priced ones, zero
// when it was not a candidate (a configured algorithm the constraints rule
// out).
func costOf(costs []AlgorithmCost, alg exec.Algorithm) float64 {
	for _, c := range costs {
		if c.Algorithm == alg {
			return c.Millis
		}
	}
	return 0
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
