package exec

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mergejoin"
	"repro/internal/relation"
	"repro/internal/sink"
)

// NodeID identifies one node of a Plan; it is the node's index in Plan.Nodes.
type NodeID int

// NodeKind is the operator type of a plan node.
type NodeKind int

const (
	// NodeScan reads a base relation, optionally applying a selection
	// predicate during the scan. Scans have no inputs; one scan may feed
	// several consumers (a self-join reads the same scan twice).
	NodeScan NodeKind = iota
	// NodeJoin joins a build (private) input against a probe (public) input
	// with any of the five algorithms. Its output is the stream of joined
	// pairs; consumers that expect tuples see the default projection
	// {Key: R.Key, Payload: R.Payload + S.Payload} unless a NodeProject
	// interposes.
	NodeJoin
	// NodeMap applies a tuple-to-tuple function to a tuple-producing input.
	NodeMap
	// NodeProject applies a pair-to-tuple projection directly above a join,
	// overriding the default projection.
	NodeProject
	// NodeGroupAggregate groups its input by key and aggregates the payload
	// (sum, min, max or count). Above a join — directly or through a
	// NodeProject — the sort-based kernel of internal/sink fuses into the
	// join's sink and the join output is never materialized; or, where the
	// node carries a GroupJoin, the joins below it do not run at all and one
	// hash table over the smallest leaf's distinct keys folds every leaf of
	// the cluster (see GroupJoinInputs). Above anything else the sort-based
	// kernel folds the materialized tuples.
	NodeGroupAggregate
	// NodeSink terminates the plan in a user sink that receives the raw
	// joined pairs of its input join. A sink node must be the plan root and
	// sit directly above a join.
	NodeSink
)

// String implements fmt.Stringer.
func (k NodeKind) String() string {
	switch k {
	case NodeScan:
		return "Scan"
	case NodeJoin:
		return "Join"
	case NodeMap:
		return "Map"
	case NodeProject:
		return "Project"
	case NodeGroupAggregate:
		return "GroupAggregate"
	case NodeSink:
		return "Sink"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// PlanNode is one operator of a plan DAG. Only the fields of the node's Kind
// are meaningful; the Add* builder methods populate them consistently, and
// Validate checks hand-built nodes.
type PlanNode struct {
	// Kind selects the operator.
	Kind NodeKind
	// Inputs are the IDs of the child nodes (none for scans, two for joins
	// — build first, probe second — and one for everything else).
	Inputs []NodeID

	// Rel and Pred configure a NodeScan. Range is an optional structured
	// key-range selection that runs on the branch-free selection-vector path;
	// Range and Pred compose (a tuple must satisfy both).
	Rel   *relation.Relation
	Pred  Predicate
	Range *KeyRange

	// Algorithm, JoinOptions and DiskOptions configure a NodeJoin. The
	// JoinOptions' Sink and Scratch fields are owned by the executor and
	// ignored if set.
	Algorithm   Algorithm
	JoinOptions core.Options
	DiskOptions core.DiskOptions

	// MapFn configures a NodeMap.
	MapFn func(relation.Tuple) relation.Tuple

	// ProjectFn configures a NodeProject. ProjectValue names it when it is
	// one of the projections the group-by kernel folds whole match ranges
	// over (see sink.Value); AddProjectValue keeps the two in step.
	ProjectFn    sink.Projection
	ProjectValue sink.Value

	// Agg configures a NodeGroupAggregate; GroupJoin, set by the planner,
	// runs it as a groupjoin over the join cluster below it.
	Agg       sink.Agg
	GroupJoin *GroupJoin

	// Sink configures a NodeSink; nil selects the built-in max-sum
	// aggregate, preserving the classic Run semantics.
	Sink sink.Sink
}

// Plan is a DAG of operators with exactly one root (the node no other node
// consumes). Build plans with the Add* methods — each returns the new node's
// ID for use as a later input — and execute them with RunPlanFor. The zero Plan
// is empty and ready for use.
type Plan struct {
	Nodes []PlanNode
}

// add appends a node and returns its ID.
func (p *Plan) add(n PlanNode) NodeID {
	p.Nodes = append(p.Nodes, n)
	return NodeID(len(p.Nodes) - 1)
}

// AddScan adds a scan of rel with an optional selection predicate (nil keeps
// every tuple).
func (p *Plan) AddScan(rel *relation.Relation, pred Predicate) NodeID {
	return p.add(PlanNode{Kind: NodeScan, Rel: rel, Pred: pred})
}

// AddScanRange adds a scan of rel with an optional structured key-range
// selection (run branch-free) and an optional additional predicate.
func (p *Plan) AddScanRange(rel *relation.Relation, rng *KeyRange, pred Predicate) NodeID {
	return p.add(PlanNode{Kind: NodeScan, Rel: rel, Pred: pred, Range: rng})
}

// AddJoin adds a join of the build (private) input against the probe (public)
// input. The opts' Sink and Scratch fields are cleared: the consuming
// operator provides the sink and the executor provides the scratch pool.
func (p *Plan) AddJoin(build, probe NodeID, alg Algorithm, opts core.Options, disk core.DiskOptions) NodeID {
	opts.Sink = nil
	opts.Scratch = nil
	return p.add(PlanNode{
		Kind:        NodeJoin,
		Inputs:      []NodeID{build, probe},
		Algorithm:   alg,
		JoinOptions: opts,
		DiskOptions: disk,
	})
}

// AddMap adds a tuple-to-tuple transformation of a tuple-producing input.
func (p *Plan) AddMap(in NodeID, fn func(relation.Tuple) relation.Tuple) NodeID {
	return p.add(PlanNode{Kind: NodeMap, Inputs: []NodeID{in}, MapFn: fn})
}

// AddProject adds an explicit pair-to-tuple projection directly above a join.
func (p *Plan) AddProject(in NodeID, fn sink.Projection) NodeID {
	return p.add(PlanNode{Kind: NodeProject, Inputs: []NodeID{in}, ProjectFn: fn})
}

// AddProjectValue is AddProject of the projection v names.
func (p *Plan) AddProjectValue(in NodeID, v sink.Value) NodeID {
	return p.add(PlanNode{Kind: NodeProject, Inputs: []NodeID{in}, ProjectFn: v.Projection(), ProjectValue: v})
}

// AddGroupAggregate adds a group-by-key aggregation of its input.
func (p *Plan) AddGroupAggregate(in NodeID, agg sink.Agg) NodeID {
	return p.add(PlanNode{Kind: NodeGroupAggregate, Inputs: []NodeID{in}, Agg: agg})
}

// AddSink terminates the plan in s, which receives the raw joined pairs of
// the input join; nil selects the built-in max-sum aggregate.
func (p *Plan) AddSink(in NodeID, s sink.Sink) NodeID {
	return p.add(PlanNode{Kind: NodeSink, Inputs: []NodeID{in}, Sink: s})
}

// producesTuples reports whether nodes of kind k output a tuple stream (as
// opposed to a join's pair stream or a sink's nothing).
func producesTuples(k NodeKind) bool {
	switch k {
	case NodeScan, NodeMap, NodeProject, NodeGroupAggregate:
		return true
	default:
		return false
	}
}

// Validate checks that the plan is a well-formed operator DAG: non-empty,
// acyclic, with in-range inputs, a single root, no dangling (unconsumed)
// nodes, kind-consistent arities and input types, and per-join
// algorithm/kind/band combinations that the join layer supports. Non-inner
// join kinds are rejected below another join — outer/semi/anti results with
// their zero-valued or absent public side have no meaningful default
// projection to feed a second join with.
func (p *Plan) Validate() error {
	if len(p.Nodes) == 0 {
		return fmt.Errorf("exec: empty plan")
	}
	consumers := make([][]NodeID, len(p.Nodes))
	for id, n := range p.Nodes {
		if err := p.validateNode(NodeID(id), n); err != nil {
			return err
		}
		for _, in := range n.Inputs {
			consumers[in] = append(consumers[in], NodeID(id))
		}
	}
	if err := p.checkAcyclic(); err != nil {
		return err
	}
	for id, n := range p.Nodes {
		if n.Kind == NodeGroupAggregate && n.GroupJoin != nil {
			if err := p.validateGroupJoin(NodeID(id)); err != nil {
				return err
			}
		}
	}

	root := NodeID(-1)
	for id := range p.Nodes {
		if len(consumers[id]) > 0 {
			// Shared inputs are only allowed for scans (reading one base
			// relation twice, as in a self-join); every other operator
			// streams into exactly one consumer.
			if len(consumers[id]) > 1 && p.Nodes[id].Kind != NodeScan {
				return fmt.Errorf("exec: plan node %d (%v) feeds %d consumers; only scans may be shared",
					id, p.Nodes[id].Kind, len(consumers[id]))
			}
			continue
		}
		if root >= 0 {
			return fmt.Errorf("exec: plan has multiple roots (nodes %d and %d are not consumed by any operator)", root, id)
		}
		root = NodeID(id)
	}
	// checkAcyclic guarantees at least one node without consumers, so root
	// is set here.

	// Non-inner join kinds must not sit below another join.
	for id, n := range p.Nodes {
		if n.Kind != NodeJoin || n.JoinOptions.Kind == mergejoin.Inner {
			continue
		}
		if p.reachesJoin(NodeID(id), consumers) {
			return fmt.Errorf("exec: plan node %d: %v join below another join is not supported (only inner joins compose)",
				id, n.JoinOptions.Kind)
		}
	}
	return p.validateKeyMetadata()
}

// validateKeyMetadata enforces the composition rules of normalized-key
// (tie-break) inputs, whose uint64 keys are 8-byte prefixes of the full
// composite key: a join verifies prefix-equal pairs against the key
// metadata, but everything downstream of it sees bare prefix keys again.
// Operators that would silently compute on prefixes as if they were full
// keys — grouping by prefix merges distinct groups, a Map rewrites the
// row-index payloads the metadata is addressed by, a second join can no
// longer verify — are rejected here, at plan validation, rather than
// producing quietly wrong results. Exact schemas (whole key fits the
// prefix) carry no such hazard and pass everywhere.
func (p *Plan) validateKeyMetadata() error {
	// inexactAt reports whether a node's output keys are unverifiable
	// prefixes; memoized over the (already acyclicity-checked) DAG.
	memo := make([]int8, len(p.Nodes))
	var inexactAt func(id NodeID) bool
	inexactAt = func(id NodeID) bool {
		if memo[id] != 0 {
			return memo[id] > 0
		}
		n := p.Nodes[id]
		v := false
		switch n.Kind {
		case NodeScan:
			v = n.Rel.Meta != nil && !n.Rel.Meta.Exact()
		default:
			for _, in := range n.Inputs {
				v = v || inexactAt(in)
			}
		}
		if v {
			memo[id] = 1
		} else {
			memo[id] = -1
		}
		return v
	}
	// tieBreakSource names the tie-break relation whose prefix keys reach a
	// node, so rejections point at the offending input rather than a bare
	// node number.
	var tieBreakSource func(id NodeID) string
	tieBreakSource = func(id NodeID) string {
		n := p.Nodes[id]
		if n.Kind == NodeScan {
			if n.Rel.Meta != nil && !n.Rel.Meta.Exact() {
				return fmt.Sprintf("tie-break relation %q (%s)", n.Rel.Name, n.Rel.Meta.Describe())
			}
			return ""
		}
		for _, in := range n.Inputs {
			if s := tieBreakSource(in); s != "" {
				return s
			}
		}
		return ""
	}
	// The allowed regime, stated once per message: exact schemas compose
	// everywhere, tie-break prefixes only through a verifying join directly
	// over the scan.
	const allowed = "tie-break keys support only a single inner non-band join directly over the scan; exact-schema keys compose everywhere"
	for id, n := range p.Nodes {
		switch n.Kind {
		case NodeJoin:
			for _, in := range n.Inputs {
				if !inexactAt(in) {
					continue
				}
				src := tieBreakSource(in)
				if p.Nodes[in].Kind != NodeScan {
					return fmt.Errorf("exec: plan node %d: join input node %d (%v) carries unverifiable prefix keys from %s; a join can only verify prefixes against the scan itself (%s)",
						id, in, p.Nodes[in].Kind, src, allowed)
				}
				if n.JoinOptions.Kind != mergejoin.Inner {
					return fmt.Errorf("exec: plan node %d: %v join on %s is not supported — non-inner kinds emit unverified prefix-only matches (%s)",
						id, n.JoinOptions.Kind, src, allowed)
				}
				if n.JoinOptions.Band != 0 {
					return fmt.Errorf("exec: plan node %d: band join on %s is not supported — distance between normalized key prefixes is not distance between keys (%s)",
						id, src, allowed)
				}
			}
		case NodeGroupAggregate:
			if in := n.Inputs[0]; inexactAt(in) {
				return fmt.Errorf("exec: plan node %d: GroupAggregate over %s is not supported — grouping by the 8-byte key prefix would merge distinct groups (%s)",
					id, tieBreakSource(in), allowed)
			}
		case NodeMap:
			if in := n.Inputs[0]; inexactAt(in) {
				return fmt.Errorf("exec: plan node %d: Map over %s is not supported — rewriting tuples loses the row-index payloads the key metadata is addressed by (%s)",
					id, tieBreakSource(in), allowed)
			}
		}
	}
	return nil
}

// validateNode checks one node's arity, configuration and input types.
func (p *Plan) validateNode(id NodeID, n PlanNode) error {
	for _, in := range n.Inputs {
		if in < 0 || int(in) >= len(p.Nodes) {
			return fmt.Errorf("exec: plan node %d (%v) has dangling input %d", id, n.Kind, in)
		}
		if p.Nodes[in].Kind == NodeSink {
			return fmt.Errorf("exec: plan node %d (%v) consumes a sink node", id, n.Kind)
		}
	}
	arity := map[NodeKind]int{
		NodeScan: 0, NodeJoin: 2, NodeMap: 1, NodeProject: 1,
		NodeGroupAggregate: 1, NodeSink: 1,
	}
	want, known := arity[n.Kind]
	if !known {
		return fmt.Errorf("exec: plan node %d has unknown kind %v", id, n.Kind)
	}
	if len(n.Inputs) != want {
		return fmt.Errorf("exec: plan node %d (%v) has %d inputs, want %d", id, n.Kind, len(n.Inputs), want)
	}
	switch n.Kind {
	case NodeScan:
		if n.Rel == nil {
			return fmt.Errorf("exec: plan node %d (Scan) has no relation", id)
		}
	case NodeJoin:
		if err := validateJoin(n.Algorithm, n.JoinOptions); err != nil {
			return fmt.Errorf("exec: plan node %d: %w", id, err)
		}
	case NodeMap:
		if n.MapFn == nil {
			return fmt.Errorf("exec: plan node %d (Map) has no function", id)
		}
		if !producesTuples(p.Nodes[n.Inputs[0]].Kind) {
			return fmt.Errorf("exec: plan node %d (Map) requires a tuple-producing input, got %v (use Project above a join)",
				id, p.Nodes[n.Inputs[0]].Kind)
		}
	case NodeProject:
		if n.ProjectFn == nil {
			return fmt.Errorf("exec: plan node %d (Project) has no projection", id)
		}
		if p.Nodes[n.Inputs[0]].Kind != NodeJoin {
			return fmt.Errorf("exec: plan node %d (Project) must sit directly above a join, got %v",
				id, p.Nodes[n.Inputs[0]].Kind)
		}
	case NodeGroupAggregate:
		if !n.Agg.Valid() {
			return fmt.Errorf("exec: plan node %d has unknown aggregate %v", id, n.Agg)
		}
	case NodeSink:
		if p.Nodes[n.Inputs[0]].Kind != NodeJoin {
			return fmt.Errorf("exec: plan node %d (Sink) must sit directly above a join, got %v",
				id, p.Nodes[n.Inputs[0]].Kind)
		}
	}
	return nil
}

// checkAcyclic rejects plans whose input edges contain a cycle.
func (p *Plan) checkAcyclic() error {
	const (
		white = 0 // unvisited
		grey  = 1 // on the current DFS path
		black = 2 // fully explored
	)
	color := make([]byte, len(p.Nodes))
	var visit func(id NodeID) error
	visit = func(id NodeID) error {
		switch color[id] {
		case grey:
			return fmt.Errorf("exec: plan contains a cycle through node %d", id)
		case black:
			return nil
		}
		color[id] = grey
		for _, in := range p.Nodes[id].Inputs {
			if err := visit(in); err != nil {
				return err
			}
		}
		color[id] = black
		return nil
	}
	for id := range p.Nodes {
		if err := visit(NodeID(id)); err != nil {
			return err
		}
	}
	return nil
}

// reachesJoin reports whether any consumer path from id leads to a join node.
func (p *Plan) reachesJoin(id NodeID, consumers [][]NodeID) bool {
	for _, c := range consumers[id] {
		if p.Nodes[c].Kind == NodeJoin || p.reachesJoin(c, consumers) {
			return true
		}
	}
	return false
}

// maxWorkers bounds caller-requested parallelism: beyond it, the per-worker
// state (goroutines, runs, histograms) stops being a configuration and
// becomes a resource-exhaustion attack on the process.
const maxWorkers = 1 << 16

// validateJoin rejects unsupported algorithm/kind/band/scheduler
// combinations and out-of-range knobs for plan validation. Everything a
// caller can get wrong through the public API must be caught here with a
// returned error — the kernels below this boundary panic on invariant
// violations and rely on sched's recovery only as a backstop (see the
// panic-policy comment in internal/sched).
func validateJoin(alg Algorithm, opts core.Options) error {
	if !opts.Kind.Valid() {
		return fmt.Errorf("unknown join kind %d", int(opts.Kind))
	}
	if !opts.Scheduler.Valid() {
		return fmt.Errorf("unknown scheduler mode %d", int(opts.Scheduler))
	}
	if opts.Workers > maxWorkers {
		return fmt.Errorf("worker count %d exceeds the supported maximum %d", opts.Workers, maxWorkers)
	}
	if opts.Kind != mergejoin.Inner && alg != AlgorithmPMPSM && alg != AlgorithmBMPSM {
		return fmt.Errorf("join kind %v is only supported by the B-MPSM and P-MPSM algorithms, not %v",
			opts.Kind, alg)
	}
	if opts.Band > 0 {
		if opts.Kind != mergejoin.Inner {
			return fmt.Errorf("band joins require an inner join kind, got %v", opts.Kind)
		}
		if alg != AlgorithmPMPSM && alg != AlgorithmBMPSM {
			return fmt.Errorf("band joins are only supported by the B-MPSM and P-MPSM algorithms, not %v", alg)
		}
	}
	switch alg {
	case AlgorithmPMPSM, AlgorithmBMPSM, AlgorithmDMPSM, AlgorithmWisconsin, AlgorithmRadix:
		return nil
	default:
		return fmt.Errorf("unknown algorithm %v", alg)
	}
}
