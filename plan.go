package mpsm

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/sink"
)

// Agg selects the aggregate function of a GroupAggregate plan node.
type Agg = sink.Agg

// Available aggregate functions. The aggregation input of a joined pair is
// the default join projection value R.payload + S.payload; for tuple inputs
// it is the tuple payload.
const (
	// AggSum sums the values per key.
	AggSum = sink.AggSum
	// AggMin keeps the smallest value per key.
	AggMin = sink.AggMin
	// AggMax keeps the largest value per key.
	AggMax = sink.AggMax
	// AggCount counts the tuples per key.
	AggCount = sink.AggCount
)

// Plan is a composable operator DAG: scans feed joins, joins feed further
// joins, projections, aggregations or a terminal sink. Build a plan once
// with NewPlan and the node methods, then execute it — any number of times,
// even concurrently — with Engine.RunPlan:
//
//	plan := mpsm.NewPlan()
//	r := plan.Scan(relR)
//	s := plan.Scan(relS)
//	t := plan.Scan(relT)
//	rs := plan.Join(r, s)                       // (R ⋈ S), engine defaults
//	rst := plan.Join(rs, t)                     // (R ⋈ S) ⋈ T
//	plan.GroupAggregate(rst, mpsm.AggSum)       // SUM(payload) GROUP BY key
//	res, err := engine.RunPlan(ctx, plan)
//
// Joins compose because the MPSM join phase consumes and produces key-ordered
// runs: a join feeding a join materializes its projected output as an
// intermediate relation through the engine's scratch pool. A GroupAggregate
// above a join — directly or through a Project — fuses into the join's sink:
// the workers fold equal keys as pairs arrive, and the groups are finalised
// by range partitioning and sorting, without materializing the join output
// or building a hash table.
//
// A Plan holds the executor's own node list; each execution configures and
// plans a copy of it, so concurrent runs never see each other's physical
// choices and the Plan itself is never rewritten.
type Plan struct {
	// ep holds the nodes as the executor reads them; a join node's
	// configuration is resolved at RunPlan time from the engine, the call
	// and joinOpts, each join node's own options in join node order.
	ep       exec.Plan
	joinOpts [][]Option
	err      error
	// info is set when the plan was compiled from query text (Compile); the
	// plan memo keys it by the canonical text instead of the structural
	// shape.
	info *QueryInfo
}

// QueryInfo describes the query text a compiled plan came from.
type QueryInfo struct {
	// Text is the canonical (pretty-printed) query: equivalent spellings
	// share one Text, which is what keys the plan memo.
	Text string
	// Head names the output relation; Columns name its key and value.
	Head    string
	Columns [2]string
}

// QueryInfo returns the query this plan was compiled from, or nil for a
// hand-built plan.
func (p *Plan) QueryInfo() *QueryInfo { return p.info }

// PlanNode is an opaque handle to one node of a Plan, used to wire later
// nodes to its output.
type PlanNode struct {
	plan *Plan
	id   exec.NodeID
}

// NewPlan returns an empty plan.
func NewPlan() *Plan { return &Plan{} }

// fail records the first builder misuse; RunPlan reports it.
func (p *Plan) fail(format string, args ...any) PlanNode {
	if p.err == nil {
		p.err = fmt.Errorf(format, args...)
	}
	return PlanNode{plan: p, id: -1}
}

// node returns the handle of node id.
func (p *Plan) node(id exec.NodeID) PlanNode { return PlanNode{plan: p, id: id} }

// input checks that a handle belongs to this plan.
func (p *Plan) input(n PlanNode, op string) (exec.NodeID, bool) {
	if n.plan != p || n.id < 0 || int(n.id) >= len(p.ep.Nodes) {
		p.fail("mpsm: %s input is not a node of this plan", op)
		return -1, false
	}
	return n.id, true
}

// Scan adds a scan of rel with an optional selection predicate (at most one;
// none keeps every tuple). One scan may feed several joins. The predicate
// must be a pure function of the tuple: it is evaluated concurrently from
// several workers, once per tuple.
func (p *Plan) Scan(rel *Relation, pred ...func(Tuple) bool) PlanNode {
	return p.scan("Scan", rel, nil, pred)
}

// ScanRange adds a scan of rel restricted to keys in the half-open interval
// [low, high), evaluated branch-free inside the scan, with an optional
// additional predicate (same contract as Scan's). A compiled query's fully
// bounded key comparisons become the same node.
func (p *Plan) ScanRange(rel *Relation, low, high uint64, pred ...func(Tuple) bool) PlanNode {
	return p.scan("ScanRange", rel, &exec.KeyRange{Low: low, High: high}, pred)
}

// scan adds the scan node of Scan and ScanRange.
func (p *Plan) scan(op string, rel *Relation, rng *exec.KeyRange, pred []func(Tuple) bool) PlanNode {
	var pr exec.Predicate
	switch len(pred) {
	case 0:
	case 1:
		pr = pred[0]
	default:
		return p.fail("mpsm: %s takes at most one predicate, got %d", op, len(pred))
	}
	return p.node(p.ep.AddScanRange(rel, rng, pr))
}

// Join adds a join of the build (private) input against the probe (public)
// input. The engine's configuration — algorithm, kind, band, workers,
// scheduler, splitters — applies, overridden first by RunPlan's per-call
// options and then by the per-node opts given here (a WithSink option is
// ignored; results flow to the consuming node or the terminal sink). For
// P-MPSM the build input should be the smaller relation.
func (p *Plan) Join(build, probe PlanNode, opts ...Option) PlanNode {
	b, ok := p.input(build, "Join build")
	if !ok {
		return PlanNode{plan: p, id: -1}
	}
	pr, ok := p.input(probe, "Join probe")
	if !ok {
		return PlanNode{plan: p, id: -1}
	}
	p.joinOpts = append(p.joinOpts, opts)
	return p.node(p.ep.AddJoin(b, pr, exec.AlgorithmPMPSM, core.Options{}, core.DiskOptions{}))
}

// Map adds a tuple-to-tuple transformation of a tuple-producing input (a
// scan, projection or aggregation; use Project directly above a join).
func (p *Plan) Map(in PlanNode, fn func(Tuple) Tuple) PlanNode {
	id, ok := p.input(in, "Map")
	if !ok {
		return PlanNode{plan: p, id: -1}
	}
	return p.node(p.ep.AddMap(id, fn))
}

// Project adds an explicit pair-to-tuple projection directly above a join,
// overriding the default projection {Key: R.Key, Payload: R.Payload +
// S.Payload} that a join otherwise feeds its consumer.
func (p *Plan) Project(in PlanNode, fn func(r, s Tuple) Tuple) PlanNode {
	id, ok := p.input(in, "Project")
	if !ok {
		return PlanNode{plan: p, id: -1}
	}
	return p.node(p.ep.AddProject(id, fn))
}

// GroupAggregate adds a group-by-key aggregation of its input, run by one
// parallel sort-based kernel whatever the producer. Above a join — any of the
// five algorithms, directly or through a Project — it fuses into the join's
// sink and the join output is never materialized; above a scan, map or
// aggregate it folds the materialized tuples. Under auto-planning, above a
// cluster of inner equi-joins over scans, the planner may run it as a
// groupjoin instead: the joins do not run, and one hash table over the
// smallest input's distinct keys folds the other inputs into per-key counts
// and values (PlanResult.Joins then holds one "GroupJoin" result in their
// place). The output is one tuple {Key: group key, Payload: aggregate} per
// distinct key, in ascending key order.
func (p *Plan) GroupAggregate(in PlanNode, agg Agg) PlanNode {
	id, ok := p.input(in, "GroupAggregate")
	if !ok {
		return PlanNode{plan: p, id: -1}
	}
	return p.node(p.ep.AddGroupAggregate(id, agg))
}

// Sink terminates the plan in s, which receives the raw joined pairs of the
// input join (a nil s selects the built-in max-sum aggregate). A sink node
// must be the plan root and sit directly above a join. Like WithSink, the
// sink is stateful: reuse a plan with a sink node only for sequential
// executions.
func (p *Plan) Sink(in PlanNode, s Sink) PlanNode {
	id, ok := p.input(in, "Sink")
	if !ok {
		return PlanNode{plan: p, id: -1}
	}
	return p.node(p.ep.AddSink(id, s))
}

// PlanJoin is the outcome of one join node of an executed plan, in plan
// construction order.
type PlanJoin struct {
	// Result is the join's full result (phase breakdown, NUMA stats, ...).
	Result *Result
	// Disk is non-nil for D-MPSM joins.
	Disk *DiskStats
}

// PlanResult is the outcome of one plan execution.
type PlanResult struct {
	// Output is the materialized output of the plan root — the projected
	// join result, the aggregated groups, or the transformed tuple stream —
	// owned by the caller. It is nil when the plan terminates in a Sink
	// node: the sink received the stream.
	Output *Relation
	// Matches and MaxSum report the root join's cardinality and (with the
	// default sink) the max-sum aggregate when the plan root is a Sink
	// node; both are zero otherwise.
	Matches uint64
	MaxSum  uint64
	// Joins holds the per-join results in join node order; a groupjoin's
	// result stands at its GroupAggregate's place, and the joins it replaced
	// have none.
	Joins []PlanJoin
	// ScanTime is the total time spent scanning and filtering base
	// relations.
	ScanTime time.Duration
	// AggTime is the total time GroupAggregate nodes spent outside their
	// producers: finalising (partition, sort, fold) the groups of an
	// aggregate fused into a join — whose per-pair fold is part of the join
	// phase — or folding and finalising a materialized input. A groupjoin's
	// time is all in its Joins entry.
	AggTime time.Duration
	// Total is the end-to-end elapsed time of the plan.
	Total time.Duration
}

// RunPlan validates and executes a plan. Per-call options override the
// engine's configuration for every join of the plan (per-node Join options
// override both). Intermediate results are drawn from the engine's scratch
// pool when it has one; the returned Output is always freshly allocated. A
// canceled context aborts the plan at the next operator boundary (or, inside
// a join, at the next phase boundary or chunk) and returns ctx.Err().
//
// RunPlan is the one execution path of the engine — its single-join calls
// run the one-join plan through it — and of a Service over it: it takes the
// physical plan from the engine's plan memo, keyed by canonical text for a
// compiled query and by shape otherwise.
func (e *Engine) RunPlan(ctx context.Context, p *Plan, opts ...Option) (*PlanResult, error) {
	ep, g, err := e.buildExecPlan(p, opts)
	if err != nil {
		return nil, err
	}
	if p.info != nil {
		ep, err = e.memo.OptimizeKeyed(p.info.Text, ep, g.autoPlan)
	} else {
		ep, err = e.memo.Optimize(ep, g.autoPlan)
	}
	if err != nil {
		return nil, err
	}
	pr, err := exec.RunPlanFor(ctx, ep, e.scratchFor(g), g.Owner)
	if err != nil {
		return nil, err
	}
	return convertPlanResult(pr), nil
}

// convertPlanResult lifts the exec result into the public representation.
func convertPlanResult(pr *exec.PlanResult) *PlanResult {
	res := &PlanResult{
		Output:   pr.Output,
		Matches:  pr.Matches,
		MaxSum:   pr.MaxSum,
		ScanTime: pr.ScanTime,
		Total:    pr.Total,
	}
	for _, d := range pr.AggTimes {
		res.AggTime += d
	}
	for _, j := range pr.Joins { // already sorted by node ID
		res.Joins = append(res.Joins, PlanJoin{Result: j.Result, Disk: j.Disk})
	}
	return res
}

// buildExecPlan copies the plan's nodes into the exec plan one run plans and
// executes, and configures each join node: the engine's configuration, then
// the per-call options, then the node's own. The planner and the plan memo
// rewrite inputs and physical choices on that copy, never on p, which is what
// lets one Plan run concurrently — and what lets optimized physical choices
// override per-node options.
func (e *Engine) buildExecPlan(p *Plan, opts []Option) (*exec.Plan, settings, error) {
	global := e.resolve(opts)
	if p == nil || len(p.ep.Nodes) == 0 {
		return nil, global, fmt.Errorf("mpsm: RunPlan requires a non-empty plan")
	}
	if p.err != nil {
		return nil, global, p.err
	}
	ep := &exec.Plan{Nodes: slices.Clone(p.ep.Nodes)}
	joinOpts := p.joinOpts
	for i := range ep.Nodes {
		switch n := &ep.Nodes[i]; n.Kind {
		case exec.NodeScan:
			if n.Rel == nil {
				return nil, global, fmt.Errorf("mpsm: plan scans a nil relation")
			}
		case exec.NodeJoin:
			cfg := global
			for _, o := range joinOpts[0] {
				o(&cfg)
			}
			joinOpts = joinOpts[1:]
			n.Algorithm, n.JoinOptions, n.DiskOptions = cfg.algorithm, cfg.Options, cfg.disk
			n.JoinOptions.Sink, n.JoinOptions.Scratch = nil, nil
		}
	}
	return ep, global, nil
}
