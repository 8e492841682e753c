package exec

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/relation"
	"repro/internal/result"
	"repro/internal/sched"
	"repro/internal/sink"
)

// JoinExecution is the outcome of one join node of an executed plan.
type JoinExecution struct {
	// Node is the join's node ID within the plan.
	Node NodeID
	// Result is the join's full result (phase breakdown, NUMA stats, ...).
	Result *result.Result
	// Disk is non-nil for AlgorithmDMPSM.
	Disk *core.DiskStats
}

// PlanResult is the outcome of one plan execution.
type PlanResult struct {
	// Output is the materialized output of the plan root: the projected
	// join result, the aggregated groups, or the transformed tuple stream.
	// It is freshly allocated (never backed by pooled memory) and nil when
	// the plan terminates in a NodeSink — the sink received the stream.
	Output *relation.Relation
	// Matches and MaxSum report the root join's cardinality and (with the
	// default sink) the max-sum aggregate when the plan root is a NodeSink;
	// both are zero otherwise.
	Matches uint64
	MaxSum  uint64
	// Joins holds the per-join results in plan node (NodeID) order; a
	// groupjoin's is under its GroupAggregate node, and the joins it replaced
	// have none.
	Joins []JoinExecution
	// Rows is the number of tuples each node produced, indexed by NodeID
	// (-1 for nodes whose output was never materialized as tuples, i.e.
	// sinks and joins or projections fused into their consumer).
	Rows []int
	// ScanTime is the total time spent scanning and filtering base
	// relations.
	ScanTime time.Duration
	// AggTimes is the time each GroupAggregate node's kernel spent outside
	// its producer, indexed by NodeID (zero elsewhere): the finalisation of
	// an aggregate fused into a join — its fold is part of the join phase —
	// or fold plus finalisation over a materialized input. A groupjoin is its
	// own producer: all of its time is in its JoinExecution.
	AggTimes []time.Duration
	// Total is the end-to-end elapsed time of the plan execution.
	Total time.Duration
}

// RunPlanFor validates and executes a plan. Intermediate results — filtered
// scans, materialized join outputs feeding a second join, aggregate buffers —
// are drawn from pool when it is non-nil and returned when the plan
// finishes; the returned Output is always freshly allocated. The plan-level
// scratch lease is attributed to a query's admission reservation (owner; nil
// leaves it unattributed); the per-join leases carry their attribution in
// each join node's options. The context is checked at every operator
// boundary (and, inside each join, at phase boundaries and per chunk), so a
// canceled context aborts the plan and returns ctx.Err().
func RunPlanFor(ctx context.Context, p *Plan, pool *memory.Pool, owner *memory.Reservation) (*PlanResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	e := &planExec{
		ctx:     ctx,
		plan:    p,
		pool:    pool,
		lease:   pool.AcquireFor(owner),
		root:    p.rootNode(),
		workers: p.workers(),
		cache:   make([]*relation.Relation, len(p.Nodes)),
		owned:   make([]bool, len(p.Nodes)),
		uses:    make([]int, len(p.Nodes)),
		res:     &PlanResult{Rows: make([]int, len(p.Nodes)), AggTimes: make([]time.Duration, len(p.Nodes))},
	}
	defer e.lease.Release()
	for id := range e.res.Rows {
		e.res.Rows[id] = -1
	}
	for _, n := range p.Nodes {
		for _, in := range n.Inputs {
			e.uses[in]++
		}
	}
	var runErr error
	e.res.Total = result.StopwatchPhase(func() {
		// Coordinator-side backstop: operator code running on this goroutine
		// (scan filters, aggregation, intermediate materialization) may
		// panic; contain it to this plan and quarantine the plan lease,
		// whose buffers may be mid-write.
		defer func() {
			if r := recover(); r != nil {
				e.lease.Poison()
				runErr = sched.Recovered(owner.Label(), "plan", -1, r)
			}
		}()
		runErr = e.runRoot(e.root)
	})
	if runErr != nil {
		return nil, runErr
	}
	// Joins are appended in execution order, which for hand-built plans with
	// forward-referencing inputs can differ from node order; normalize.
	sort.Slice(e.res.Joins, func(i, j int) bool { return e.res.Joins[i].Node < e.res.Joins[j].Node })
	return e.res, nil
}

// rootNode returns the single unconsumed node; Validate guarantees it exists.
func (p *Plan) rootNode() NodeID {
	consumed := make([]bool, len(p.Nodes))
	for _, n := range p.Nodes {
		for _, in := range n.Inputs {
			consumed[in] = true
		}
	}
	for id := range p.Nodes {
		if !consumed[id] {
			return NodeID(id)
		}
	}
	return 0 // unreachable on validated plans
}

// planExec is the state of one plan execution.
type planExec struct {
	ctx  context.Context
	plan *Plan
	root NodeID
	// workers is the plan's degree of parallelism for scans, maps and a
	// group-by over a materialized input (Plan.workers).
	workers int
	pool    *memory.Pool
	lease   *memory.Lease // plan-level lease for intermediate relations
	// cache memoizes materialized node outputs (shared scans); owned marks
	// outputs whose backing came from the plan lease and may be recycled
	// once their last consumer has run.
	cache []*relation.Relation
	owned []bool
	uses  []int
	res   *PlanResult
}

// boundary reports a canceled context at an operator boundary.
func (e *planExec) boundary() error { return e.ctx.Err() }

// runRoot executes the plan from its root node and fills in the result.
func (e *planExec) runRoot(root NodeID) error {
	n := e.plan.Nodes[root]
	if n.Kind == NodeSink {
		// Terminal sink: the root join streams its raw pairs directly into
		// the user sink; nothing is materialized.
		join := n.Inputs[0]
		res, err := e.runJoin(join, n.Sink)
		if err != nil {
			return err
		}
		e.res.Matches = res.Matches
		e.res.MaxSum = res.MaxSum
		return nil
	}
	out, err := e.materialize(root)
	if err != nil {
		return err
	}
	if e.owned[root] {
		// The caller keeps the output; move it out of pooled memory before
		// the plan lease is released.
		fresh := make([]relation.Tuple, len(out.Tuples))
		copy(fresh, out.Tuples)
		out = relation.New(out.Name, fresh)
	}
	e.res.Output = out
	return nil
}

// materialize produces the tuple output of a tuple-producing node (or of a
// join via the default projection), memoizing shared scans.
func (e *planExec) materialize(id NodeID) (*relation.Relation, error) {
	if rel := e.cache[id]; rel != nil {
		return rel, nil
	}
	if err := e.boundary(); err != nil {
		return nil, err
	}
	n := e.plan.Nodes[id]
	var (
		rel   *relation.Relation
		owned bool
		err   error
	)
	switch n.Kind {
	case NodeScan:
		var leased bool
		e.res.ScanTime += result.StopwatchPhase(func() {
			rel, leased = applyScanFilter(e.ctx, n.Rel, n.Range, n.Pred, e.workers, e.lease)
		})
		owned = leased
		if err := e.boundary(); err != nil {
			return nil, err
		}
	case NodeJoin:
		rel, err = e.collectJoin(id, nil)
		owned = true
	case NodeProject:
		rel, err = e.collectJoin(n.Inputs[0], n.ProjectFn)
		owned = true
	case NodeMap:
		rel, owned, err = e.runMap(n)
	case NodeGroupAggregate:
		rel, owned, err = e.runAggregate(id, n)
	default:
		return nil, fmt.Errorf("exec: cannot materialize plan node %d (%v)", id, n.Kind)
	}
	if err != nil {
		return nil, err
	}
	// Without a pool the lease is nil and every buffer above was freshly
	// allocated anyway: nothing is recycled and the root needs no defensive
	// copy out of pooled memory.
	e.cache[id] = rel
	e.owned[id] = owned && e.lease != nil
	e.res.Rows[id] = rel.Len()
	return rel, nil
}

// collectJoin executes the join node with a projecting bridge sink and wraps
// the collected tuples as the intermediate relation.
func (e *planExec) collectJoin(join NodeID, project sink.Projection) (*relation.Relation, error) {
	snk := sink.NewCollect(project, e.lease)
	if _, err := e.runJoin(join, snk); err != nil {
		return nil, err
	}
	return relation.New(fmt.Sprintf("join%d", join), snk.Rows()), nil
}

// runMap applies the node's function to its materialized input.
func (e *planExec) runMap(n PlanNode) (*relation.Relation, bool, error) {
	in, err := e.materialize(n.Inputs[0])
	if err != nil {
		return nil, false, err
	}
	if err := e.boundary(); err != nil {
		return nil, false, err
	}
	out := e.lease.Tuples(in.Len())
	mapChunks(e.ctx, in.Tuples, out, n.MapFn, e.workers)
	if err := e.boundary(); err != nil {
		return nil, false, err
	}
	return relation.New(in.Name, out), true, nil
}

// runAggregate groups its input by key: as a groupjoin where the node carries
// one, otherwise with the sort-based kernel. Above a join — directly or
// through a Project — the kernel fuses into the join's sink, so the join
// output is never materialized; above a scan, map or aggregate it folds the
// materialized tuples.
func (e *planExec) runAggregate(id NodeID, n PlanNode) (*relation.Relation, bool, error) {
	if n.GroupJoin != nil {
		return e.runGroupJoin(id, n)
	}
	out := e.lease
	if id == e.root {
		out = nil // the caller keeps the root's output: build it outside pooled memory
	}
	in, project, value := n.Inputs[0], sink.Projection(nil), sink.ValuePayloadSum
	if p := e.plan.Nodes[in]; p.Kind == NodeProject {
		in, project, value = p.Inputs[0], p.ProjectFn, p.ProjectValue
	}
	snk := sink.NewGroups(e.ctx, n.Agg, project, value, out)
	if e.plan.Nodes[in].Kind == NodeJoin {
		if _, err := e.runJoin(in, snk); err != nil {
			return nil, false, err
		}
	} else {
		rel, err := e.materialize(in)
		if err != nil {
			return nil, false, err
		}
		if err := e.boundary(); err != nil {
			return nil, false, err
		}
		snk.SetScratch(e.lease)
		if err := snk.Aggregate(rel.Tuples, e.workers); err != nil {
			return nil, false, err
		}
	}
	e.res.AggTimes[id] = snk.Elapsed()
	return relation.New("groups", snk.Rows()), out != nil, nil
}

// runJoin materializes the join's inputs, executes the join streaming into
// snk, records the execution, and recycles single-consumer intermediate
// inputs back into the plan lease.
func (e *planExec) runJoin(id NodeID, snk sink.Sink) (*result.Result, error) {
	n := e.plan.Nodes[id]
	build, err := e.materialize(n.Inputs[0])
	if err != nil {
		return nil, err
	}
	probe, err := e.materialize(n.Inputs[1])
	if err != nil {
		return nil, err
	}
	if err := e.boundary(); err != nil {
		return nil, err
	}
	opts := n.JoinOptions
	opts.Sink = snk
	opts.Scratch = e.pool
	res, disk, err := Join(e.ctx, n.Algorithm, build, probe, opts, n.DiskOptions)
	if err != nil {
		return nil, err
	}
	e.res.Joins = append(e.res.Joins, JoinExecution{Node: id, Result: res, Disk: disk})
	e.recycle(n.Inputs[0])
	e.recycle(n.Inputs[1])
	return res, nil
}

// recycle returns a leased intermediate input to the plan lease once its
// last consumer has run, so a deep plan's intermediates reuse one another's
// memory.
func (e *planExec) recycle(id NodeID) {
	e.uses[id]--
	if e.uses[id] > 0 || !e.owned[id] || e.cache[id] == nil {
		return
	}
	e.lease.PutTuples(e.cache[id].Tuples)
	e.cache[id] = nil
	e.owned[id] = false
}

// workers is the degree of parallelism for scans and maps of a validated
// plan: the widest worker count any join or groupjoin that runs requests —
// the joins a groupjoin replaced do not run (normalized joins default to
// GOMAXPROCS via core, so 0 means "no explicit request").
func (p *Plan) workers() int {
	var fused []NodeID
	for id, n := range p.Nodes {
		if n.GroupJoin != nil {
			in, _ := p.GroupJoinInputs(NodeID(id))
			fused = append(fused, in.Joins...)
		}
	}
	w := 0
	for id, n := range p.Nodes {
		switch {
		case n.Kind == NodeJoin && !slices.Contains(fused, NodeID(id)):
			w = max(w, n.JoinOptions.Workers)
		case n.GroupJoin != nil:
			w = max(w, n.GroupJoin.Workers)
		}
	}
	return w
}
