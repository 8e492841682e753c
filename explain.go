package mpsm

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/exec"
	"repro/internal/planner"
)

// Explain describes the physical plan the engine would execute for a Plan:
// one entry per plan node with the chosen operators (join algorithm,
// scheduling mode, presorted declarations, the shape of each join's output),
// the planner's estimated cardinalities and join costs, and — after
// ExplainAnalyze — the actual ones plus each aggregate's time. With
// auto-planning enabled (WithAutoPlan, as an engine default or a per-call
// option) the description reflects the optimizer's rewrites; without it, the
// configured plan annotated with estimates.
//
// Explain renders human-readably via String and machine-readably via
// MarshalJSON.
type Explain struct {
	// AutoPlan reports whether the description is the optimizer's rewrite.
	AutoPlan bool `json:"auto_plan"`
	// Nodes holds one entry per plan node, in plan construction order (the
	// same order as the Plan builder's handles; join entries line up with
	// PlanResult.Joins).
	Nodes []ExplainNode `json:"nodes"`
}

// ExplainCost is one algorithm's modelled cost for a join node.
type ExplainCost struct {
	Algorithm string  `json:"algorithm"`
	Millis    float64 `json:"millis"`
}

// ExplainNode is the physical description of one plan node.
type ExplainNode struct {
	// ID is the node's index; Inputs are its input node IDs after any
	// optimizer rewrites (join-order changes and build/probe swaps show up
	// here).
	ID     int    `json:"id"`
	Kind   string `json:"kind"`
	Inputs []int  `json:"inputs,omitempty"`
	// Relation names the scanned relation for Scan nodes.
	Relation string `json:"relation,omitempty"`
	// Filter describes a Scan node's selection: the branch-free key range
	// ("key∈[lo,hi)"), an opaque predicate ("pred"), or both. Empty for
	// unfiltered scans.
	Filter string `json:"filter,omitempty"`

	// EstRows is the planner's estimated output cardinality. For join nodes
	// it is the estimated match count even when the join's output is fused
	// into a sink or aggregate rather than materialized.
	EstRows float64 `json:"est_rows"`
	// ActualRows is the observed cardinality, filled in by ExplainAnalyze;
	// -1 when the plan was not executed or the node's output was never
	// counted.
	ActualRows int64 `json:"actual_rows"`
	// EstDistinct and Skew describe the estimated output key distribution.
	EstDistinct float64 `json:"est_distinct,omitempty"`
	Skew        float64 `json:"skew,omitempty"`

	// Join-node decisions.
	Algorithm string `json:"algorithm,omitempty"`
	Scheduler string `json:"scheduler,omitempty"`
	// Workers is the worker count the join runs on and WorkersBound the count
	// it could have had — the engine's configured count or a service's share.
	// They are equal for a configured plan; under auto-planning Workers is the
	// planner's choice, and Reason gives the speed-up that decided it.
	Workers          int           `json:"workers,omitempty"`
	WorkersBound     int           `json:"workers_bound,omitempty"`
	MorselSize       int           `json:"morsel_size,omitempty"`
	PresortedPrivate bool          `json:"presorted_private,omitempty"`
	PresortedPublic  bool          `json:"presorted_public,omitempty"`
	Swapped          bool          `json:"swapped,omitempty"`
	Reordered        bool          `json:"reordered,omitempty"`
	Costs            []ExplainCost `json:"costs,omitempty"`
	// Output is the shape in which a join hands its output to its consumer:
	// "ranges, key-ordered" (B-/P-MPSM: one entry per private key group and
	// public run), with ", range-partitioned ×T" when every writer holds one
	// key range (statically scheduled P-MPSM), or "pairs, probe order" (the
	// hash joins). A consumer that folds ranges starts from it instead of
	// re-establishing it.
	Output string `json:"output,omitempty"`
	// EstMillis is the cost model's estimate for the join as planned,
	// delivery to its consumer included; Millis, filled in by ExplainAnalyze,
	// is the measured Result.Total — their ratio is the model's error.
	EstMillis float64 `json:"est_ms,omitempty"`
	Millis    float64 `json:"ms,omitempty"`

	// AggMillis is the time a GroupAggregate node's kernel spent outside its
	// producer, filled in by ExplainAnalyze: the finalisation (partition,
	// sort, fold) of an aggregate fused into a join — the per-pair fold is
	// part of the join phase — or fold plus finalisation over a materialized
	// input.
	AggMillis float64 `json:"agg_ms,omitempty"`

	// Keys describes the key-schema regime of scans over normalized-key
	// relations and of joins consuming them: prefix width, fast-path vs
	// tie-break choice, and the sampled prefix-collision estimate. Empty
	// for raw uint64 keys. Present with and without auto-planning — the
	// key path is decided by the schema, not the optimizer.
	Keys string `json:"keys,omitempty"`

	// Reason summarizes the planner's rationale; empty without auto-planning.
	Reason string `json:"reason,omitempty"`
}

// Explain returns the physical plan description for p under the engine's
// configuration plus the given per-call options, without executing the plan.
// Estimated cardinalities come from sampled relation statistics (cached on
// the engine); ActualRows is -1 throughout. Enable WithAutoPlan (on the
// engine or per call) to see the cost-based optimizer's choices.
func (e *Engine) Explain(p *Plan, opts ...Option) (*Explain, error) {
	ex, _, err := e.explain(p, opts)
	return ex, err
}

// ExplainAnalyze executes the plan and returns the physical plan description
// with both estimated and actual cardinalities, alongside the execution's
// result. The executed plan is exactly the described one.
func (e *Engine) ExplainAnalyze(ctx context.Context, p *Plan, opts ...Option) (*Explain, *PlanResult, error) {
	ex, ep, err := e.explain(p, opts)
	if err != nil {
		return nil, nil, err
	}
	global := e.resolve(opts)
	pr, err := exec.RunPlan(ctx, ep, e.scratchFor(global))
	if err != nil {
		return nil, nil, err
	}
	res := convertPlanResult(pr)
	for i := range ex.Nodes {
		if rows := pr.Rows[i]; rows >= 0 {
			ex.Nodes[i].ActualRows = int64(rows)
		}
		ex.Nodes[i].AggMillis = float64(pr.AggTimes[i]) / float64(time.Millisecond)
	}
	// Fused joins (feeding a sink or aggregate) never materialize rows; their
	// actual cardinality is the match count, and a Project fused along with
	// its join passes every pair.
	for _, j := range pr.Joins {
		node := &ex.Nodes[j.Node]
		if node.ActualRows < 0 {
			node.ActualRows = int64(j.Result.Matches)
		}
		node.Millis = float64(j.Result.Total) / float64(time.Millisecond)
	}
	for i := range ex.Nodes {
		if node := &ex.Nodes[i]; node.Kind == exec.NodeProject.String() && node.ActualRows < 0 {
			node.ActualRows = ex.Nodes[node.Inputs[0]].ActualRows
		}
	}
	return ex, res, nil
}

// explain lowers, optimizes (or annotates) and describes a plan, returning
// the description and the exec plan it describes.
func (e *Engine) explain(p *Plan, opts []Option) (*Explain, *exec.Plan, error) {
	ep, global, err := e.buildExecPlan(p, opts)
	if err != nil {
		return nil, nil, err
	}
	opt := &planner.Optimizer{Profile: e.profileFor, Rewrite: global.autoPlan}
	optimized, decisions, err := opt.Optimize(ep)
	if err != nil {
		return nil, nil, err
	}
	ex := &Explain{AutoPlan: global.autoPlan}
	for i, d := range decisions {
		n := optimized.Nodes[i]
		en := ExplainNode{
			ID:          int(d.ID),
			Kind:        d.Kind.String(),
			EstRows:     d.EstRows,
			ActualRows:  -1,
			EstDistinct: d.EstDistinct,
			Skew:        d.Skew,
			Keys:        d.Keys,
			Reason:      d.Reason,
		}
		for _, in := range d.Inputs {
			en.Inputs = append(en.Inputs, int(in))
		}
		switch n.Kind {
		case exec.NodeScan:
			if n.Rel != nil {
				en.Relation = n.Rel.Name
			}
			en.Filter = scanFilterDesc(n)
		case exec.NodeJoin:
			en.Algorithm = d.Algorithm.String()
			en.Scheduler = d.Scheduler.String()
			en.Workers, en.WorkersBound = d.Workers, d.Bound
			en.MorselSize = d.MorselSize
			en.PresortedPrivate = d.PresortedPrivate
			en.PresortedPublic = d.PresortedPublic
			en.Swapped = d.Swapped
			en.Reordered = d.Reordered
			en.Output = d.Output.String()
			en.EstMillis = d.EstMillis
			for _, c := range d.Costs {
				en.Costs = append(en.Costs, ExplainCost{Algorithm: c.Algorithm.String(), Millis: c.Millis})
			}
		}
		ex.Nodes = append(ex.Nodes, en)
	}
	return ex, optimized, nil
}

// scanFilterDesc summarizes a scan node's selection for Explain.
func scanFilterDesc(n exec.PlanNode) string {
	var parts []string
	if n.Range != nil {
		parts = append(parts, fmt.Sprintf("key∈[%d,%d)", n.Range.Low, n.Range.High))
	}
	if n.Pred != nil {
		parts = append(parts, "pred")
	}
	return strings.Join(parts, ", ")
}

// MarshalJSON renders the description as JSON.
func (ex *Explain) MarshalJSON() ([]byte, error) {
	type alias Explain // avoid recursing into MarshalJSON
	return json.Marshal((*alias)(ex))
}

// String renders the plan as an indented operator tree, root first:
//
//	GroupAggregate est=65536 actual=65493 agg=1.87ms
//	└─ Join [P-MPSM, static, workers=2, → ranges, key-ordered, range-partitioned ×2] est=1047113 actual=1048628 est_ms=18.4 ms=21.9
//	   ├─ Scan R est=262144
//	   └─ Scan S est=1048576
func (ex *Explain) String() string {
	consumed := make([]bool, len(ex.Nodes))
	for _, n := range ex.Nodes {
		for _, in := range n.Inputs {
			consumed[in] = true
		}
	}
	var b strings.Builder
	first := true
	for id := len(ex.Nodes) - 1; id >= 0; id-- {
		if consumed[id] {
			continue
		}
		if !first {
			b.WriteString("\n")
		}
		first = false
		ex.render(&b, id, "", "", "")
	}
	return b.String()
}

// render writes one node and its subtree.
func (ex *Explain) render(b *strings.Builder, id int, prefix, branch, childPrefix string) {
	n := ex.Nodes[id]
	b.WriteString(prefix + branch + n.describe() + "\n")
	for i, in := range n.Inputs {
		last := i == len(n.Inputs)-1
		nextBranch, nextChild := "├─ ", "│  "
		if last {
			nextBranch, nextChild = "└─ ", "   "
		}
		ex.render(b, in, prefix+childPrefix, nextBranch, nextChild)
	}
}

// describe renders one node line.
func (n ExplainNode) describe() string {
	var b strings.Builder
	b.WriteString(n.Kind)
	if n.Relation != "" {
		b.WriteString(" " + n.Relation)
	}
	var attrs []string
	if n.Filter != "" {
		attrs = append(attrs, n.Filter)
	}
	if n.Algorithm != "" {
		attrs = append(attrs, n.Algorithm)
	}
	if n.Scheduler != "" {
		attrs = append(attrs, n.Scheduler)
	}
	switch {
	case n.Workers > 0 && n.Workers < n.WorkersBound:
		attrs = append(attrs, fmt.Sprintf("workers=%d of %d", n.Workers, n.WorkersBound))
	case n.Workers > 0:
		attrs = append(attrs, fmt.Sprintf("workers=%d", n.Workers))
	}
	if n.PresortedPrivate {
		attrs = append(attrs, "presorted-private")
	}
	if n.PresortedPublic {
		attrs = append(attrs, "presorted-public")
	}
	if n.Swapped {
		attrs = append(attrs, "swapped")
	}
	if n.Reordered {
		attrs = append(attrs, "reordered")
	}
	if n.Output != "" {
		attrs = append(attrs, "→ "+n.Output)
	}
	if n.Keys != "" {
		attrs = append(attrs, n.Keys)
	}
	if len(attrs) > 0 {
		b.WriteString(" [" + strings.Join(attrs, ", ") + "]")
	}
	fmt.Fprintf(&b, " est=%.0f", n.EstRows)
	if n.ActualRows >= 0 {
		fmt.Fprintf(&b, " actual=%d", n.ActualRows)
	}
	if n.AggMillis > 0 {
		fmt.Fprintf(&b, " agg=%.2fms", n.AggMillis)
	}
	if n.Millis > 0 {
		fmt.Fprintf(&b, " est_ms=%.2f ms=%.2f", n.EstMillis, n.Millis)
	}
	if n.Reason != "" {
		b.WriteString("  -- " + n.Reason)
	}
	return b.String()
}
