package mpsm

import (
	"context"
	"fmt"

	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/sink"
)

// QueryError is a positioned query compilation error: lexical, syntactic or
// semantic. Its Pos carries the 1-based line and column of the offending
// token, Error renders "line:col: message", and Annotate renders the message
// together with the source line and a caret under the offending column.
type QueryError = query.Error

// QueryPos locates a token in query source text.
type QueryPos = query.Pos

// Catalog resolves the relation names a query's patterns refer to.
type Catalog interface {
	// Relation returns the named relation, or false when the name is not
	// bound.
	Relation(name string) (*Relation, bool)
}

// MapCatalog is the simplest Catalog: a name-to-relation map.
type MapCatalog map[string]*Relation

// Relation looks the name up in the map.
func (m MapCatalog) Relation(name string) (*Relation, bool) {
	rel, ok := m[name]
	return rel, ok
}

// Compile parses a Datalog-style query and compiles it into a Plan over the
// catalog's relations. The query is one non-recursive rule,
//
//	ans(K, Sum) :- r(K, X), s(K, Y), X > 10, agg sum(Y).
//
// whose body patterns r(Key, Payload) scan catalog relations, shared key
// variables become equi-joins (a |X - Y| <= c clause a band join),
// comparisons become scan filters — fully bounded key comparisons fold into
// branch-free key-range scans — and an agg clause groups the result by key.
// See the README's "Query language" section for the grammar.
//
// The compiled Plan runs through Engine.RunPlan, Engine.Explain or
// Service.RunPlan like a hand-built one: it inherits auto-planning, EXPLAIN,
// fair-share scheduling and the plan cache (keyed by the canonical query
// text, exposed via Plan.QueryInfo). Errors are *QueryError values carrying
// the source position of the offending token or clause.
func Compile(src string, cat Catalog) (*Plan, error) {
	if cat == nil {
		return nil, fmt.Errorf("mpsm: Compile requires a catalog")
	}
	c, err := query.Compile(src, func(name string) (*relation.Relation, bool) {
		return cat.Relation(name)
	})
	if err != nil {
		return nil, err
	}
	return lowerCompiled(c)
}

// Query compiles and runs a query in one call; see Compile for the language
// and Engine.RunPlan for execution semantics.
func (e *Engine) Query(ctx context.Context, src string, cat Catalog, opts ...Option) (*PlanResult, error) {
	p, err := Compile(src, cat)
	if err != nil {
		return nil, err
	}
	return e.RunPlan(ctx, p, opts...)
}

// Query compiles and runs a query through the serving layer — admission
// control, fair-share scheduling, and the plan cache keyed by the canonical
// query text, so differently spelled but equivalent queries share one cached
// physical plan. See Compile for the language.
func (s *Service) Query(ctx context.Context, src string, cat Catalog, opts ...QueryOption) (*PlanResult, error) {
	p, err := Compile(src, cat)
	if err != nil {
		return nil, err
	}
	return s.RunPlan(ctx, p, opts...)
}

// lowerCompiled lowers the compiler's logical operator list onto the public
// plan builder, whose node semantics (build/probe projection sides,
// key-as-value maps, aggregation fused through Project) the IR mirrors one-to-one.
func lowerCompiled(c *query.Compiled) (*Plan, error) {
	p := NewPlan()
	nodes := make([]PlanNode, len(c.Ops))
	for i, op := range c.Ops {
		switch op.Kind {
		case query.OpScan:
			pred := cmpPredicate(op.Cmps)
			switch {
			case op.Range != nil && pred != nil:
				nodes[i] = p.ScanRange(op.Rel, op.Range.Low, op.Range.High, pred)
			case op.Range != nil:
				nodes[i] = p.ScanRange(op.Rel, op.Range.Low, op.Range.High)
			case pred != nil:
				nodes[i] = p.Scan(op.Rel, pred)
			default:
				nodes[i] = p.Scan(op.Rel)
			}
		case query.OpJoin:
			if op.Band > 0 {
				nodes[i] = p.Join(nodes[op.Left], nodes[op.Right], WithBandWidth(op.Band))
			} else {
				nodes[i] = p.Join(nodes[op.Left], nodes[op.Right])
			}
		case query.OpProject:
			nodes[i] = p.project(nodes[op.Input], nil, pairValue(op.ProbeSide, op.KeyValue))
		case query.OpMap:
			nodes[i] = p.Map(nodes[op.Input], keyAsPayload)
		case query.OpAggregate:
			nodes[i] = p.GroupAggregate(nodes[op.Input], aggOf(op.Agg))
		default:
			return nil, fmt.Errorf("mpsm: compiled query has unknown op kind %v", op.Kind)
		}
	}
	if p.err != nil {
		return nil, p.err
	}
	p.info = &QueryInfo{Text: c.Text, Head: c.HeadName, Columns: c.Columns}
	return p, nil
}

// cmpPredicate closes a scan's residual comparisons into one predicate; nil
// when there are none.
func cmpPredicate(cmps []query.Cmp) func(Tuple) bool {
	if len(cmps) == 0 {
		return nil
	}
	cs := append([]query.Cmp(nil), cmps...)
	return func(t Tuple) bool {
		for _, c := range cs {
			v := t.Payload
			if c.OnKey {
				v = t.Key
			}
			if !c.Op.Eval(v, c.Const) {
				return false
			}
		}
		return true
	}
}

// keyAsPayload is the Map of compiled queries that aggregate the key itself.
func keyAsPayload(t Tuple) Tuple { return Tuple{Key: t.Key, Payload: t.Key} }

// pairValue names the projection of an OpProject: which side's payload or key
// becomes the output value (r is the build-side tuple, s the probe-side one;
// the output key is always the build key, the join's output key). The
// projections go into the plan by name so the group-by kernel can fold whole
// match ranges over them. Explicit projections pin the optimizer's
// build/probe choice for the projected join, so the addressed side stays the
// addressed side under auto-planning.
func pairValue(probeSide, keyValue bool) sink.Value {
	switch {
	case keyValue && probeSide:
		return sink.ValueProbeKey
	case keyValue:
		return sink.ValueBuildKey
	case probeSide:
		return sink.ValueProbePayload
	default:
		return sink.ValueBuildPayload
	}
}

// aggOf maps the query aggregate onto the sink aggregate.
func aggOf(f query.AggFunc) Agg {
	switch f {
	case query.AggSum:
		return AggSum
	case query.AggMin:
		return AggMin
	case query.AggMax:
		return AggMax
	default:
		return AggCount
	}
}
