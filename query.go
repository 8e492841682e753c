package mpsm

import (
	"context"
	"fmt"

	"repro/internal/exec"
	"repro/internal/query"
	"repro/internal/relation"
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
// The compiler writes the executor's plan directly; a band clause becomes
// its join's WithBandWidth per-node option, and the engine and per-call
// options configure everything else about each join. The compiled Plan runs
// through Engine.RunPlan, Engine.Explain or Service.RunPlan like a hand-built
// one: it inherits auto-planning, EXPLAIN, fair-share scheduling and the plan
// cache (keyed by the canonical query text, exposed via Plan.QueryInfo).
// Errors are *QueryError values carrying the source position of the
// offending token or clause.
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
	p := &Plan{ep: *c.Plan, info: &QueryInfo{Text: c.Text, Head: c.HeadName, Columns: c.Columns}}
	for _, n := range p.ep.Nodes {
		if n.Kind != exec.NodeJoin {
			continue
		}
		var opts []Option
		if n.JoinOptions.Band > 0 {
			opts = []Option{WithBandWidth(n.JoinOptions.Band)}
		}
		p.joinOpts = append(p.joinOpts, opts)
	}
	return p, nil
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
