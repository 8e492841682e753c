package query

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/keys"
	"repro/internal/relation"
	"repro/internal/sink"
)

// testResolver builds a resolver over raw relations r, s, t plus one
// exact-schema relation (single int64 column) and one tie-break relation
// (bytes column, whose prefixes need full-key verification).
func testResolver(t testing.TB) Resolver {
	t.Helper()
	mk := func(name string, n int) *relation.Relation {
		rel := relation.NewWithCapacity(name, n)
		for i := 0; i < n; i++ {
			rel.Tuples = append(rel.Tuples, relation.Tuple{Key: uint64(i % 16), Payload: uint64(i)})
		}
		return rel
	}
	exactSchema := keys.MustNew(keys.Column{Name: "id", Type: keys.Int64})
	exact := exactSchema.MustEncode("exact", [][]keys.Value{
		{keys.Int64Value(1)}, {keys.Int64Value(2)},
	}, []uint64{10, 20})
	tieSchema := keys.MustNew(keys.Column{Name: "name", Type: keys.Bytes})
	tie := tieSchema.MustEncode("tie", [][]keys.Value{
		{keys.StringValue("abcdefghijkl")}, {keys.StringValue("abcdefghijzz")},
	}, []uint64{1, 2})
	rels := map[string]*relation.Relation{
		"r": mk("r", 64), "s": mk("s", 64), "t": mk("t", 64),
		"exact": exact, "tie": tie,
	}
	return func(name string) (*relation.Relation, bool) {
		rel, ok := rels[name]
		return rel, ok
	}
}

// nodeKinds summarizes a compiled plan for shape assertions.
func nodeKinds(c *Compiled) []exec.NodeKind {
	kinds := make([]exec.NodeKind, len(c.Plan.Nodes))
	for i, n := range c.Plan.Nodes {
		kinds[i] = n.Kind
	}
	return kinds
}

// root returns the last node of a compiled plan.
func root(c *Compiled) exec.PlanNode { return c.Plan.Nodes[len(c.Plan.Nodes)-1] }

// TestCompileShapes: representative queries compile to the expected operator
// shapes, which the executor's plan validation accepts.
func TestCompileShapes(t *testing.T) {
	resolve := testResolver(t)
	const (
		scan    = exec.NodeScan
		join    = exec.NodeJoin
		project = exec.NodeProject
		mapKey  = exec.NodeMap
		agg     = exec.NodeGroupAggregate
	)
	cases := []struct {
		src  string
		want []exec.NodeKind
	}{
		// Single pattern: identity over the scan.
		{"ans(K, V) :- r(K, V)", []exec.NodeKind{scan}},
		// Key as the value: Map above the scan.
		{"ans(K, K) :- r(K, _)", []exec.NodeKind{scan, mapKey}},
		// Two-way join, probe payload projected.
		{"ans(K, V) :- r(K, _), s(K, V)", []exec.NodeKind{scan, scan, join, project}},
		// Three-way join with aggregation: project then aggregate.
		{"ans(K, Sum) :- r(K, _), s(K, _), t(K, Z), agg sum(Z)",
			[]exec.NodeKind{scan, scan, scan, join, join, project, agg}},
		// Count aggregates the pair stream directly, no projection.
		{"ans(K, N) :- r(K, _), s(K, _), agg count(*)",
			[]exec.NodeKind{scan, scan, join, agg}},
		// Band join.
		{"ans(X, V) :- r(X, _), s(Y, V), |X - Y| <= 5",
			[]exec.NodeKind{scan, scan, join, project}},
		// Single pattern with aggregate.
		{"ans(K, M) :- r(K, V), agg max(V)", []exec.NodeKind{scan, agg}},
	}
	for _, tc := range cases {
		c, err := Compile(tc.src, resolve)
		if err != nil {
			t.Errorf("Compile(%q): %v", tc.src, err)
			continue
		}
		if got := nodeKinds(c); !slices.Equal(got, tc.want) {
			t.Errorf("Compile(%q) nodes = %v, want %v", tc.src, got, tc.want)
		}
		if err := c.Plan.Validate(); err != nil {
			t.Errorf("Compile(%q): plan fails validation: %v", tc.src, err)
		}
	}
}

// TestCompileValueColumns: the head's value column and the aggregated
// variable name the projection the group-by kernel folds over, and the
// aggregate is the clause's function.
func TestCompileValueColumns(t *testing.T) {
	resolve := testResolver(t)
	cases := []struct {
		src     string
		project sink.Value // of the Project node; ValueOpaque: none
		agg     sink.Agg   // of the root; -1: not an aggregate
	}{
		{"ans(K, V) :- r(K, V), s(K, _)", sink.ValueBuildPayload, -1},
		{"ans(K, V) :- r(K, _), s(K, V)", sink.ValueProbePayload, -1},
		{"ans(K, K) :- r(K, _), s(K, _)", sink.ValueBuildKey, -1},
		{"ans(X, Y) :- r(X, _), s(Y, _), |X - Y| <= 5", sink.ValueProbeKey, -1},
		{"ans(K, S) :- r(K, X), s(K, _), agg min(X)", sink.ValueBuildPayload, sink.AggMin},
		{"ans(K, S) :- r(K, _), s(K, _), agg sum(K)", sink.ValueBuildKey, sink.AggSum},
		{"ans(K, N) :- r(K, X), s(K, _), agg count(X)", sink.ValueOpaque, sink.AggCount},
		{"ans(K, M) :- r(K, V), agg max(V)", sink.ValueOpaque, sink.AggMax},
	}
	for _, tc := range cases {
		c, err := Compile(tc.src, resolve)
		if err != nil {
			t.Errorf("Compile(%q): %v", tc.src, err)
			continue
		}
		project := sink.ValueOpaque
		for _, n := range c.Plan.Nodes {
			if n.Kind == exec.NodeProject {
				project = n.ProjectValue
			}
		}
		if project != tc.project {
			t.Errorf("Compile(%q) projects %v, want %v", tc.src, project, tc.project)
		}
		if r := root(c); tc.agg >= 0 && (r.Kind != exec.NodeGroupAggregate || r.Agg != tc.agg) {
			t.Errorf("Compile(%q) root = %v %v, want GroupAggregate %v", tc.src, r.Kind, r.Agg, tc.agg)
		}
	}
}

// TestCompileReordersProjectedPattern: in a 3-way chain the pattern that
// supplies the projected payload is joined last so it stays addressable.
func TestCompileReordersProjectedPattern(t *testing.T) {
	c, err := Compile("ans(K, X) :- r(K, X), s(K, _), t(K, _)", testResolver(t))
	if err != nil {
		t.Fatal(err)
	}
	n := c.Plan.Nodes
	if n[2].Rel.Name != "r" {
		t.Errorf("pattern r (projected payload) should be scanned last, got scan order %s, %s, %s",
			n[0].Rel.Name, n[1].Rel.Name, n[2].Rel.Name)
	}
	if last := root(c); last.Kind != exec.NodeProject || last.ProjectValue != sink.ValueProbePayload {
		t.Errorf("root should project the probe payload, got %v %v", last.Kind, last.ProjectValue)
	}
}

// TestCompileBandOrientation: the head key picks the build side of a band
// join, and the band width is the join's only setting.
func TestCompileBandOrientation(t *testing.T) {
	c, err := Compile("ans(Y, V) :- r(X, V), s(Y, _), |X - Y| <= 5", testResolver(t))
	if err != nil {
		t.Fatal(err)
	}
	n := c.Plan.Nodes
	if n[0].Rel.Name != "s" {
		t.Errorf("head key Y should make s the build side, got scans %s, %s", n[0].Rel.Name, n[1].Rel.Name)
	}
	if want := (core.Options{Band: 5}); n[2].Kind != exec.NodeJoin || !reflect.DeepEqual(n[2].JoinOptions, want) {
		t.Errorf("join options = %+v, want band width 5 and nothing else", n[2].JoinOptions)
	}
	// V is r's payload; r is now the probe side.
	if last := root(c); last.Kind != exec.NodeProject || last.ProjectValue != sink.ValueProbePayload {
		t.Errorf("projection should address the probe payload, got %v %v", last.Kind, last.ProjectValue)
	}
}

// residuals runs the compiler's analysis of src and returns each pattern's
// residual comparisons, indexed like the compiled plan's scans.
func residuals(t *testing.T, src string, resolve Resolver) map[int][]Cmp {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	c := &compiler{q: q, resolve: resolve, vars: map[string]*varBinding{}}
	_, residual, err := c.analyze()
	if err != nil {
		t.Fatal(err)
	}
	return residual
}

// checkPred asserts that a scan's predicate keeps and rejects the given
// tuples.
func checkPred(t *testing.T, src string, n exec.PlanNode, keep, reject []relation.Tuple) {
	t.Helper()
	if n.Pred == nil {
		t.Errorf("%s: scan %s has no predicate", src, n.Rel.Name)
		return
	}
	for _, tu := range keep {
		if !n.Pred(tu) {
			t.Errorf("%s: scan %s rejects %+v", src, n.Rel.Name, tu)
		}
	}
	for _, tu := range reject {
		if n.Pred(tu) {
			t.Errorf("%s: scan %s keeps %+v", src, n.Rel.Name, tu)
		}
	}
}

// TestCompileKeyRanges: fully bounded key comparisons fold into one
// branch-free range per variable, applied to every pattern binding it;
// leftovers stay residual comparisons, closed into the scan's predicate.
func TestCompileKeyRanges(t *testing.T) {
	resolve := testResolver(t)
	type tu = relation.Tuple

	src := "ans(K, V) :- r(K, _), s(K, V), K >= 10, K < 20, K != 15"
	c, err := Compile(src, resolve)
	if err != nil {
		t.Fatal(err)
	}
	res := residuals(t, src, resolve)
	for i := 0; i < 2; i++ {
		n := c.Plan.Nodes[i]
		if n.Range == nil || n.Range.Low != 10 || n.Range.High != 20 {
			t.Errorf("scan %s range = %+v, want [10,20)", n.Rel.Name, n.Range)
		}
		if cmps := res[i]; len(cmps) != 1 || cmps[0].Op != OpNE || cmps[0].Const != 15 || !cmps[0].OnKey {
			t.Errorf("scan %s residuals = %+v, want key != 15", n.Rel.Name, cmps)
		}
		checkPred(t, src, n, []tu{{Key: 14, Payload: 15}, {Key: 16, Payload: 15}}, []tu{{Key: 15, Payload: 14}})
	}

	// Equality is the one-key range.
	src = "ans(K, V) :- r(K, V), K = 7"
	if c, err = Compile(src, resolve); err != nil {
		t.Fatal(err)
	}
	if n := c.Plan.Nodes[0]; n.Range == nil || n.Range.Low != 7 || n.Range.High != 8 || n.Pred != nil {
		t.Errorf("K = 7 range = %+v (predicate %v), want [7,8) alone", n.Range, n.Pred != nil)
	}

	// Half-bounded comparisons stay opaque (no range).
	src = "ans(K, V) :- r(K, V), K > 5"
	if c, err = Compile(src, resolve); err != nil {
		t.Fatal(err)
	}
	n := c.Plan.Nodes[0]
	if cmps := residuals(t, src, resolve)[0]; n.Range != nil || len(cmps) != 1 || !cmps[0].OnKey {
		t.Errorf("K > 5 should be residual, got range=%+v cmps=%+v", n.Range, cmps)
	}
	checkPred(t, src, n, []tu{{Key: 6, Payload: 5}}, []tu{{Key: 5, Payload: 6}})

	// MaxUint64 equality is unrepresentable as a half-open range.
	src = "ans(K, V) :- r(K, V), K = 18446744073709551615"
	if c, err = Compile(src, resolve); err != nil {
		t.Fatal(err)
	}
	n = c.Plan.Nodes[0]
	if cmps := residuals(t, src, resolve)[0]; n.Range != nil || len(cmps) != 1 || cmps[0].Op != OpEQ {
		t.Errorf("K = MaxUint64 should be residual, got range=%+v cmps=%+v", n.Range, cmps)
	}
	checkPred(t, src, n, []tu{{Key: math.MaxUint64}}, []tu{{Key: math.MaxUint64 - 1, Payload: math.MaxUint64}})

	// Contradictory bounds produce an empty range, not an error.
	if c, err = Compile("ans(K, V) :- r(K, V), K >= 20, K < 10", resolve); err != nil {
		t.Fatal(err)
	}
	if n := c.Plan.Nodes[0]; n.Range == nil || n.Range.Low != n.Range.High {
		t.Errorf("contradictory bounds should yield an empty range, got %+v", n.Range)
	}

	// Payload comparisons and payload constants are per-scan residuals.
	src = "ans(K, V) :- r(K, V), s(K, 3), V <= 9"
	if c, err = Compile(src, resolve); err != nil {
		t.Fatal(err)
	}
	res = residuals(t, src, resolve)
	if cmps := res[0]; len(cmps) != 1 || cmps[0].OnKey || cmps[0].Op != OpLE || cmps[0].Const != 9 {
		t.Errorf("r residuals = %+v, want payload <= 9", cmps)
	}
	if cmps := res[1]; len(cmps) != 1 || cmps[0].OnKey || cmps[0].Op != OpEQ || cmps[0].Const != 3 {
		t.Errorf("s residuals = %+v, want payload = 3", cmps)
	}
	checkPred(t, src, c.Plan.Nodes[0], []tu{{Key: 100, Payload: 9}}, []tu{{Key: 1, Payload: 10}})
	checkPred(t, src, c.Plan.Nodes[1], []tu{{Key: 7, Payload: 3}}, []tu{{Key: 3, Payload: 4}})
}

// TestCompileText: the compiled Text is the canonical form, shared by
// differently spelled but identical queries.
func TestCompileText(t *testing.T) {
	resolve := testResolver(t)
	a, err := Compile("ans(K,V):-r(K,_),s(K,V),K==5", resolve)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile("ans(K, V) :- r(K, _), s(K, V), K = 5.", resolve)
	if err != nil {
		t.Fatal(err)
	}
	if a.Text != b.Text {
		t.Errorf("equivalent spellings compile to different texts: %q vs %q", a.Text, b.Text)
	}
	if a.HeadName != "ans" || a.Columns != [2]string{"K", "V"} {
		t.Errorf("head = %q %v", a.HeadName, a.Columns)
	}
}

// TestCompileErrors: semantic errors are positioned *Error values.
func TestCompileErrors(t *testing.T) {
	resolve := testResolver(t)
	cases := []struct {
		src     string
		wantMsg string
	}{
		{"ans(K, V) :- nope(K, V)", `unknown relation "nope"`},
		{"ans(K, V) :- r(K, V, W)", "takes (key, payload)"},
		{"ans(K, V) :- r(5, V)", "must be a variable"},
		{"ans(K, V) :- r(_, V)", "not a wildcard"},
		{"ans(K, V) :- K > 3", "at least one pattern"},
		{"ans(K, V, W) :- r(K, V)", "exactly two arguments"},
		{"ans(K, 5) :- r(K, V)", "head arguments must be variables"},
		{"ans(K, V) :- r(K, V), s(J, V2)", "must share one key variable"},
		{"ans(K, V) :- r(K, V), s(K, V)", "joins match keys, not payloads"},
		{"ans(K, K2) :- r(K, K2), s(K2, _)", "cannot name both a key and a payload"},
		{"ans(K, V) :- r(K, V), X > 3", "unbound variable X"},
		{"ans(K, V) :- r(K, V), X > Y", "between two variables"},
		{"ans(K, V) :- r(K, V), 3 > 4", "one variable and one constant"},
		{"ans(K, W) :- r(K, V)", "head variable W is not bound"},
		{"ans(J, V) :- r(K, V)", "head key must be the join key variable"},
		{"ans(K, S) :- r(K, V), agg sum(V), agg sum(V)", "at most one aggregate"},
		{"ans(K, V) :- r(K, V), agg sum(V)", "head variable V is already bound"},
		{"ans(K, S) :- r(K, V), agg sum(W)", "unbound variable W"},
		// Three patterns or more: the aggregated variable is unbound before
		// it is placed last in the join chain.
		{"ans(K, S) :- r(K, X), s(K, Y), t(K, Z), agg sum(A)", "sum references unbound variable A"},
		{"ans(K, S) :- r(K, X), s(K, Y), t(K, Z), agg min(A)", "min references unbound variable A"},
		{"ans(K, S) :- r(K, X), s(K, Y), t(K, Z), agg max(A)", "max references unbound variable A"},
		{"ans(K, S) :- r(K, V), agg sum(*)", "only count takes *"},
		{"ans(K, S) :- r(K, V), agg sum(S), S > 10", "aggregate result"},
		{"ans(X, V) :- r(X, V), s(Y, _), t(Z, _), |X - Y| <= 5", "exactly two patterns"},
		{"ans(X, V) :- r(X, V), s(Y, _), |X - Y| <= 5, |X - Y| <= 9", "at most one band"},
		{"ans(X, V) :- r(X, V), s(Y, _), |X - X| <= 5", "distinct variables"},
		{"ans(X, V) :- r(X, V), s(Y, _), |X - Z| <= 5", "band endpoints must be the key variables"},
		{"ans(Z, V) :- r(X, V), s(Y, _), |X - Y| <= 5", "head key of a band query"},
		{"ans(K, V) :- r(K, V), s(K2, _), |K - K2| <= 5, exact(K, _)", "exactly two patterns"},
		{"ans(X, V) :- exact(X, V), s(Y, _), |X - Y| <= 5", "band predicates require raw integer keys"},
		{"ans(K, V) :- tie(K, V)", "outside a join"},
		{"ans(K, V) :- tie(K, _), r(K, _), s(K, V)", "single two-way join"},
		{"ans(K, S) :- tie(K, _), r(K, V), agg sum(V)", "aggregates over tie-break relation"},
		{"ans(K, V) :- tie(K, 5), r(K, V)", "internal row indices"},
		{"ans(K, V) :- tie(K, W), r(K, V), W > 3", "internal row indices"},
		{"ans(K, V) :- exact(K, V), K > 3", "schema-encoded key"},
		{"ans(K, V) :- exact(K, _), tie(K, V)", "different key schemas"},
	}
	for _, tc := range cases {
		_, err := Compile(tc.src, resolve)
		if err == nil {
			t.Errorf("Compile(%q): expected error containing %q", tc.src, tc.wantMsg)
			continue
		}
		qe, ok := err.(*Error)
		if !ok {
			t.Errorf("Compile(%q): error is %T, want *Error: %v", tc.src, err, err)
			continue
		}
		if !strings.Contains(qe.Msg, tc.wantMsg) {
			t.Errorf("Compile(%q) error %q, want substring %q", tc.src, qe.Msg, tc.wantMsg)
		}
		if qe.Pos.Line < 1 || qe.Pos.Col < 1 {
			t.Errorf("Compile(%q) error lacks a position: %+v", tc.src, qe.Pos)
		}
	}
}
