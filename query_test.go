package mpsm

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/query"
	"repro/internal/relation"
)

// queryCatalog builds the three-relation catalog the query tests share: r is
// the dimension, s and t are fact tables over r's key domain.
func queryCatalog() MapCatalog {
	r := GenerateUniform("r", 1<<12, 601)
	return MapCatalog{
		"r": r,
		"s": GenerateForeignKey("s", r, 1<<13, 602),
		"t": GenerateForeignKey("t", r, 1<<13, 603),
	}
}

// TestQueryEndToEndService: the same acceptance query through the serving
// layer, with auto-planning, exercising admission, fair share and the
// text-keyed plan cache.
func TestQueryEndToEndService(t *testing.T) {
	ctx := context.Background()
	cat := queryCatalog()
	const src = acceptanceQuery

	engine := New(WithWorkers(2), WithAutoPlan(true))
	svc := NewService(engine)
	defer svc.Close()

	want, err := engine.Query(ctx, src, cat)
	if err != nil {
		t.Fatalf("engine query: %v", err)
	}
	got, err := svc.Query(ctx, src, cat)
	if err != nil {
		t.Fatalf("service query: %v", err)
	}
	if !relation.SameMultiset(got.Output.Tuples, want.Output.Tuples) {
		t.Errorf("service query diverges from engine query (%d vs %d tuples)",
			got.Output.Len(), want.Output.Len())
	}

	// Explain renders the compiled plan, filters included.
	p, err := Compile(src, cat)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	ex, err := engine.Explain(p)
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	rendered := ex.String()
	for _, want := range []string{"Scan r", "Scan s", "Scan t", "Join", "GroupAggregate", "pred"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("Explain output missing %q:\n%s", want, rendered)
		}
	}
}

// TestQueryBandEndToEnd: a band query matches the hand-built band-join plan.
func TestQueryBandEndToEnd(t *testing.T) {
	ctx := context.Background()
	cat := queryCatalog()
	engine := New(WithWorkers(2))

	hand := NewPlan()
	j := hand.Join(hand.Scan(cat["r"]), hand.Scan(cat["s"]), WithBandWidth(10))
	hand.Project(j, func(r, s Tuple) Tuple { return Tuple{Key: r.Key, Payload: s.Payload} })
	want, err := engine.RunPlan(ctx, hand)
	if err != nil {
		t.Fatalf("hand-built band plan: %v", err)
	}

	got, err := engine.Query(ctx, "ans(X, V) :- r(X, _), s(Y, V), |X - Y| <= 10", cat)
	if err != nil {
		t.Fatalf("band query: %v", err)
	}
	if !relation.SameMultiset(got.Output.Tuples, want.Output.Tuples) {
		t.Errorf("band query diverges from the hand-built plan (%d vs %d tuples)",
			got.Output.Len(), want.Output.Len())
	}
}

// TestQueryKeyRangeLowering: fully bounded key comparisons execute as
// branch-free key-range scans and produce exactly the predicate-filtered
// result.
func TestQueryKeyRangeLowering(t *testing.T) {
	ctx := context.Background()
	cat := queryCatalog()
	engine := New(WithWorkers(2))

	p, err := Compile("ans(K, V) :- r(K, V), K >= 100, K < 900, K != 500", cat)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := engine.Explain(p)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex.String(), "key∈[100,900)") {
		t.Errorf("Explain does not show the folded key range:\n%s", ex)
	}

	got, err := engine.RunPlan(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	var want []Tuple
	for _, tu := range cat["r"].Tuples {
		if tu.Key >= 100 && tu.Key < 900 && tu.Key != 500 {
			want = append(want, tu)
		}
	}
	if !relation.SameMultiset(got.Output.Tuples, want) {
		t.Errorf("range query returned %d tuples, want %d", got.Output.Len(), len(want))
	}
}

// TestServiceQueryCacheByText: equivalent spellings of one query share a
// single plan-cache entry keyed by the canonical text.
func TestServiceQueryCacheByText(t *testing.T) {
	ctx := context.Background()
	cat := queryCatalog()
	engine := New(WithWorkers(2), WithAutoPlan(true))
	svc := NewService(engine)
	defer svc.Close()

	spellings := []string{
		"ans(K, V) :- r(K, _), s(K, V), K >= 10",
		"ans(K,V):-r(K,_),s(K,V),10<=K.",
		"% same query, spelled differently\nans(K, V) :- r(K, _), s(K, V), K >= 10.",
	}
	for i, src := range spellings {
		if _, err := svc.Query(ctx, src, cat); err != nil {
			t.Fatalf("spelling %d: %v", i, err)
		}
	}
	stats := svc.Stats().PlanCache
	if stats.Misses != 1 || stats.Hits != 2 {
		t.Errorf("plan cache hits=%d misses=%d, want 2 hits / 1 miss (text-keyed reuse)",
			stats.Hits, stats.Misses)
	}
}

// TestQueryErrorsArePositioned: compilation failures surface as *QueryError
// with annotatable positions through the public API.
func TestQueryErrorsArePositioned(t *testing.T) {
	cat := queryCatalog()
	_, err := Compile("ans(K, V) :- r(K, V), nope(K, V)", cat)
	if err == nil {
		t.Fatal("expected an error")
	}
	qe, ok := err.(*QueryError)
	if !ok {
		t.Fatalf("error is %T, want *QueryError: %v", err, err)
	}
	if qe.Pos.Col != 23 {
		t.Errorf("error at column %d, want 23: %v", qe.Pos.Col, err)
	}
	if ann := qe.Annotate(); !strings.Contains(ann, "^") {
		t.Errorf("Annotate lacks a caret:\n%s", ann)
	}

	// An unbound aggregate argument over three patterns points at the
	// argument.
	_, err = Compile("ans(K, S) :- r(K, X), s(K, Y), t(K, Z), agg sum(A)", cat)
	if qe, ok := err.(*QueryError); !ok || qe.Pos.Line != 1 || qe.Pos.Col != 49 ||
		!strings.Contains(qe.Msg, "sum references unbound variable A") {
		t.Errorf("unbound aggregate over three patterns: %v, want 1:49: sum references unbound variable A", err)
	}
}

// --- property test: random queries vs a brute-force reference evaluator ---

// genQuery builds a random well-formed query over catalog relations
// r, s, t, returning its text.
func genQuery(rng *rand.Rand) string {
	names := []string{"r", "s", "t"}
	n := 1 + rng.Intn(3)
	band := n == 2 && rng.Intn(4) == 0

	var body []string
	payloadVars := make([]string, n)
	for i := 0; i < n; i++ {
		key := "K"
		if band {
			key = fmt.Sprintf("K%d", i)
		}
		var payload string
		switch rng.Intn(4) {
		case 0:
			payload = "_"
		default:
			payload = fmt.Sprintf("V%d", i)
			payloadVars[i] = payload
		}
		body = append(body, fmt.Sprintf("%s(%s, %s)", names[i], key, payload))
	}
	if band {
		body = append(body, fmt.Sprintf("|K0 - K1| <= %d", rng.Intn(8)))
	}

	headKey := "K"
	if band {
		headKey = fmt.Sprintf("K%d", rng.Intn(2))
	}

	// Key-range comparisons (equi-joins only; band key bounds are legal too
	// but keep the generator simple).
	if !band && rng.Intn(2) == 0 {
		lo := rng.Intn(1000)
		body = append(body, fmt.Sprintf("K >= %d", lo))
		if rng.Intn(2) == 0 {
			body = append(body, fmt.Sprintf("K < %d", lo+rng.Intn(2000)))
		}
		if rng.Intn(3) == 0 {
			body = append(body, fmt.Sprintf("K != %d", lo+rng.Intn(100)))
		}
	}
	// A payload comparison on one bound payload variable.
	if rng.Intn(2) == 0 {
		if v := payloadVars[rng.Intn(n)]; v != "" {
			ops := []string{"<", "<=", ">", ">=", "!="}
			body = append(body, fmt.Sprintf("%s %s %d", v, ops[rng.Intn(len(ops))], rng.Intn(5000)))
		}
	}

	// Head value: a bound payload, the key, or an aggregate.
	var bound []string
	for _, v := range payloadVars {
		if v != "" {
			bound = append(bound, v)
		}
	}
	headVal := headKey
	if rng.Intn(3) != 0 && len(bound) > 0 {
		headVal = bound[rng.Intn(len(bound))]
	}
	if !band && rng.Intn(3) == 0 {
		fns := []string{"sum", "min", "max"}
		if len(bound) > 0 && rng.Intn(3) != 0 {
			fn := fns[rng.Intn(len(fns))]
			body = append(body, fmt.Sprintf("agg %s(%s)", fn, bound[rng.Intn(len(bound))]))
		} else {
			body = append(body, "agg count(*)")
		}
		headVal = "Agg"
	}
	return fmt.Sprintf("ans(%s, %s) :- %s", headKey, headVal, strings.Join(body, ", "))
}

// bruteForce evaluates a query by nested loops over the catalog — no
// sorting, partitioning, planning or vectorization — as an oracle
// independent of the compiler's lowering and the engine's execution. It
// interprets the parsed AST directly.
func bruteForce(t *testing.T, src string, cat MapCatalog) []Tuple {
	t.Helper()
	q, err := query.Parse(src)
	if err != nil {
		t.Fatalf("reference parse of %q: %v", src, err)
	}

	type refAtom struct {
		rel     *Relation
		keyVar  string
		payload query.Term
	}
	var atoms []refAtom
	var cmps []*query.Compare
	var band *query.Band
	var agg *query.Agg
	for _, cl := range q.Body {
		switch cl := cl.(type) {
		case *query.Atom:
			rel, ok := cat[cl.Name]
			if !ok {
				t.Fatalf("reference: unknown relation %q", cl.Name)
			}
			atoms = append(atoms, refAtom{rel: rel, keyVar: cl.Args[0].Name, payload: cl.Args[1]})
		case *query.Compare:
			cmps = append(cmps, cl)
		case *query.Band:
			band = cl
		case *query.Agg:
			agg = cl
		}
	}

	// evalCmp applies one comparison given a variable's value.
	evalCmp := func(c *query.Compare, name string, v uint64) (applies, ok bool) {
		l, r := c.Left, c.Right
		op := c.Op
		if l.Kind == query.TermNumber && r.Kind == query.TermVar {
			l, r = r, l
			op = flipOp(op)
		}
		if l.Kind != query.TermVar || l.Name != name {
			return false, true
		}
		return true, op.Eval(v, r.Num)
	}

	// Filter each atom's rows by every comparison and payload constant
	// touching its variables.
	filtered := make([][]Tuple, len(atoms))
	for i, a := range atoms {
		for _, tu := range a.rel.Tuples {
			keep := true
			if a.payload.Kind == query.TermNumber && tu.Payload != a.payload.Num {
				keep = false
			}
			for _, c := range cmps {
				if applies, ok := evalCmp(c, a.keyVar, tu.Key); applies && !ok {
					keep = false
				}
				if a.payload.Kind == query.TermVar {
					if applies, ok := evalCmp(c, a.payload.Name, tu.Payload); applies && !ok {
						keep = false
					}
				}
			}
			if keep {
				filtered[i] = append(filtered[i], tu)
			}
		}
	}

	// valueOf resolves a variable against one joined row (keys and payloads
	// per atom index).
	valueOf := func(name string, row []Tuple) uint64 {
		for i, a := range atoms {
			if a.keyVar == name {
				return row[i].Key
			}
			if a.payload.Kind == query.TermVar && a.payload.Name == name {
				return row[i].Payload
			}
		}
		t.Fatalf("reference: unresolvable variable %s in %q", name, src)
		return 0
	}

	// Join by nested loops into rows of one tuple per atom; an equi-join
	// looks its later atoms up by key.
	byKey := make([]map[uint64][]Tuple, len(atoms))
	for i, tuples := range filtered {
		byKey[i] = map[uint64][]Tuple{}
		for _, tu := range tuples {
			byKey[i][tu.Key] = append(byKey[i][tu.Key], tu)
		}
	}
	var rows [][]Tuple
	var joinFrom func(i int, acc []Tuple)
	joinFrom = func(i int, acc []Tuple) {
		if i == len(atoms) {
			rows = append(rows, append([]Tuple(nil), acc...))
			return
		}
		candidates := filtered[i]
		if band == nil && i > 0 {
			candidates = byKey[i][acc[0].Key]
		}
		for _, tu := range candidates {
			if band != nil && i == 1 {
				d := tu.Key - acc[0].Key
				if acc[0].Key > tu.Key {
					d = acc[0].Key - tu.Key
				}
				if d > band.Width.Num {
					continue
				}
			}
			joinFrom(i+1, append(acc, tu))
		}
	}
	joinFrom(0, nil)

	headKey, headVal := q.Head.Args[0], q.Head.Args[1]
	var out []Tuple
	if agg == nil {
		for _, row := range rows {
			out = append(out, Tuple{Key: valueOf(headKey.Name, row), Payload: valueOf(headVal.Name, row)})
		}
		return out
	}
	groups := map[uint64]uint64{}
	for _, row := range rows {
		k := valueOf(headKey.Name, row)
		var v uint64
		if agg.Func != AggCount {
			v = valueOf(agg.Arg.Name, row)
		}
		cur, seen := groups[k]
		switch agg.Func {
		case AggCount:
			groups[k] = cur + 1
		case AggSum:
			groups[k] = cur + v
		case AggMin:
			if !seen || v < cur {
				groups[k] = v
			}
		case AggMax:
			if !seen || v > cur {
				groups[k] = v
			}
		}
	}
	for k, v := range groups {
		out = append(out, Tuple{Key: k, Payload: v})
	}
	return out
}

// flipOp mirrors a comparison operator for operand swap.
func flipOp(op query.CmpOp) query.CmpOp {
	switch op {
	case query.OpLT:
		return query.OpGT
	case query.OpLE:
		return query.OpGE
	case query.OpGT:
		return query.OpLT
	case query.OpGE:
		return query.OpLE
	default:
		return op
	}
}

// TestQueryPropertyCompiledMatchesReference: for randomly generated queries,
// the compiled plan's result under every algorithm equals a brute-force
// evaluation, and the canonical pretty-printed text re-parses and compiles to
// the same result.
func TestQueryPropertyCompiledMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("property test under -short")
	}
	ctx := context.Background()
	// Small relations with a tight key domain so joins and bands hit often.
	r := GenerateSkewedWithDomain("r", 256, 512, SkewLow80, 701)
	cat := MapCatalog{
		"r": r,
		"s": GenerateForeignKey("s", r, 512, 702),
		"t": GenerateForeignKey("t", r, 384, 703),
	}
	rng := rand.New(rand.NewSource(704))
	engines := make(map[Algorithm]*Engine, len(allAlgorithms))
	for _, alg := range allAlgorithms {
		engines[alg] = New(WithWorkers(2), WithAlgorithm(alg))
	}

	const trials = 40
	for trial := 0; trial < trials; trial++ {
		src := genQuery(rng)
		p, err := Compile(src, cat)
		if err != nil {
			t.Fatalf("trial %d: generated query %q fails to compile: %v", trial, src, err)
		}
		want := bruteForce(t, src, cat)

		// The canonical text round-trips through the parser and compiler.
		canonical := p.QueryInfo().Text
		p2, err := Compile(canonical, cat)
		if err != nil {
			t.Fatalf("trial %d: canonical %q fails to compile: %v", trial, canonical, err)
		}
		if p2.QueryInfo().Text != canonical {
			t.Fatalf("trial %d: canonical text unstable: %q -> %q", trial, canonical, p2.QueryInfo().Text)
		}

		isBand := strings.Contains(src, "|")
		for alg, engine := range engines {
			if isBand && alg != PMPSM && alg != BMPSM {
				continue // band joins run on B-MPSM and P-MPSM only
			}
			got, err := engine.RunPlan(ctx, p)
			if err != nil {
				t.Fatalf("trial %d (%v): %q: %v", trial, alg, src, err)
			}
			if !relation.SameMultiset(got.Output.Tuples, want) {
				t.Fatalf("trial %d (%v): %q returned %d tuples, reference has %d",
					trial, alg, src, got.Output.Len(), len(want))
			}
		}
		// One algorithm suffices for the re-parsed plan (the others share it).
		got2, err := engines[PMPSM].RunPlan(ctx, p2)
		if err != nil {
			t.Fatalf("trial %d: canonical %q: %v", trial, canonical, err)
		}
		if !relation.SameMultiset(got2.Output.Tuples, want) {
			t.Fatalf("trial %d: canonical %q diverges from reference", trial, canonical)
		}
	}
}
