package query

import (
	"strings"
	"testing"
)

// parseSeeds cover each clause form and the lexer's and parser's rejections.
var parseSeeds = []string{
	"",
	"ans(K, V) :- r(K, V).",
	"ans(K, Sum) :- r(K, X), s(K, Y), X > 10, agg sum(Y).",
	"ans(X, V) :- r(X, V), s(Y, _), |X - Y| <= 5.",
	"ans(K, N) :- r(K, _), agg count(*)",
	"ans(K, V) :- r(K, V), K >= 10, K < 20, K != 15",
	"% comment\nans(K,V) :- r(K,V)",
	"ans(K, V) :- r(K, 18446744073709551615)",
	"ans(K V) :- r(K, V)",
	"ans(K, V) :- r(K, V), K @ 5",
	"ans(K, V) :- r(K, V), |K - | <= 5",
	"ans(K, 99999999999999999999)",
	"ans(K, V) :-\n\tr(K, V),\n\ts(K, )",
}

// checkQueryError asserts that err is a *Error positioned inside src that
// annotates without panicking.
func checkQueryError(t *testing.T, src string, err error) {
	t.Helper()
	qe, ok := err.(*Error)
	if !ok {
		t.Fatalf("%q: error is %T, want *Error: %v", src, err, err)
	}
	if qe.Pos.Line < 1 || qe.Pos.Col < 1 {
		t.Fatalf("%q: error position not 1-based: %+v", src, qe.Pos)
	}
	if qe.Pos.Offset < 0 || qe.Pos.Offset > len(src) {
		t.Fatalf("%q: error offset %d out of range [0,%d]", src, qe.Pos.Offset, len(src))
	}
	_ = qe.Annotate()
}

// FuzzParse asserts the parser never panics, always reports positioned
// errors, and that accepted inputs have a canonical form that re-parses to
// itself.
func FuzzParse(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			checkQueryError(t, src, err)
			return
		}
		// Accepted input: the canonical form must re-parse to itself.
		text := q.String()
		if !strings.HasSuffix(text, ".") {
			t.Fatalf("Parse(%q): canonical form %q lacks trailing period", src, text)
		}
		q2, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q): canonical form %q fails to re-parse: %v", src, text, err)
		}
		if got := q2.String(); got != text {
			t.Fatalf("Parse(%q): canonical form unstable: %q -> %q", src, text, got)
		}
	})
}

// FuzzCompile asserts the compiler never panics: every input either fails
// with a positioned *Error or compiles to a plan the executor's validation
// accepts. Inputs compile against testResolver's relations r, s, t, exact
// and tie.
func FuzzCompile(f *testing.F) {
	seeds := append([]string{
		"ans(K, K) :- r(K, _)",
		"ans(K, V) :- r(K, V), K >= 100, K < 900, K != 500, V > 7",
		"ans(K, X) :- r(K, X), s(K, _), t(K, _)",
		"ans(K, Sum) :- r(K, X), s(K, Y), t(K, Z), X > 10, agg sum(Z)",
		"ans(K, S) :- r(K, X), s(K, Y), t(K, Z), agg sum(A)",
		"ans(K, N) :- r(K, _), s(K, _), agg count(*)",
		"ans(X, V) :- r(X, _), s(Y, V), |X - Y| <= 10",
		"ans(K, M) :- r(K, V), agg max(V)",
		"ans(K, V) :- exact(K, _), r(K, V)",
		"ans(K, V) :- tie(K, _), r(K, V)",
	}, parseSeeds...)
	for _, s := range seeds {
		f.Add(s)
	}
	resolve := testResolver(f)
	f.Fuzz(func(t *testing.T, src string) {
		c, err := Compile(src, resolve)
		if err != nil {
			checkQueryError(t, src, err)
			return
		}
		if err := c.Plan.Validate(); err != nil {
			t.Fatalf("Compile(%q): plan fails validation: %v", src, err)
		}
	})
}
