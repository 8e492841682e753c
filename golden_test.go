package mpsm

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenQueries is the EXPLAIN corpus: each query is compiled against the
// fixed catalog and its rendered plan compared to testdata/explain.golden,
// first as configured (two workers, exactly) and then — the queries with a
// join — auto-planned under a bound of two workers, where every join shows
// the worker count the planner chose and the speed-up that decided it. The
// catalog, the statistics sample and the cost constants are all fixed, so
// both renderings are deterministic.
var goldenQueries = []string{
	"ans(K, V) :- r(K, V)",
	"ans(K, K) :- r(K, _)",
	"ans(K, V) :- r(K, V), K >= 100, K < 900",
	"ans(K, V) :- r(K, V), K >= 100, K < 900, K != 500, V > 7",
	"ans(K, V) :- r(K, _), s(K, V)",
	"ans(K, X) :- r(K, X), s(K, _), t(K, _)",
	"ans(K, Sum) :- r(K, X), s(K, Y), t(K, Z), X > 10, agg sum(Z)",
	"ans(K, N) :- r(K, _), s(K, _), agg count(*)",
	"ans(X, V) :- r(X, _), s(Y, V), |X - Y| <= 10",
	"ans(K, M) :- r(K, V), agg max(V)",
}

// TestExplainGolden: the rendered EXPLAIN plan of every corpus query matches
// its golden file. Regenerate with `go test -run TestExplainGolden -update`.
func TestExplainGolden(t *testing.T) {
	cat := queryCatalog()
	engine := New(WithWorkers(2))

	var b strings.Builder
	for _, src := range goldenQueries {
		p, err := Compile(src, cat)
		if err != nil {
			t.Fatalf("Compile(%q): %v", src, err)
		}
		ex, err := engine.Explain(p)
		if err != nil {
			t.Fatalf("Explain(%q): %v", src, err)
		}
		fmt.Fprintf(&b, "=== %s\n%s\n\n", p.QueryInfo().Text, ex.String())
		if !strings.Contains(ex.String(), "Join") {
			continue
		}
		auto, err := engine.Explain(p, WithAutoPlan(true))
		if err != nil {
			t.Fatalf("Explain(%q) auto-planned: %v", src, err)
		}
		fmt.Fprintf(&b, "=== auto-planned: %s\n%s\n\n", p.QueryInfo().Text, auto.String())
	}
	got := b.String()

	path := filepath.Join("testdata", "explain.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file: %v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("EXPLAIN output diverges from %s (run with -update after intentional changes)\n--- got ---\n%s\n--- want ---\n%s",
			path, got, want)
	}
}
