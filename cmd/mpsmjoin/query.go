package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	mpsm "repro"
)

// queryCatalog builds the relations a -query / -repl session can reference:
// the generated (or file-loaded) inputs as r and s, plus a third foreign-key
// relation t drawn from r for three-way joins.
func queryCatalog(r, s *mpsm.Relation, seed uint64) mpsm.MapCatalog {
	return mpsm.MapCatalog{
		"r": r,
		"s": s,
		"t": mpsm.GenerateForeignKey("t", r, r.Len(), seed+2),
	}
}

// runQuery compiles and executes one query, printing the result (or, with
// explainOnly, just the physical plan). Compilation errors print with a
// caret under the offending token and exit non-zero.
func runQuery(ctx context.Context, engine *mpsm.Engine, cat mpsm.MapCatalog, src string, jsonOut, explainPlan bool, opts []mpsm.Option) {
	p, err := mpsm.Compile(src, cat)
	if err != nil {
		printQueryError(err)
		os.Exit(1)
	}
	if explainPlan && !jsonOut {
		ex, err := engine.Explain(p, opts...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mpsmjoin:", err)
			os.Exit(1)
		}
		fmt.Printf("physical plan:\n%s\n\n", ex)
	}
	start := time.Now()
	res, err := engine.RunPlan(ctx, p, opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpsmjoin:", err)
		os.Exit(1)
	}
	if jsonOut {
		printQueryJSON(p, res, time.Since(start))
		return
	}
	printQueryResult(p, res, time.Since(start), 10)
}

// printQueryError renders a compilation error; *QueryError values carry a
// source position and render with the offending line and a caret.
func printQueryError(err error) {
	var qe *mpsm.QueryError
	if errors.As(err, &qe) {
		fmt.Fprintln(os.Stderr, "mpsmjoin: "+qe.Annotate())
		return
	}
	fmt.Fprintln(os.Stderr, "mpsmjoin:", err)
}

// printQueryResult renders the canonical query, a bounded sample of the
// output and the timing.
func printQueryResult(p *mpsm.Plan, res *mpsm.PlanResult, elapsed time.Duration, limit int) {
	info := p.QueryInfo()
	fmt.Printf("query:           %s\n", info.Text)
	fmt.Printf("total time:      %s (scan %s)\n", elapsed.Round(time.Microsecond), res.ScanTime.Round(time.Microsecond))
	for i, j := range res.Joins {
		fmt.Printf("join %d:          %s, %d matches, %s\n",
			i+1, j.Result.Algorithm, j.Result.Matches, j.Result.Total.Round(time.Microsecond))
	}
	n := res.Output.Len()
	fmt.Printf("rows:            %d\n", n)
	shown := n
	if shown > limit {
		shown = limit
	}
	if shown > 0 {
		fmt.Printf("%16s  %s\n", info.Columns[0], info.Columns[1])
		for _, tu := range res.Output.Tuples[:shown] {
			fmt.Printf("%16d  %d\n", tu.Key, tu.Payload)
		}
		if n > shown {
			fmt.Printf("... %d more rows\n", n-shown)
		}
	}
}

// printQueryJSON renders the full result as machine-readable JSON.
func printQueryJSON(p *mpsm.Plan, res *mpsm.PlanResult, elapsed time.Duration) {
	info := p.QueryInfo()
	out := struct {
		Query       string       `json:"query"`
		Columns     [2]string    `json:"columns"`
		Rows        int          `json:"rows"`
		TotalMillis float64      `json:"total_millis"`
		Tuples      []mpsm.Tuple `json:"tuples"`
	}{
		Query:       info.Text,
		Columns:     info.Columns,
		Rows:        res.Output.Len(),
		TotalMillis: millis(elapsed),
		Tuples:      res.Output.Tuples,
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "mpsmjoin:", err)
		os.Exit(1)
	}
}

// runREPL reads queries from stdin, one rule per line (a trailing '.' is
// optional), and prints each result. Errors annotate and continue; the
// session ends at EOF or \q.
func runREPL(ctx context.Context, engine *mpsm.Engine, cat mpsm.MapCatalog, explainPlan bool, opts []mpsm.Option) {
	fmt.Println("mpsm query REPL — relations: r, s, t; \\q quits, \\e toggles explain.")
	fmt.Println(`example: ans(K, Sum) :- r(K, X), s(K, Y), X > 10, agg sum(Y).`)
	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for {
		fmt.Print("mpsm> ")
		if !in.Scan() {
			break
		}
		line := strings.TrimSpace(in.Text())
		switch {
		case line == "":
			continue
		case line == `\q` || line == "quit" || line == "exit":
			return
		case line == `\e`:
			explainPlan = !explainPlan
			fmt.Printf("explain %v\n", explainPlan)
			continue
		}
		p, err := mpsm.Compile(line, cat)
		if err != nil {
			printQueryError(err)
			continue
		}
		if explainPlan {
			if ex, err := engine.Explain(p, opts...); err == nil {
				fmt.Printf("%s\n", ex)
			}
		}
		start := time.Now()
		res, err := engine.RunPlan(ctx, p, opts...)
		if err != nil {
			if ctx.Err() != nil {
				fmt.Fprintln(os.Stderr, "mpsmjoin:", ctx.Err())
				return
			}
			fmt.Fprintln(os.Stderr, "mpsmjoin:", err)
			continue
		}
		printQueryResult(p, res, time.Since(start), 10)
	}
	if err := in.Err(); err != nil && err != io.EOF {
		fmt.Fprintln(os.Stderr, "mpsmjoin:", err)
	}
}
