// Command mpsmjoin runs a single equi-join on a generated dataset and prints
// the per-phase breakdown, the join cardinality and the evaluation-query
// result. It is the quickest way to compare the join algorithms on a given
// machine.
//
// The join runs through the reusable Engine API and honours Ctrl-C: an
// interrupt cancels the context and aborts the join mid-flight.
//
// Usage:
//
//	mpsmjoin -algorithm pmpsm -r 1000000 -multiplicity 4 -workers 8
//	mpsmjoin -algorithm wisconsin -r 500000 -multiplicity 8 -numa
//	mpsmjoin -algorithm dmpsm -r 200000 -page-budget 64
//
// With -plan the command instead runs a composable operator plan — the
// 3-way join (R ⋈ S) ⋈ T followed by a GROUP BY SUM aggregation fused into
// the top join's sink — demonstrating how key-ordered MPSM output lets joins
// and aggregations compose without re-sorting or hash tables:
//
//	mpsmjoin -plan -r 500000 -multiplicity 4 -pool
//
// With -auto the engine's cost-based planner picks the algorithm, join
// order, scheduling mode and presorted declarations from sampled statistics
// instead of the flags; -explain prints the chosen physical plan (with
// estimated cardinalities and the per-algorithm cost comparison) before
// running:
//
//	mpsmjoin -auto -explain -r 1000000 -multiplicity 4
//
// With -query the command compiles and runs a Datalog-style query over the
// generated (or file-loaded) inputs, bound as relations r and s plus a third
// foreign-key relation t; -repl starts an interactive loop instead.
// Compilation errors print the offending line with a caret and exit
// non-zero:
//
//	mpsmjoin -r 100000 -query 'ans(K, Sum) :- r(K, X), s(K, Y), X > 10, agg sum(Y)'
//	mpsmjoin -repl -auto -explain
//
// With -r-file/-s-file the inputs come from CSV or TSV files (first row is
// the header) joined on typed key columns declared with -key, instead of
// being generated. String, composite, descending and nullable keys are
// normalized into the engine's uint64 key representation; -explain shows
// whether the join runs on the exact fast path or verifies full keys:
//
//	mpsmjoin -r-file orders.csv -s-file customers.csv -key "customer_id:int64"
//	mpsmjoin -r-file r.tsv -s-file s.tsv -key "region:string,id:int64:desc" -explain
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	mpsm "repro"
	"repro/internal/workload"
)

func main() {
	var (
		algorithmName = flag.String("algorithm", "pmpsm", "join algorithm: pmpsm, bmpsm, dmpsm, wisconsin, radix")
		rSize         = flag.Int("r", 1<<20, "cardinality of the private input R")
		multiplicity  = flag.Int("multiplicity", 4, "|S| = multiplicity × |R|")
		workers       = flag.Int("workers", 0, "degree of parallelism (default GOMAXPROCS)")
		rSkew         = flag.String("r-skew", "none", "key distribution of R: none, low, high")
		sSkew         = flag.String("s-skew", "none", "key distribution of S: none, low, high")
		foreignKey    = flag.Bool("fk", true, "draw S keys from R (guarantees join partners)")
		seed          = flag.Uint64("seed", 42, "dataset seed")
		trackNUMA     = flag.Bool("numa", false, "enable simulated NUMA access accounting")
		perWorker     = flag.Bool("per-worker", false, "print per-worker phase breakdowns")
		splitters     = flag.String("splitters", "equi-cost", "P-MPSM splitter strategy: equi-cost, equi-height, uniform")
		schedMode     = flag.String("sched", "static", "match-phase scheduling of B-MPSM, P-MPSM and Wisconsin: static (paper-faithful barriers) or morsel (work stealing); D-MPSM and Radix HJ ignore it")
		pageBudget    = flag.Int("page-budget", 0, "D-MPSM: buffer pool budget in pages (0 = unlimited)")
		pageSize      = flag.Int("page-size", 1024, "D-MPSM: tuples per page")
		readLatency   = flag.Duration("read-latency", 0, "D-MPSM: simulated per-page read latency")
		timeout       = flag.Duration("timeout", 0, "abort the join after this duration (0 = no limit)")
		jsonOut       = flag.Bool("json", false, "print the result as machine-readable JSON instead of text")
		usePool       = flag.Bool("pool", false, "enable the engine-wide scratch pool (allocation-free steady state)")
		poolLimit     = flag.Int64("pool-limit", 0, "scratch pool byte limit (0 = default 512 MiB); implies nothing without -pool")
		concurrency   = flag.Int("concurrency", 0, "replay the same join from N goroutines through one serving engine and print the latency histogram")
		repeat        = flag.Int("repeat", 10, "with -concurrency: queries per client goroutine")
		rFile         = flag.String("r-file", "", "load R from this CSV/TSV file instead of generating it (requires -s-file and -key)")
		sFile         = flag.String("s-file", "", "load S from this CSV/TSV file")
		keySpecFlag   = flag.String("key", "", "typed key columns for file inputs, e.g. \"region:string,id:int64:desc\" (types: int64, uint64, float64, bytes; modifiers: asc, desc, nullable, nullslast)")
		payloadCol    = flag.String("payload", "", "file column holding the uint64 tuple payload (default: row index)")
		sepFlag       = flag.String("sep", "", "field delimiter for file inputs (default: tab for .tsv, comma otherwise)")
		queryText     = flag.String("query", "", "compile and run a Datalog-style query over relations r, s, t instead of the flag-built join (see README \"Query language\")")
		replMode      = flag.Bool("repl", false, "interactive query loop over relations r, s, t (one rule per line)")
		planMode      = flag.Bool("plan", false, "run the 3-way operator plan demo (R ⋈ S) ⋈ T + GROUP BY SUM instead of a single join")
		autoPlan      = flag.Bool("auto", false, "let the cost-based planner pick algorithm, join order, scheduler and presorted declarations from sampled statistics")
		explainPlan   = flag.Bool("explain", false, "print the chosen physical plan (algorithm, order, scheduler, estimates) before running")
	)
	flag.Parse()

	algorithm, err := mpsm.ParseAlgorithm(*algorithmName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpsmjoin:", err)
		os.Exit(2)
	}
	strategy, err := parseSplitters(*splitters)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpsmjoin:", err)
		os.Exit(2)
	}
	scheduler, err := mpsm.ParseScheduler(*schedMode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpsmjoin:", err)
		os.Exit(2)
	}

	var r, s *mpsm.Relation
	if *rFile != "" || *sFile != "" {
		// File mode: typed key columns normalize into the engine's uint64
		// keys; single numeric columns join on the fast path, everything
		// else carries full keys for tie-break verification.
		loadStart := time.Now()
		r, s, err = loadFileInputs(*rFile, *sFile, *sepFlag, *keySpecFlag, *payloadCol)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mpsmjoin:", err)
			os.Exit(2)
		}
		if !*jsonOut {
			fmt.Printf("loaded |R|=%d (%s) |S|=%d (%s) in %s\n",
				r.Len(), *rFile, s.Len(), *sFile, time.Since(loadStart).Round(time.Millisecond))
			if r.Meta != nil {
				fmt.Printf("keys: %s\n\n", r.Meta.Describe())
			}
		}
	} else {
		spec := workload.Spec{
			RSize:        *rSize,
			Multiplicity: *multiplicity,
			RSkew:        parseSkew(*rSkew),
			SSkew:        parseSkew(*sSkew),
			ForeignKey:   *foreignKey && parseSkew(*sSkew) == workload.SkewNone,
			Seed:         *seed,
		}
		if !*jsonOut {
			fmt.Printf("generating |R|=%d |S|=%d (%s / %s keys, foreign-key=%v, seed=%d)\n",
				spec.RSize, spec.RSize*spec.Multiplicity, spec.RSkew, spec.SSkew, spec.ForeignKey, spec.Seed)
		}
		genStart := time.Now()
		r, s, err = workload.Generate(spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mpsmjoin:", err)
			os.Exit(1)
		}
		if !*jsonOut {
			fmt.Printf("generated in %s\n\n", time.Since(genStart).Round(time.Millisecond))
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	engine := mpsm.New(
		mpsm.WithAlgorithm(algorithm),
		mpsm.WithWorkers(*workers),
		mpsm.WithSplitters(strategy),
		mpsm.WithScheduler(scheduler),
		mpsm.WithScratchPool(*usePool),
		mpsm.WithPoolLimit(*poolLimit),
		mpsm.WithDisk(mpsm.DiskConfig{PageSize: *pageSize, PageBudget: *pageBudget, ReadLatency: *readLatency}),
		mpsm.WithAutoPlan(*autoPlan),
	)
	var opts []mpsm.Option
	if *trackNUMA {
		opts = append(opts, mpsm.WithNUMATracking())
	}
	if *perWorker {
		opts = append(opts, mpsm.WithPerWorkerStats())
	}

	if *queryText != "" || *replMode {
		cat := queryCatalog(r, s, *seed)
		if *queryText != "" {
			runQuery(ctx, engine, cat, *queryText, *jsonOut, *explainPlan, opts)
		} else {
			runREPL(ctx, engine, cat, *explainPlan, opts)
		}
		return
	}
	if *planMode {
		runPlanDemo(ctx, engine, r, s, *seed, scheduler, *jsonOut, *explainPlan, *autoPlan, opts)
		return
	}
	if *concurrency > 0 {
		runConcurrent(ctx, engine, r, s, *concurrency, *repeat, opts)
		return
	}

	// schedName labels the scheduling mode in the output; under -auto it is
	// the planner's choice rather than the -sched flag.
	schedName := scheduler.String()
	var explain *mpsm.Explain
	if *explainPlan || *autoPlan {
		// The single join is the one-join plan; Explain shows the physical
		// choices (under -auto, the optimizer's) before anything runs.
		p := mpsm.NewPlan()
		p.Sink(p.Join(p.Scan(r), p.Scan(s)), nil)
		ex, err := engine.Explain(p, opts...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mpsmjoin:", err)
			os.Exit(1)
		}
		if *explainPlan {
			explain = ex
			if !*jsonOut {
				fmt.Printf("physical plan:\n%s\n\n", ex)
			}
		}
		if *autoPlan {
			for _, n := range ex.Nodes {
				if n.Kind == "Join" && n.Scheduler != "" {
					schedName = n.Scheduler
				}
			}
		}
	}

	var res *mpsm.Result
	var diskStats *mpsm.DiskStats
	if algorithm == mpsm.DMPSM {
		res, diskStats, err = engine.JoinWithDiskStats(ctx, r, s, opts...)
	} else {
		res, err = engine.Join(ctx, r, s, opts...)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpsmjoin:", err)
		os.Exit(1)
	}

	if *jsonOut {
		// The JSON form carries everything the text form prints.
		out := joinJSON{algorithmTiming: timingJSON(res, schedName), Disk: diskStats, Explain: explain}
		if *usePool {
			out.Scratch = &res.Scratch
			if ps, ok := engine.PoolStats(); ok {
				out.Pool = &ps
			}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "mpsmjoin:", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("algorithm:       %s (T=%d, %s scheduling)\n", res.Algorithm, res.Workers, schedName)
	fmt.Printf("total time:      %s\n", res.Total.Round(time.Microsecond))
	for _, p := range res.Phases {
		fmt.Printf("  %-12s %s\n", p.Name+":", p.Duration.Round(time.Microsecond))
	}
	fmt.Printf("join matches:    %d\n", res.Matches)
	fmt.Printf("max(R.p+S.p):    %d\n", res.MaxSum)
	if res.PublicScanned > 0 {
		fmt.Printf("S entries scanned in join phase: %d (|S| = %d; an entry is a tuple or a key group)\n", res.PublicScanned, s.Len())
	}
	if *trackNUMA {
		fmt.Printf("NUMA accesses:   %d total, %.1f%% remote, %d sync ops, simulated cost %s\n",
			res.NUMA.TotalAccesses(), 100*res.NUMA.RemoteFraction(), res.NUMA.SyncOps,
			res.SimulatedNUMACost.Round(time.Microsecond))
	}
	if diskStats != nil {
		fmt.Printf("disk:            %d page writes, %d page reads, pool max resident %d (budget %d), %d hits, %d evictions\n",
			diskStats.PageWrites, diskStats.PageReads, diskStats.Pool.MaxResident,
			*pageBudget, diskStats.Pool.Hits, diskStats.Pool.Evictions)
	}
	if *usePool {
		fmt.Printf("scratch pool:    %d buffers requested, %d reused, %.1f MiB served\n",
			res.Scratch.Buffers, res.Scratch.Reused, float64(res.Scratch.Bytes)/(1<<20))
		if ps, ok := engine.PoolStats(); ok {
			fmt.Printf("                 pool holds %.1f MiB (peak %.1f MiB), %d discards\n",
				float64(ps.HeldBytes)/(1<<20), float64(ps.PeakHeldBytes)/(1<<20), ps.Discards)
		}
	}
	if *perWorker {
		fmt.Println("\nper-worker breakdown:")
		for _, wb := range res.PerWorker {
			fmt.Printf("  worker %2d:", wb.Worker)
			for _, p := range wb.Phases {
				fmt.Printf("  %s=%s", p.Name, p.Duration.Round(time.Microsecond))
			}
			fmt.Println()
		}
	}
}

// runPlanDemo executes the composable-plan showcase: a third relation T is
// drawn from R's keys, the plan joins (R ⋈ S) ⋈ T and aggregates SUM(payload)
// per key — folded straight out of the join's sink by the sort-based
// group-by kernel, without materializing the join output, or auto-planned as
// a groupjoin that runs neither join.
func runPlanDemo(ctx context.Context, engine *mpsm.Engine, r, s *mpsm.Relation, seed uint64, scheduler mpsm.Scheduler, jsonOut, explainPlan, autoPlan bool, opts []mpsm.Option) {
	tRel := mpsm.GenerateForeignKey("T", r, r.Len(), seed+1)

	plan := mpsm.NewPlan()
	j1 := plan.Join(plan.Scan(r), plan.Scan(s))
	j2 := plan.Join(j1, plan.Scan(tRel))
	plan.GroupAggregate(j2, mpsm.AggSum)

	// Per-join scheduler labels for the report: the -sched flag, unless the
	// planner chose per join.
	schedNames := map[int]string{}
	var explain *mpsm.Explain
	if explainPlan || autoPlan {
		ex, err := engine.Explain(plan, opts...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mpsmjoin:", err)
			os.Exit(1)
		}
		if explainPlan {
			explain = ex
			if !jsonOut {
				fmt.Printf("physical plan:\n%s\n\n", ex)
			}
		}
		if autoPlan {
			joinIdx := 0
			for _, n := range ex.Nodes {
				if n.Kind == "Join" && n.Scheduler != "" {
					schedNames[joinIdx] = n.Scheduler
					joinIdx++
				}
			}
		}
	}
	schedName := func(join int) string {
		if name, ok := schedNames[join]; ok {
			return name
		}
		return scheduler.String()
	}

	res, err := engine.RunPlan(ctx, plan, opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpsmjoin:", err)
		os.Exit(1)
	}

	if jsonOut {
		out := struct {
			Joins       []algorithmTiming `json:"joins"`
			Groups      int               `json:"groups"`
			TotalMillis float64           `json:"total_millis"`
			ScanMillis  float64           `json:"scan_millis"`
			Explain     *mpsm.Explain     `json:"explain,omitempty"`
		}{
			Explain:     explain,
			Groups:      res.Output.Len(),
			TotalMillis: millis(res.Total),
			ScanMillis:  millis(res.ScanTime),
		}
		for i, j := range res.Joins {
			out.Joins = append(out.Joins, timingJSON(j.Result, schedName(i)))
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "mpsmjoin:", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("plan:            (R ⋈ S) ⋈ T → GroupAggregate(sum), |T|=%d\n", tRel.Len())
	fmt.Printf("total time:      %s (scan %s)\n", res.Total.Round(time.Microsecond), res.ScanTime.Round(time.Microsecond))
	for i, j := range res.Joins {
		fmt.Printf("join %d:          %s, %d matches, %s\n",
			i+1, j.Result.Algorithm, j.Result.Matches, j.Result.Total.Round(time.Microsecond))
		for _, p := range j.Result.Phases {
			fmt.Printf("  %-12s %s\n", p.Name+":", p.Duration.Round(time.Microsecond))
		}
	}
	fmt.Printf("groups:          %d distinct keys\n", res.Output.Len())
	if n := res.Output.Len(); n > 0 {
		first, last := res.Output.Tuples[0], res.Output.Tuples[n-1]
		fmt.Printf("first group:     key=%d sum=%d\n", first.Key, first.Payload)
		fmt.Printf("last group:      key=%d sum=%d\n", last.Key, last.Payload)
	}
}

// parseSkew maps a command-line skew name to the workload constant.
func parseSkew(name string) workload.Skew {
	switch name {
	case "low":
		return workload.SkewLow80
	case "high":
		return workload.SkewHigh80
	default:
		return workload.SkewNone
	}
}

// parseSplitters maps a command-line splitter name to the strategy constant.
func parseSplitters(name string) (mpsm.SplitterStrategy, error) {
	switch name {
	case "equi-cost", "cost":
		return mpsm.SplitterEquiCost, nil
	case "equi-height", "height":
		return mpsm.SplitterEquiHeight, nil
	case "uniform", "static":
		return mpsm.SplitterUniform, nil
	default:
		return 0, fmt.Errorf("unknown splitter strategy %q", name)
	}
}
