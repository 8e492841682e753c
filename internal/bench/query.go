package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	mpsm "repro"
)

func init() {
	register(Experiment{
		Name:  "query",
		Title: "Query front-end: parse+compile overhead and compiled-vs-hand-built plan parity",
		Run:   runQueryExperiment,
		JSON:  queryJSON,
	})
}

// queryRepetitions is how often each plan executes; the report keeps the
// best time, following the paper's warm-repetition methodology.
const queryRepetitions = 3

// queryCompileIterations is how often the text is parsed and compiled for
// the front-end cost measurement; compilation is microseconds, so a batch
// amortizes the timer resolution.
const queryCompileIterations = 200

// queryBenchSrc is the acceptance query: a three-way join with a scan
// filter and an aggregation fused into the top join through a Project.
const queryBenchSrc = "ans(K, Sum) :- r(K, X), s(K, Y), t(K, Z), X > 10, agg sum(Z)"

// QueryReport is the machine-readable report of the query experiment
// (BENCH_query.json): the parse+compile cost of the acceptance query, the
// end-to-end execution times of the compiled plan and of the equivalent
// hand-built plan, and the two derived ratios the CI gate asserts —
// CompileOverhead (front-end cost as a fraction of end-to-end join time)
// and PlanRatio (compiled / hand-built execution time; 1.0 is parity).
type QueryReport struct {
	GeneratedAt     string  `json:"generated_at"`
	Query           string  `json:"query"`
	RSize           int     `json:"r_size"`
	SSize           int     `json:"s_size"`
	TSize           int     `json:"t_size"`
	Workers         int     `json:"workers"`
	Groups          int     `json:"groups"`
	CompileMicros   float64 `json:"compile_micros"`
	CompiledMillis  float64 `json:"compiled_millis"`
	HandMillis      float64 `json:"hand_millis"`
	CompileOverhead float64 `json:"compile_overhead"`
	PlanRatio       float64 `json:"plan_ratio"`
}

// queryBenchCatalog builds the three-relation catalog the query references:
// r is the dimension, s and t foreign-key fact tables of twice its size.
func queryBenchCatalog(cfg Config) mpsm.MapCatalog {
	r := mpsm.GenerateUniform("r", cfg.RSize(), 2600)
	return mpsm.MapCatalog{
		"r": r,
		"s": mpsm.GenerateForeignKey("s", r, 2*cfg.RSize(), 2601),
		"t": mpsm.GenerateForeignKey("t", r, 2*cfg.RSize(), 2602),
	}
}

// queryHandPlan is the plan a careful caller would build by hand for
// queryBenchSrc: the filter folded into the r scan, a left-deep join chain,
// the probe payload projected, and a streaming sum above it.
func queryHandPlan(cat mpsm.MapCatalog) *mpsm.Plan {
	p := mpsm.NewPlan()
	r := p.Scan(cat["r"], func(t mpsm.Tuple) bool { return t.Payload > 10 })
	j := p.Join(p.Join(r, p.Scan(cat["s"])), p.Scan(cat["t"]))
	p.GroupAggregate(p.Project(j, func(r, s mpsm.Tuple) mpsm.Tuple {
		return mpsm.Tuple{Key: r.Key, Payload: s.Payload}
	}), mpsm.AggSum)
	return p
}

// measureQueryPlan runs one plan to a warm best-of-N time.
func measureQueryPlan(engine *mpsm.Engine, p *mpsm.Plan) (time.Duration, int, error) {
	ctx := context.Background()
	res, err := engine.RunPlan(ctx, p)
	if err != nil {
		return 0, 0, err
	}
	groups := res.Output.Len()
	best := time.Duration(0)
	for i := 0; i < queryRepetitions; i++ {
		res, err := engine.RunPlan(ctx, p)
		if err != nil {
			return 0, 0, err
		}
		if res.Output.Len() != groups {
			return 0, 0, fmt.Errorf("query: group count changed between runs: %d vs %d", res.Output.Len(), groups)
		}
		if best == 0 || res.Total < best {
			best = res.Total
		}
	}
	return best, groups, nil
}

// buildQueryReport measures the front-end and both plans on one pooled
// engine.
func buildQueryReport(cfg Config) (*QueryReport, error) {
	cat := queryBenchCatalog(cfg)
	engine := mpsm.New(mpsm.WithWorkers(cfg.workers()), mpsm.WithScratchPool(true))
	rep := &QueryReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Query:       queryBenchSrc,
		RSize:       cat["r"].Len(),
		SSize:       cat["s"].Len(),
		TSize:       cat["t"].Len(),
		Workers:     cfg.workers(),
	}

	// Front-end cost: parse + compile the text repeatedly. The first call
	// warms the allocator; the measured batch reports the mean per query.
	compiled, err := mpsm.Compile(queryBenchSrc, cat)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for i := 0; i < queryCompileIterations; i++ {
		if compiled, err = mpsm.Compile(queryBenchSrc, cat); err != nil {
			return nil, err
		}
	}
	rep.CompileMicros = float64(time.Since(start).Microseconds()) / queryCompileIterations

	best, groups, err := measureQueryPlan(engine, compiled)
	if err != nil {
		return nil, err
	}
	rep.CompiledMillis = millis(best)
	rep.Groups = groups

	best, handGroups, err := measureQueryPlan(engine, queryHandPlan(cat))
	if err != nil {
		return nil, err
	}
	rep.HandMillis = millis(best)
	if handGroups != groups {
		return nil, fmt.Errorf("query: compiled and hand-built plans disagree on the group count: %d vs %d", groups, handGroups)
	}

	if rep.CompiledMillis > 0 {
		rep.CompileOverhead = (rep.CompileMicros / 1000) / rep.CompiledMillis
	}
	if rep.HandMillis > 0 {
		rep.PlanRatio = rep.CompiledMillis / rep.HandMillis
	}
	return rep, nil
}

// runQueryExperiment renders the front-end measurements as a table.
func runQueryExperiment(cfg Config, w io.Writer) error {
	rep, err := buildQueryReport(cfg)
	if err != nil {
		return err
	}
	tbl := newTable(w)
	tbl.row("stage", "time")
	tbl.row("parse+compile", fmt.Sprintf("%.1f µs", rep.CompileMicros))
	tbl.row("compiled plan", fmt.Sprintf("%.2f ms", rep.CompiledMillis))
	tbl.row("hand-built plan", fmt.Sprintf("%.2f ms", rep.HandMillis))
	tbl.flush()
	fmt.Fprintf(w, "\nfront-end overhead is %.2f%% of end-to-end time; the compiled plan runs at %.2fx the hand-built plan (%d groups, |R|=%d, |S|=|T|=%d)\n",
		rep.CompileOverhead*100, rep.PlanRatio, rep.Groups, rep.RSize, rep.SSize)
	if cfg.Verbose {
		fmt.Fprintln(w, "expected shape: compilation is microseconds against milliseconds of join work, and the lowered plan is the hand-built plan, so the ratio hovers around 1.0")
	}
	return nil
}

// queryJSON produces the machine-readable query report.
func queryJSON(cfg Config) (any, error) {
	return buildQueryReport(cfg)
}
