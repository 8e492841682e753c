// Command benchmark is the repository's end-to-end benchmark. It builds
// cmd/mpsmd, runs it as a subprocess, uploads relations it generated itself,
// drives /v1/join and /v1/query as a closed-loop client, checks every answer
// against its own oracle and prints every metric by name with its unit. The
// last line of its standard output is one JSON object: the run's verdict and
// metrics. See README.md for the workloads, the metrics and how they
// interact, and ../BENCHMARK.json for the contract later changes are held to.
//
//	bash benchmark/run.sh --workload join_large --seed 1 --seconds 22 --trace 0
//	bash benchmark/run.sh --seed 1 --reps 3 --out a.json      # all four workloads
//	bash benchmark/run.sh --compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

const (
	warmupRequests = 5 // per client, before every window
	// launchesPerRun is how many daemons an untraced run starts, one after
	// the other, each getting an equal share of the window. setup_s and the
	// peak RSS are medians over the launches; latencies are pooled.
	launchesPerRun = 3
	// traceSlices splits the traced run's window into alternating untraced
	// and traced stretches, whose median round trips give
	// trace.overhead_ratio.
	traceSlices = 4
)

// config is what one invocation runs with.
type config struct {
	seed      uint64
	window    time.Duration
	trace     bool
	sizes     sizes
	nproc     int
	repoRoot  string // the repository the benchmark sits in
	outDir    string // build outputs and traces, git-ignored
	daemonBin string
	buildTime time.Duration
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the verdict and metrics of one run of one workload.
type runResult struct {
	Workload  string                 `json:"workload"`
	Rep       int                    `json:"rep"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Samples   int                    `json:"samples"`
	Metrics   map[string]metricValue `json:"metrics"`
	Inputs    map[string]string      `json:"input_sha256"`

	firstFailure error
	ungated      string // an untraced run's tail latency and memory, printed only
	spanSelf     map[string]time.Duration
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run this workload alone (default: all four)")
		seed         = flag.Uint64("seed", 1, "seed of every generated input and request sequence")
		seconds      = flag.Int("seconds", 10, "length of the measurement window")
		trace        = flag.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics instead of the end-to-end ones")
		quick        = flag.Bool("quick", false, "tiny relations (at most 2 048 tuples), for smoke tests")
		reps         = flag.Int("reps", 1, "runs per workload, alternating the workload order")
		out          = flag.String("out", "", "also write every run's metrics to this JSON file, for -compare")
		compare      = flag.Bool("compare", false, "compare two -out files given as arguments: A.json B.json")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare takes two files: A.json B.json"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 || *seconds < 1 || *reps < 1 || *trace < 0 || *trace > 1 {
		fatal(fmt.Errorf("usage: benchmark [-workload NAME] [-seed N] [-seconds N] [-trace 0|1] [-quick] [-reps N] [-out FILE]"))
	}

	cfg := config{seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *trace == 1, sizes: fullSizes, nproc: runtime.NumCPU()}
	if *quick {
		cfg.sizes = quickSizes
	}
	var names []string
	if *workloadName != "" {
		names = []string{*workloadName}
	} else {
		for _, d := range workloadDefs {
			names = append(names, d.name)
		}
	}

	// An interrupt cancels ctx, which kills the running daemon; the request
	// in flight then fails and the benchmark exits non-zero.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := cfg.prepare(ctx); err != nil {
		fatal(err)
	}
	env := readEnvironment(cfg)
	env.print(os.Stdout)

	var runs []*runResult
	for rep := 0; rep < *reps; rep++ {
		order := append([]string(nil), names...)
		if rep%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, name := range order {
			res, err := runWorkload(ctx, cfg, name)
			if err != nil {
				fatal(fmt.Errorf("workload %s: %w", name, err))
			}
			res.Rep = rep
			res.print(os.Stdout, cfg)
			runs = append(runs, res)
		}
	}
	if *out != "" {
		if err := writeReport(*out, env, cfg, runs); err != nil {
			fatal(err)
		}
	}

	final := summarize(runs, len(names) > 1)
	line, err := json.Marshal(final)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
	if !final.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// prepare locates the repository and builds the daemon. The benchmark is its
// own module inside the repository, and run.sh (like `go test`) runs it from
// its own directory, so the repository is the parent directory.
func (c *config) prepare(ctx context.Context) error {
	here, err := os.Getwd()
	if err != nil {
		return err
	}
	c.repoRoot = filepath.Dir(here)
	c.outDir = filepath.Join(here, "out")
	c.daemonBin = filepath.Join(c.outDir, "bin", "mpsmd")
	if err := os.MkdirAll(filepath.Dir(c.daemonBin), 0o755); err != nil {
		return err
	}
	c.buildTime, err = buildDaemon(ctx, c.repoRoot, c.daemonBin)
	return err
}

// runWorkload performs one complete run of one workload: generate the inputs
// and their expected answers, then measure.
func runWorkload(ctx context.Context, cfg config, name string) (*runResult, error) {
	w, err := buildWorkload(name, cfg.seed, cfg.sizes, cfg.nproc)
	if err != nil {
		return nil, err
	}
	return measure(ctx, cfg, w)
}

// measure sets the daemon up, drives the window, tears the daemon down and, in
// a traced run, probes the layers in-process.
func measure(ctx context.Context, cfg config, w *workload) (*runResult, error) {
	res := &runResult{Workload: w.name, Metrics: make(map[string]metricValue), Inputs: make(map[string]string)}
	var uploadBytes int
	for _, in := range w.inputs {
		res.Inputs[in.name] = in.sha256
		uploadBytes += len(in.body)
	}

	// An untraced run spreads its window over several daemon launches and
	// pools their samples: one process's peak memory differs from the next
	// one's by a tenth on the same inputs, and on a shared host so does its
	// speed, so numbers over several launches repeat better than numbers
	// from one. The traced run needs one launch only.
	launches := launchesPerRun
	var rec *recorder
	cal := newCalibrator(cfg.nproc)
	if cfg.trace {
		launches, rec = 1, newRecorder()
	}
	var total, untraced, traced loadResult
	var setups, uploads, peaks []float64
	var stats serviceStats
	for i := 0; i < launches; i++ {
		l, err := launch(ctx, cfg, w, cfg.window/time.Duration(launches), cal, rec)
		if err != nil {
			return nil, err
		}
		untraced.merge(l.untraced)
		traced.merge(l.traced)
		setups, uploads, peaks = append(setups, l.setup), append(uploads, l.upload), append(peaks, l.peakRSSMB)
		stats = l.stats // read by the traced run only, which has one launch
	}
	total.merge(untraced)
	total.merge(traced)

	res.Attempted, res.Failed, res.Samples = total.attempted, total.failed, len(total.samples)
	res.Correct = total.failed == 0 && len(total.samples) > 0
	res.firstFailure = total.firstFailure
	if len(total.samples) == 0 {
		return nil, fmt.Errorf("no request succeeded in the window (first failure: %v)", total.firstFailure)
	}

	rtts := roundTrips(total.samples)
	p50, p90, peakRSS := median(rtts), percentile(rtts, 0.9), median(peaks)
	qps := float64(len(total.samples)) / total.elapsed.Seconds()
	if !cfg.trace {
		res.set(endToEnd, map[string]float64{
			"setup_s":            median(setups),
			"latency_p50_cal":    relativeLatency(total.samples),
			"throughput_per_cal": float64(len(total.samples)) / total.calUnits,
		})
		res.ungated = fmt.Sprintf("calibration kernel %.6g ms, latency p50 %.6g ms, p90 %.6g ms, throughput %.6g 1/s, peak RSS %.6g MB",
			median(total.calibrations), p50, p90, qps, peakRSS)
		return res, nil
	}

	// The traced run reports raw times; how fast the host was while it took
	// them is the calibration kernel's time, measured with the daemon gone.
	calibrations := make([]float64, probeReps)
	for i := range calibrations {
		calibrations[i] = millis(cal.once())
	}

	layers, err := probeLayers(ctx, w, cfg.nproc, rec)
	if err != nil {
		return nil, err
	}
	overheads := make([]float64, len(total.samples))
	algorithms := make(map[string]float64)
	joins := 0.0
	for i, s := range total.samples {
		overheads[i] = millis(s.rtt) - s.serverMillis
		if s.algorithm != "" {
			algorithms[s.algorithm]++
			joins++
		}
	}
	layers["mpsmd.http_overhead_ms"] = median(overheads)
	layers["mpsmd.build_s"] = cfg.buildTime.Seconds()
	layers["mpsmd.upload_mb_per_s"] = float64(uploadBytes) / 1e6 / median(uploads)
	layers["client.requests"] = float64(total.attempted)
	layers["client.failed"] = float64(total.failed)
	layers["client.latency_p50_ms"] = p50
	layers["client.latency_p90_ms"] = p90
	layers["client.throughput_qps"] = qps
	layers["host.calibration_ms"] = median(calibrations)
	layers["mpsmd.peak_rss_mb"] = peakRSS
	layers["service.admitted"] = float64(stats.Admission.Admitted)
	layers["service.queued"] = float64(stats.Admission.Queued)
	layers["service.degraded"] = float64(stats.Degradation.NarrowedQueries)
	layers["service.plancache_hit_rate"] = ratio(stats.PlanCache.Hits, stats.PlanCache.Misses)
	layers["memory.pool_hit_rate"] = ratio(stats.Memory.Hits, stats.Memory.Misses)
	for metric, algorithm := range map[string]string{
		"planner.choice_pmpsm_share":     "P-MPSM",
		"planner.choice_bmpsm_share":     "B-MPSM",
		"planner.choice_wisconsin_share": "Wisconsin",
		"planner.choice_radix_share":     "Radix HJ",
	} {
		layers[metric] = algorithms[algorithm] / max(joins, 1)
	}
	layers["trace.overhead_ratio"] = median(roundTrips(traced.samples)) / median(roundTrips(untraced.samples))
	res.set(perLayer, layers)

	res.spanSelf = rec.selfByName()
	if err := rec.write(filepath.Join(cfg.outDir, "trace-"+w.name+".json")); err != nil {
		return nil, err
	}
	return res, nil
}

// launchResult is what one daemon lifetime contributed to a run.
type launchResult struct {
	setup, upload    float64 // seconds
	untraced, traced loadResult
	stats            serviceStats // /v1/stats counters over the window
	peakRSSMB        float64
}

// launch runs one daemon from start to drain: set up (start, upload, warm
// up), drive the closed loop for `window`, stop. With a recorder the window
// alternates untraced and traced stretches.
func launch(ctx context.Context, cfg config, w *workload, window time.Duration, cal *calibrator, rec *recorder) (*launchResult, error) {
	res := new(launchResult)
	start := time.Now()
	d, err := startDaemon(ctx, cfg.daemonBin, cfg.nproc)
	if err != nil {
		return nil, err
	}
	// fail ends a daemon that is still healthy but of no more use.
	fail := func(err error) (*launchResult, error) {
		d.kill()
		return nil, fmt.Errorf("%w\n%s", err, d.output.String())
	}
	uploadStart := time.Now()
	for _, in := range w.inputs {
		if err := d.upload(in); err != nil {
			return fail(err)
		}
	}
	res.upload = time.Since(uploadStart).Seconds()
	l := newLoad(d, w)
	if warm := l.run(warmupRequests, 0, nil); warm.failed > 0 {
		return fail(fmt.Errorf("warm-up: %w", warm.firstFailure))
	}
	res.setup = time.Since(start).Seconds()

	before, err := d.stats()
	if err != nil {
		return fail(err)
	}
	if rec == nil {
		res.untraced = l.runCalibrated(window, cal)
	} else {
		for slice := 0; slice < traceSlices; slice++ {
			if slice%2 == 0 {
				res.untraced.merge(l.run(0, window/traceSlices, nil))
			} else {
				res.traced.merge(l.run(0, window/traceSlices, rec))
			}
		}
	}
	after, err := d.stats()
	if err != nil {
		return fail(err)
	}
	res.stats = after.since(before)
	res.peakRSSMB, err = d.stop()
	return res, err
}

// ratio is hits ÷ (hits + misses), 0 when nothing was looked up.
func ratio(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

func roundTrips(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = millis(s.rtt)
	}
	return out
}

// set stores the values of exactly the metrics defs names; a missing value is
// a bug in the benchmark and panics.
func (r *runResult) set(defs []metricDef, values map[string]float64) {
	for _, def := range defs {
		v, ok := values[def.name]
		if !ok {
			panic("benchmark: no value measured for " + def.name)
		}
		r.Metrics[def.name] = metricValue{Value: v, Unit: def.unit}
	}
}

// print lists the run's metrics by name with their units.
func (r *runResult) print(out io.Writer, cfg config) {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	fmt.Fprintf(out, "\n== %s (rep %d): %d requests attempted, %d failed, %d samples, error_rate %g\n",
		r.Workload, r.Rep, r.Attempted, r.Failed, r.Samples, float64(r.Failed)/float64(r.Attempted))
	if r.firstFailure != nil {
		fmt.Fprintf(out, "   first failure: %v\n", r.firstFailure)
	}
	for _, def := range defs {
		m := r.Metrics[def.name]
		fmt.Fprintf(out, "   %-34s %16.6g %-6s %s\n", def.name, m.Value, m.Unit, def.what)
	}
	if r.ungated != "" {
		fmt.Fprintf(out, "   not gated (per-layer metrics of the traced run): %s\n", r.ungated)
	}
	if r.spanSelf == nil {
		return
	}
	fmt.Fprintf(out, "   self time by span (span minus the part its children cover), traced stretches and replays:\n")
	names := make([]string, 0, len(r.spanSelf))
	for name := range r.spanSelf {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(out, "   %-50s %12.3f ms\n", name, millis(r.spanSelf[name]))
	}
}

// finalLine is the JSON object the benchmark ends its output with.
type finalLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// summarize folds the runs into the final line: counts add up, and a metric
// measured more than once is reported as its median. With several workloads
// the metric names are prefixed with the workload's.
func summarize(runs []*runResult, prefix bool) finalLine {
	final := finalLine{Correct: true, Metrics: make(map[string]metricValue)}
	values := make(map[string][]float64)
	units := make(map[string]string)
	for _, r := range runs {
		final.Correct = final.Correct && r.Correct
		final.Attempted += r.Attempted
		final.Failed += r.Failed
		for name, m := range r.Metrics {
			if prefix {
				name = r.Workload + "." + name
			}
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	for name, vs := range values {
		final.Metrics[name] = metricValue{Value: median(vs), Unit: units[name]}
	}
	return final
}
