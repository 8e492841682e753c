package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	mpsm "repro"
	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/hashjoin"
	"repro/internal/memory"
	"repro/internal/mergejoin"
	"repro/internal/partition"
	"repro/internal/planner"
	"repro/internal/relation"
	"repro/internal/result"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/sink"
	"repro/internal/sorting"
	"repro/internal/stats"
)

// The traced run's layer probes: the benchmark calls each layer's public
// functions in-process, on the inputs of the workload it just drove over
// HTTP, at workers = nproc, and reports the median of several calls. Nothing
// inside the program is instrumented; per-phase numbers come from the public
// Result.Phases and Result.PerWorker.

const (
	probeReps      = 5  // calls per probe that runs a whole join or plan
	fastProbeReps  = 25 // calls per probe that takes micro- to milliseconds
	replayRequests = 8  // in-process requests recorded as span trees
)

// timeMedian calls fn reps times and returns the median duration.
func timeMedian(reps int, fn func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		start := time.Now()
		fn()
		ds[i] = float64(time.Since(start))
	}
	return time.Duration(median(ds))
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// perTuple is d spread over n tuples, in nanoseconds.
func perTuple(d time.Duration, n int) float64 { return float64(d) / float64(max(n, 1)) }

// probeSink keeps kernel results alive so the compiler cannot drop the calls.
var probeSink uint64

// freshRelation copies tuples into a relation the probes may hand to code
// that reorders its input.
func freshRelation(in *input) *relation.Relation {
	return relation.New(in.name, append([]relation.Tuple(nil), in.tuples...))
}

// probeLayers runs every in-process probe and returns the per-layer metrics
// they produce. Request replays are recorded into rec.
func probeLayers(ctx context.Context, w *workload, nproc int, rec *recorder) (map[string]float64, error) {
	m := make(map[string]float64)
	r, s := freshRelation(w.probeR), freshRelation(w.probeS)
	mix := w.mix()
	if err := probeKernels(m, r, s, mix, nproc); err != nil {
		return nil, err
	}
	if err := probeJoins(ctx, m, r, s, nproc); err != nil {
		return nil, err
	}
	if err := probeServing(ctx, m, r, s, nproc); err != nil {
		return nil, err
	}
	if err := probeQueries(ctx, m, mix, nproc); err != nil {
		return nil, err
	}
	if err := replay(ctx, w, nproc, rec); err != nil {
		return nil, err
	}
	m["trace.unattributed_share"] = rec.unattributedShare("request")
	return m, nil
}

// probeKernels times the partition, sorting, mergejoin, sink and batch
// kernels on one worker's share of the workload's inputs.
func probeKernels(m map[string]float64, r, s *relation.Relation, mix *queryMix, nproc int) error {
	// partition: the fine-grained radix histogram of P-MPSM's phase 2.2 and
	// the scatter of phase 2.3, over the private input as a single chunk.
	_, maxKey, err := r.MinMaxKey()
	if err != nil {
		return fmt.Errorf("partition probe: %w", err)
	}
	cfg := partition.NewRadixConfig(10, maxKey)
	hist := make(partition.Histogram, cfg.Clusters())
	m["partition.histogram_ns_per_tuple"] = perTuple(timeMedian(fastProbeReps, func() {
		clear(hist)
		partition.BuildHistogramInto(hist, r.Tuples, cfg)
	}), r.Len())
	splitters := partition.UniformSplitters(cfg.Clusters(), nproc)
	sums := partition.ComputePrefixSums([]partition.Histogram{hist}, splitters, nproc)
	targets := make([][]relation.Tuple, nproc)
	for p := range targets {
		targets[p] = make([]relation.Tuple, sums.Sizes[p])
	}
	cursors := make([]int, nproc)
	m["partition.scatter_ns_per_tuple"] = perTuple(timeMedian(fastProbeReps, func() {
		copy(cursors, sums.Offsets[0])
		partition.Scatter(r.Tuples, cfg, splitters, targets, cursors)
	}), r.Len())

	// sorting: run generation over one worker's chunk of the public input,
	// in both run representations.
	chunk := s.Tuples[:s.Len()/nproc]
	n := len(chunk)
	srcKeys, srcPays := make([]uint64, n), make([]uint64, n)
	batch.Deinterleave(chunk, srcKeys, srcPays)
	sKeys, sPays, perm := make([]uint64, n), make([]uint64, n), make([]int32, n)
	m["sorting.columns_ns_per_tuple"] = perTuple(timeMedian(probeReps, func() {
		sorting.SortColumnsInto(srcKeys, srcPays, sKeys, sPays, perm)
	}), n)
	sRun := make([]relation.Tuple, n)
	m["sorting.tuples_ns_per_tuple"] = perTuple(timeMedian(probeReps, func() {
		sorting.SortInto(chunk, sRun)
	}), n)

	// mergejoin: the whole sorted private input against that sorted chunk.
	rRun := make([]relation.Tuple, r.Len())
	sorting.SortInto(r.Tuples, rRun)
	rKeys, rPays := make([]uint64, r.Len()), make([]uint64, r.Len())
	batch.Deinterleave(rRun, rKeys, rPays)
	var agg mergejoin.MaxAggregate
	scratch := batch.NewScratch(0, nil)
	m["mergejoin.columns_ns_per_tuple"] = perTuple(timeMedian(probeReps, func() {
		mergejoin.JoinColumns(rKeys, rPays, sKeys, sPays, &agg, scratch)
	}), r.Len()+n)
	scratch.Close()
	m["mergejoin.rows_ns_per_tuple"] = perTuple(timeMedian(probeReps, func() {
		mergejoin.Join(rRun, sRun, &agg)
	}), r.Len()+n)
	probeSink += agg.Count

	// The band kernel, the group-by and the range selection run on the
	// query relations: d and e for the band, b for the other two.
	d, e := mix.rels[3].tuples, mix.rels[4].tuples
	dRun, eRun := make([]relation.Tuple, len(d)), make([]relation.Tuple, len(e))
	sorting.SortInto(d, dRun)
	sorting.SortInto(e, eRun)
	var count mergejoin.Counter
	m["mergejoin.band_ns_per_tuple"] = perTuple(timeMedian(fastProbeReps, func() {
		mergejoin.JoinBand(dRun, eRun, poolSize, &count)
	}), len(d)+len(e))
	probeSink += count.Count

	b := mix.rels[1].tuples
	m["sink.groupagg_ns_per_tuple"] = perTuple(timeMedian(probeReps, func() {
		probeSink += uint64(len(sink.AggregateTuples(b, sink.AggSum)))
	}), len(b))
	bKeys, bPays := make([]uint64, len(b)), make([]uint64, len(b))
	batch.Deinterleave(b, bKeys, bPays)
	sel := make([]int32, len(b))
	m["batch.select_range_ns_per_key"] = perTuple(timeMedian(fastProbeReps, func() {
		probeSink += uint64(batch.SelectRange(bKeys, 0, keyDomain/2, sel))
	}), len(b))
	return nil
}

// probeJoins times the four join algorithms on the workload's join pair and
// reads P-MPSM's phase breakdown, balance, scaling and memory traffic.
func probeJoins(ctx context.Context, m map[string]float64, r, s *relation.Relation, nproc int) error {
	pool := memory.NewPool(0)
	opts := core.Options{Workers: nproc, CollectPerWorker: true, Scratch: pool}
	if _, err := core.PMPSM(ctx, r, s, opts); err != nil { // fills the pool
		return fmt.Errorf("P-MPSM probe: %w", err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runs := make([]*result.Result, probeReps)
	for i := range runs {
		res, err := core.PMPSM(ctx, r, s, opts)
		if err != nil {
			return fmt.Errorf("P-MPSM probe: %w", err)
		}
		runs[i] = res
	}
	runtime.ReadMemStats(&after)
	m["runtime.allocs_per_join"] = float64(after.Mallocs-before.Mallocs) / probeReps
	m["runtime.alloc_bytes_per_join"] = float64(after.TotalAlloc-before.TotalAlloc) / probeReps
	m["runtime.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6 / probeReps

	over := func(f func(*result.Result) float64) float64 {
		vs := make([]float64, len(runs))
		for i, res := range runs {
			vs[i] = f(res)
		}
		return median(vs)
	}
	total := over(func(res *result.Result) float64 { return millis(res.Total) })
	m["core.pmpsm_total_ms"] = total
	for p := 1; p <= 4; p++ {
		name := fmt.Sprintf("phase %d", p)
		m[fmt.Sprintf("core.pmpsm_phase%d_ms", p)] = over(func(res *result.Result) float64 {
			return millis(res.PhaseDuration(name))
		})
	}
	m["core.pmpsm_worker_imbalance"] = over(func(res *result.Result) float64 {
		return maxOverMean(res.PerWorker, func(wb result.WorkerBreakdown) float64 {
			return float64(wb.Phases[len(wb.Phases)-1].Duration) // phase 4 is last
		})
	})
	m["partition.split_imbalance"] = over(func(res *result.Result) float64 {
		return maxOverMean(res.PerWorker, func(wb result.WorkerBreakdown) float64 {
			return float64(wb.PrivateTuples)
		})
	})
	m["memory.lease_bytes_per_join"] = over(func(res *result.Result) float64 { return float64(res.Scratch.Bytes) })

	var err error
	solo := opts
	solo.Workers = 1
	single := timeMedian(probeReps, func() {
		if _, e := core.PMPSM(ctx, r, s, solo); e != nil {
			err = e
		}
	})
	m["core.pmpsm_speedup_nproc"] = millis(single) / total
	m["core.bmpsm_total_ms"] = millis(timeMedian(probeReps, func() {
		if _, e := core.BMPSM(ctx, r, s, opts); e != nil {
			err = e
		}
	}))
	hopts := hashjoin.Options{Workers: nproc, Scratch: pool}
	m["hashjoin.wisconsin_total_ms"] = millis(timeMedian(probeReps, func() {
		if _, e := hashjoin.Wisconsin(ctx, r, s, hopts); e != nil {
			err = e
		}
	}))
	m["hashjoin.radix_total_ms"] = millis(timeMedian(probeReps, func() {
		if _, e := hashjoin.Radix(ctx, r, s, hashjoin.RadixOptions{Options: hopts}); e != nil {
			err = e
		}
	}))
	if err != nil {
		return fmt.Errorf("join probe: %w", err)
	}
	return nil
}

// maxOverMean is the load imbalance of a per-worker quantity: 1.0 when every
// worker carries the same, T when one worker carries it all.
func maxOverMean(workers []result.WorkerBreakdown, f func(result.WorkerBreakdown) float64) float64 {
	var top, sum float64
	for _, wb := range workers {
		v := f(wb)
		top = max(top, v)
		sum += v
	}
	if sum == 0 {
		return 1
	}
	return top * float64(len(workers)) / sum
}

// joinPlan lowers R ⋈ S the way Service.Join does: two scans, a join, and
// the default max-sum sink.
func joinPlan(r, s *relation.Relation, nproc int) *exec.Plan {
	p := new(exec.Plan)
	j := p.AddJoin(p.AddScan(r, nil), p.AddScan(s, nil), exec.AlgorithmPMPSM, core.Options{Workers: nproc}, core.DiskOptions{})
	p.AddSink(j, nil)
	return p
}

// probeServing times what the serving path adds around a join: statistics,
// the optimizer, the plan cache, admission, a phase barrier, and the whole
// of Service.Join over Engine.Join.
func probeServing(ctx context.Context, m map[string]float64, r, s *relation.Relation, nproc int) error {
	m["stats.collect_us"] = micros(timeMedian(probeReps, func() { stats.Collect(s) }))

	// The daemon's engine memoizes profiles per relation; so do the probes.
	profiles := map[*relation.Relation]*stats.Profile{r: stats.Collect(r), s: stats.Collect(s)}
	profile := func(rel *relation.Relation) *stats.Profile { return profiles[rel] }
	var err error
	opt := &planner.Optimizer{Profile: profile, Rewrite: true}
	m["planner.optimize_us"] = micros(timeMedian(fastProbeReps, func() {
		if _, _, e := opt.Optimize(joinPlan(r, s, nproc)); e != nil {
			err = e
		}
	}))

	cache := service.NewPlanCache(profile, 0)
	misses := 0
	m["service.plancache_miss_us"] = micros(timeMedian(fastProbeReps, func() {
		misses++
		if _, e := cache.OptimizeKeyed(fmt.Sprint("never seen ", misses), joinPlan(r, s, nproc), true); e != nil {
			err = e
		}
	}))
	m["service.plancache_hit_us"] = micros(timeMedian(fastProbeReps, func() {
		if _, e := cache.OptimizeKeyed("never seen 1", joinPlan(r, s, nproc), true); e != nil {
			err = e
		}
	}))

	admission := service.NewAdmission(memory.NewPool(0))
	m["service.admit_us"] = micros(timeMedian(fastProbeReps, func() {
		res, e := admission.Admit(ctx, "probe", 1<<20)
		if e != nil {
			err = e
			return
		}
		admission.Done(res)
	}))

	rt := sched.New(sched.Config{Workers: nproc})
	m["sched.phase_barrier_us"] = micros(timeMedian(fastProbeReps, func() {
		rt.Phase(ctx, "empty", func(context.Context, *sched.Worker) {})
	}))
	if err != nil {
		return fmt.Errorf("serving probe: %w", err)
	}

	// Both sides run the same pinned, morsel-scheduled P-MPSM join, so the
	// difference is what admission, the fair-share gate and the plan cache
	// cost per request.
	engine := mpsm.New(mpsm.WithWorkers(nproc), mpsm.WithScratchPool(true), mpsm.WithAutoPlan(true))
	svc := mpsm.NewService(engine)
	pin := []mpsm.Option{mpsm.WithAlgorithm(mpsm.PMPSM), mpsm.WithAutoPlan(false), mpsm.WithScheduler(mpsm.Morsel)}
	direct := timeMedian(probeReps, func() {
		if _, e := engine.Join(ctx, r, s, pin...); e != nil {
			err = e
		}
	})
	served := timeMedian(probeReps, func() {
		if _, e := svc.Join(ctx, r, s, mpsm.WithQueryOptions(pin...)); e != nil {
			err = e
		}
	})
	m["service.overhead_us"] = micros(served - direct)
	if e := svc.Close(); e != nil {
		err = e
	}
	if err != nil {
		return fmt.Errorf("service probe: %w", err)
	}
	return nil
}

// catalog binds query_mix's relations under their names.
func (mix *queryMix) catalog() mpsm.MapCatalog {
	cat := make(mpsm.MapCatalog, len(mix.rels))
	for _, in := range mix.rels {
		cat[in.name] = freshRelation(in)
	}
	return cat
}

// probeQueries times the compiler and, per template, the engine's plan
// runner (lowering, optimizer and exec.RunPlanFor) on a pooled constant.
func probeQueries(ctx context.Context, m map[string]float64, mix *queryMix, nproc int) error {
	cat := mix.catalog()
	texts := [numTemplates]string{agg2Text(400_000), chain3Text, rangeText(0), bandText(poolSize)}
	var err error
	m["query.compile_us"] = micros(timeMedian(fastProbeReps, func() {
		if _, e := mpsm.Compile(texts[tmplAgg2], cat); e != nil {
			err = e
		}
	}))
	engine := mpsm.New(mpsm.WithWorkers(nproc), mpsm.WithScratchPool(true), mpsm.WithAutoPlan(true))
	for t, text := range texts {
		plan, e := mpsm.Compile(text, cat)
		if e != nil {
			return fmt.Errorf("compiling %s: %w", templateNames[t], e)
		}
		m["exec.runplan_"+templateNames[t]+"_ms"] = millis(timeMedian(probeReps, func() {
			if _, e := engine.RunPlan(ctx, plan); e != nil {
				err = e
			}
		}))
	}
	if err != nil {
		return fmt.Errorf("query probe: %w", err)
	}
	return nil
}

// replay serves the workload's first requests in-process the way mpsmd's
// handlers do — decode, compile, Service.RunPlan or Service.Join, encode — and
// records each as a span tree: one span per public call, and under the
// service call one span per join phase as the returned Result reports them.
// The share of a request no leaf span accounts for is what only tracing
// inside the program could attribute.
func replay(ctx context.Context, w *workload, nproc int, rec *recorder) error {
	rels := make(mpsm.MapCatalog)
	for _, in := range w.inputs {
		rels[in.name] = freshRelation(in)
	}
	engine := mpsm.New(mpsm.WithWorkers(nproc), mpsm.WithScratchPool(true), mpsm.WithAutoPlan(true))
	svc := mpsm.NewService(engine)
	defer svc.Close() // no query is in flight once replay returns

	for i := 0; i < replayRequests; i++ {
		req := w.request(0, i)
		id := rec.nextRequest()
		root := rec.begin("request", noParent, id)
		serve := serveQuery
		if req.join != nil {
			serve = serveJoin
		}
		out, err := serve(ctx, svc, rels, req, rec, root, id)
		if err == nil {
			encode := rec.begin("response.encode", root, id)
			_, err = json.Marshal(out.answer)
			rec.end(encode)
		}
		rec.end(root)
		if err != nil {
			return fmt.Errorf("replaying request %d: %w", i, err)
		}
		rec.addPhases(out, id)
	}
	return nil
}

// served is what a replayed service call returned: its span, what the public
// results say about where its time went, and the answer a handler would encode.
type served struct {
	call   int
	scan   time.Duration
	joins  []*mpsm.Result
	answer any
}

// serveJoin mirrors mpsmd's handleJoin.
func serveJoin(ctx context.Context, svc *mpsm.Service, rels mpsm.MapCatalog, req *request, rec *recorder, root, id int) (served, error) {
	var body struct{ R, S, Algorithm string }
	if err := json.Unmarshal(req.body, &body); err != nil {
		return served{}, err
	}
	var qopts []mpsm.QueryOption
	if body.Algorithm != "" {
		alg, err := mpsm.ParseAlgorithm(body.Algorithm)
		if err != nil {
			return served{}, err
		}
		qopts = append(qopts, mpsm.WithQueryOptions(mpsm.WithAlgorithm(alg), mpsm.WithAutoPlan(false)))
	}
	call := rec.begin("service.join", root, id)
	res, err := svc.Join(ctx, rels[body.R], rels[body.S], qopts...)
	rec.end(call)
	if err != nil {
		return served{}, err
	}
	answer := joinResponse{Matches: res.Matches, MaxSum: res.MaxSum, Algorithm: res.Algorithm}
	return served{call: call, joins: []*mpsm.Result{res}, answer: answer}, nil
}

// serveQuery mirrors mpsmd's handleQuery.
func serveQuery(ctx context.Context, svc *mpsm.Service, rels mpsm.MapCatalog, req *request, rec *recorder, root, id int) (served, error) {
	var body struct{ Query string }
	if err := json.Unmarshal(req.body, &body); err != nil {
		return served{}, err
	}
	compile := rec.begin("query.compile", root, id)
	plan, err := mpsm.Compile(body.Query, rels)
	rec.end(compile)
	if err != nil {
		return served{}, err
	}
	call := rec.begin("service.runplan", root, id)
	pr, err := svc.RunPlan(ctx, plan)
	rec.end(call)
	if err != nil {
		return served{}, err
	}
	out := served{call: call, scan: pr.ScanTime}
	for _, j := range pr.Joins {
		out.joins = append(out.joins, j.Result)
	}
	tuples := pr.Output.Tuples
	if req.limit > 0 && len(tuples) > req.limit {
		tuples = tuples[:req.limit]
	}
	out.answer = queryResponse{Rows: pr.Output.Len(), Tuples: tuples}
	return out, nil
}

// addPhases hangs the scan time and the join phases a service call reported
// under its span. The public results carry durations, not timestamps, so the
// phases are laid end to end finishing where the call finished: planning and
// admission come before execution, not after it.
func (r *recorder) addPhases(out served, request int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	type piece struct {
		name string
		d    time.Duration
	}
	var pieces []piece
	if out.scan > 0 {
		pieces = append(pieces, piece{"exec.scan", out.scan})
	}
	for j, res := range out.joins {
		for _, ph := range res.Phases {
			pieces = append(pieces, piece{fmt.Sprintf("join%d.%s.%s", j, res.Algorithm, ph.Name), ph.Duration})
		}
	}
	end := r.spans[out.call].End
	for i := len(pieces) - 1; i >= 0; i-- {
		start := end - int64(pieces[i].d)
		r.spans = append(r.spans, span{Name: pieces[i].name, Start: start, End: end, Parent: out.call, Request: request})
		end = start
	}
}
