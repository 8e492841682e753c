package core

import (
	"context"
	"time"

	"repro/internal/batch"
	"repro/internal/memory"
	"repro/internal/mergejoin"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/result"
	"repro/internal/sched"
	"repro/internal/sink"
	"repro/internal/sorting"
)

// PMPSM executes the range-partitioned massively parallel sort-merge join
// (Sections 3.2 and 4), the paper's main in-memory contribution.
//
// Phases (Figure 5):
//
//	phase 1  chunk the public input S and sort the chunks into local runs;
//	phase 2  range partition the private input R: build the global S CDF from
//	         per-run equi-height histograms (2.1), build fine-grained radix
//	         histograms on the R chunks (2.2), compute load-balancing
//	         splitters and scatter R into per-worker range partitions via
//	         precomputed prefix sums — no synchronization, sequential writes
//	         only (2.3);
//	phase 3  sort each private range partition into a run;
//	phase 4  every worker merge joins its private run with the relevant,
//	         interpolation-searched fraction of every public run, streaming
//	         every matching pair into the configured sink.
//
// The private input should be the smaller relation; see the role-reversal
// experiment (Section 5.4).
//
// With Options.Scheduler == sched.Morsel, phase 4 runs as stolen
// (private-segment, public-run) morsels: when the splitters misjudge the
// distribution (estimation error, value skew), the overloaded worker's run
// is processed by whoever is idle, with a preference for NUMA-local morsels.
// Results are identical to the static mode.
//
// Cancellation is checked at every phase boundary and once per chunk inside
// the sort and merge loops; a canceled context aborts the join and returns
// ctx.Err().
func PMPSM(ctx context.Context, private, public *relation.Relation, opts Options) (*result.Result, error) {
	opts = opts.normalize()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	workers := opts.Workers
	res := &result.Result{Algorithm: "P-MPSM", Workers: workers}
	rt := runtimeFor(opts)
	lease := leaseFor(opts)
	defer lease.Release()
	start := time.Now()

	publicChunks := public.Split(workers)
	privateChunks := private.Split(workers)
	publicRuns := make([]*relation.Run, workers)

	// The columnar batch path covers inner joins; see columnar.go.
	columnar := columnarEligible(opts)
	var colPublic, colPrivate []*batch.Run
	if columnar {
		colPublic = make([]*batch.Run, workers)
		colPrivate = make([]*batch.Run, workers)
	}

	// Phase 1: sort the public input chunks into local runs.
	phase1 := rt.Phase(ctx, "phase 1", func(ctx context.Context, w *sched.Worker) {
		if columnar {
			colPublic[w.ID()] = sortChunkIntoColumnRun(publicChunks[w.ID()], chunkSourceNode(w.ID(), workers, opts.Topology), opts.PresortedPublic, w, lease)
		} else {
			publicRuns[w.ID()] = sortChunkIntoRun(publicChunks[w.ID()], chunkSourceNode(w.ID(), workers, opts.Topology), opts.PresortedPublic, w, lease)
		}
	})
	res.AddPhase("phase 1", phase1)
	if err := checkpoint(ctx, rt, lease); err != nil {
		return nil, err
	}

	// Phase 2: range partition the private input. The partitioning itself is
	// row-oriented either way (it scatters the input chunks); only the S CDF
	// bounds are read off whichever public-run representation phase 1 built.
	var privateRuns []*relation.Run
	var privateMaxKey uint64
	phase2 := result.StopwatchPhase(func() {
		privateRuns, privateMaxKey = rangePartitionPrivate(ctx, rt, privateChunks, publicRuns, colPublic, opts, lease)
	})
	res.AddPhase("phase 2", phase2)
	if err := checkpoint(ctx, rt, lease); err != nil {
		return nil, err
	}

	// Phase 3: sort each private range partition into a run. Phase 2 already
	// determined the global maximum private key for its radix histograms, so
	// neither sort scans the key domain again. On the columnar path the sort
	// doubles as the AoS→SoA conversion: the scattered partition sorts
	// directly into a column run and its row buffer goes back to the lease.
	phase3 := rt.Phase(ctx, "phase 3", func(ctx context.Context, w *sched.Worker) {
		run := privateRuns[w.ID()]
		if columnar {
			n := len(run.Tuples)
			col := batch.NewRun(run.Worker, run.Node, n, lease)
			sorting.SortTuplesIntoColumnsWithMax(run.Tuples, col.Keys, col.Payloads, privateMaxKey, lease)
			lease.PutTuples(run.Tuples)
			colPrivate[w.ID()] = col
		} else {
			sorting.SortWithMax(run.Tuples, privateMaxKey)
		}
		if tracker := w.Tracker(); tracker != nil {
			n := uint64(len(run.Tuples))
			tracker.RandRead(run.Node, 2*n)
			tracker.RandWrite(run.Node, 2*n)
		}
	})
	res.AddPhase("phase 3", phase3)
	if err := checkpoint(ctx, rt, lease); err != nil {
		return nil, err
	}

	// Phase 4: merge join every private run with the relevant fraction of
	// every public run, located via interpolation search. Matching pairs
	// stream into the sink through per-worker writers (no synchronization).
	// In morsel mode the same work runs as stolen segment morsels instead.
	out := sink.BindChecked(opts.Sink, workers, lease, opts.KeyCheck)
	scanned := make([]int, workers)
	var phase4 time.Duration
	switch {
	case columnar && opts.Scheduler == sched.Morsel:
		scratches := workerScratches(workers, opts.BatchSize, lease)
		phase4 = rt.RunTasks(ctx, "phase 4", columnMatchTasks(ctx, colPrivate, colPublic, scanned, out, opts, scratches))
		closeScratches(scratches)
	case columnar:
		phase4 = rt.Phase(ctx, "phase 4", func(ctx context.Context, w *sched.Worker) {
			priv := colPrivate[w.ID()]
			cons := out.Writer(w.ID())
			tracker := w.Tracker()
			sc := batch.NewScratch(opts.BatchSize, lease)
			defer sc.Close()
			// Like the row-path static mode, the interpolation-search skip
			// bounds each public scan to the private run's key range (widened
			// by the band: a private tuple's partners form one window of
			// every public run).
			for _, pub := range colPublic {
				if canceled(ctx) {
					return
				}
				n := mergejoin.JoinColumnsWithSkip(priv.Keys, priv.Payloads, pub.Keys, pub.Payloads, opts.Band, cons, sc)
				scanned[w.ID()] += n
				if tracker != nil {
					tracker.SeqRead(priv.Node, uint64(priv.Len()))
					tracker.SeqRead(pub.Node, uint64(n))
				}
			}
		})
	case opts.Scheduler == sched.Morsel:
		phase4 = rt.RunTasks(ctx, "phase 4", matchTasks(ctx, privateRuns, publicRuns, scanned, out, opts))
	default:
		phase4 = rt.Phase(ctx, "phase 4", func(ctx context.Context, w *sched.Worker) {
			priv := privateRuns[w.ID()]
			cons := out.Writer(w.ID())
			tracker := w.Tracker()
			if opts.Kind == mergejoin.Inner {
				for _, pub := range publicRuns {
					if canceled(ctx) {
						return
					}
					n := mergejoin.JoinWithSkip(priv.Tuples, pub.Tuples, cons)
					scanned[w.ID()] += n
					if tracker != nil {
						tracker.SeqRead(priv.Node, uint64(len(priv.Tuples)))
						tracker.SeqRead(pub.Node, uint64(n))
					}
				}
			} else {
				// Non-inner kinds track per-tuple match state across all
				// public runs, so the kernel owns the whole loop. The NUMA
				// accounting approximates the public scans as evenly spread
				// over the runs.
				n := mergejoin.JoinRunsKindCtx(ctx, opts.Kind, priv.Tuples, publicRuns, cons)
				scanned[w.ID()] += n
				if tracker != nil {
					tracker.SeqRead(priv.Node, uint64(len(priv.Tuples))*uint64(len(publicRuns)))
					for _, pub := range publicRuns {
						tracker.SeqRead(pub.Node, uint64(n/len(publicRuns)))
					}
				}
			}
		})
	}
	res.AddPhase("phase 4", phase4)
	// Close runs even on cancellation: the sink was opened and its writers
	// consumed tuples, so it must learn the execution ended. The context
	// error still wins as the join's outcome.
	closeErr := out.Close()
	if err := checkpoint(ctx, rt, lease); err != nil {
		return nil, err
	}
	if closeErr != nil {
		return nil, closeErr
	}

	for w := 0; w < workers; w++ {
		res.PublicScanned += scanned[w]
	}
	res.Matches = out.Matches()
	res.MaxSum = out.MaxSum()
	res.Batch.Batches, res.Batch.Tuples = out.Batches()
	res.Total = time.Since(start)
	if opts.CollectPerWorker {
		res.PerWorker = rt.Breakdowns([]string{"phase 1", "phase 2", "phase 3", "phase 4"})
		for w := range res.PerWorker {
			res.PerWorker[w].PrivateTuples = privateRuns[w].Len()
			res.PerWorker[w].PublicScanned = scanned[w]
			res.PerWorker[w].Matches = out.WorkerMatches(w)
		}
	}
	if opts.TrackNUMA {
		res.NUMA = rt.NUMAStats()
		res.SimulatedNUMACost = opts.CostModel.Estimate(res.NUMA)
	}
	res.Scratch = lease.Stats()
	return res, nil
}

// rangePartitionPrivate implements phase 2 of P-MPSM: it returns one private
// run (still unsorted) per worker, holding exactly the tuples of that worker's
// key range, together with the maximum private key (determined for the radix
// histograms and reused by the phase 3 sort). On cancellation it returns
// early with whatever it has built; the caller checks ctx after the phase and
// discards the partial state. All parallel steps run as "phase 2" barriers on
// the shared runtime, so the per-worker breakdown accumulates them under one
// label. Histogram, cursor and run buffers come from the join's scratch
// lease.
func rangePartitionPrivate(ctx context.Context, rt *sched.Runtime, privateChunks []relation.Chunk, publicRuns []*relation.Run, colPublic []*batch.Run, opts Options, lease *memory.Lease) ([]*relation.Run, uint64) {
	workers := opts.Workers

	// Phase 2.1: per-run equi-height bounds merged into the global S CDF.
	// The bounds are read off the already-sorted public runs — row or
	// columnar, whichever representation phase 1 built — so this costs
	// almost nothing.
	boundsPerRun := make([][]uint64, workers)
	runLens := make([]int, workers)
	rt.Phase(ctx, "phase 2", func(ctx context.Context, w *sched.Worker) {
		if colPublic != nil {
			boundsPerRun[w.ID()] = partition.EquiHeightBoundsKeys(colPublic[w.ID()].Keys, opts.CDFBoundsPerRun)
			runLens[w.ID()] = colPublic[w.ID()].Len()
		} else {
			boundsPerRun[w.ID()] = partition.EquiHeightBounds(publicRuns[w.ID()].Tuples, opts.CDFBoundsPerRun)
			runLens[w.ID()] = publicRuns[w.ID()].Len()
		}
	})
	if canceled(ctx) || rt.Err() != nil {
		return nil, 0
	}
	cdf := partition.BuildCDF(boundsPerRun, runLens)

	// Phase 2.2: fine-grained radix histograms on the private chunks. Each
	// worker also determines the maximum key of its chunk so that the radix
	// configuration can be derived without a separate pass.
	chunkMax := make([]uint64, workers)
	rt.Phase(ctx, "phase 2", func(ctx context.Context, w *sched.Worker) {
		var localMax uint64
		for _, t := range privateChunks[w.ID()].Tuples {
			if t.Key > localMax {
				localMax = t.Key
			}
		}
		chunkMax[w.ID()] = localMax
		if tracker := w.Tracker(); tracker != nil {
			tracker.SeqRead(chunkSourceNode(w.ID(), workers, opts.Topology), uint64(len(privateChunks[w.ID()].Tuples)))
		}
	})
	if canceled(ctx) || rt.Err() != nil {
		return nil, 0
	}
	var maxKey uint64
	for _, m := range chunkMax {
		if m > maxKey {
			maxKey = m
		}
	}
	cfg := partition.NewRadixConfig(opts.HistogramBits, maxKey)

	histograms := make([]partition.Histogram, workers)
	rt.Phase(ctx, "phase 2", func(ctx context.Context, w *sched.Worker) {
		histograms[w.ID()] = partition.BuildHistogramInto(lease.Ints(cfg.Clusters()), privateChunks[w.ID()].Tuples, cfg)
		if tracker := w.Tracker(); tracker != nil {
			tracker.SeqRead(chunkSourceNode(w.ID(), workers, opts.Topology), uint64(len(privateChunks[w.ID()].Tuples)))
		}
	})
	if canceled(ctx) || rt.Err() != nil {
		return nil, 0
	}

	// Phase 2.3: splitter computation, prefix sums, and the
	// synchronization-free scatter into precomputed sub-partitions.
	globalR := partition.CombineHistograms(histograms)
	var sp partition.SplitterVector
	switch opts.Splitters {
	case SplitterUniform:
		sp = partition.UniformSplitters(cfg.Clusters(), workers)
	case SplitterEquiHeight:
		sp = partition.EquiHeightSplitters(globalR, workers)
	default:
		sp = partition.ComputeSplitters(globalR, cdf, cfg, partition.DefaultSplitterCost(workers))
	}
	ps := partition.ComputePrefixSums(histograms, sp, workers)

	privateRuns := make([]*relation.Run, workers)
	for p := 0; p < workers; p++ {
		privateRuns[p] = &relation.Run{
			Worker: p,
			Node:   opts.Topology.NodeOfWorker(p),
			Tuples: lease.Tuples(ps.Sizes[p]),
		}
	}
	targets := make([][]relation.Tuple, workers)
	for p := 0; p < workers; p++ {
		targets[p] = privateRuns[p].Tuples
	}

	rt.Phase(ctx, "phase 2", func(ctx context.Context, w *sched.Worker) {
		cursors := lease.Ints(workers)
		copy(cursors, ps.Offsets[w.ID()])
		before := lease.Ints(workers)
		copy(before, cursors)
		partition.Scatter(privateChunks[w.ID()].Tuples, cfg, sp, targets, cursors)
		if tracker := w.Tracker(); tracker != nil {
			// The chunk is read sequentially from its source node; every
			// target sub-partition is written sequentially on the target
			// worker's node (remote, but sequential — commandments C1/C2).
			tracker.SeqRead(chunkSourceNode(w.ID(), workers, opts.Topology), uint64(len(privateChunks[w.ID()].Tuples)))
			for p := 0; p < workers; p++ {
				tracker.SeqWrite(privateRuns[p].Node, uint64(cursors[p]-before[p]))
			}
		}
		lease.PutInts(cursors)
		lease.PutInts(before)
	})
	return privateRuns, maxKey
}
