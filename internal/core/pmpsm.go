package core

import (
	"context"
	"time"

	"repro/internal/batch"
	"repro/internal/memory"
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
// Public runs and — from phase 3 on — private runs are sorted key/payload
// column pairs, and phase 4 is the match phase P-MPSM shares with B-MPSM (see
// matcher), whatever the join kind or band.
//
// Cancellation is checked at every phase boundary and once per chunk inside
// the sort and merge loops; a canceled context aborts the join and returns
// ctx.Err().
func PMPSM(ctx context.Context, private, public *relation.Relation, opts Options) (*result.Result, error) {
	opts = opts.Normalize()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	workers := opts.Workers
	res := &result.Result{Algorithm: "P-MPSM", Workers: workers}
	rt := RuntimeFor(opts)
	lease := LeaseFor(opts)
	defer lease.Release()
	start := time.Now()

	publicChunks := public.Split(workers)
	privateChunks := private.Split(workers)
	publicRuns := make([]*batch.Run, workers)
	privateRuns := make([]*batch.Run, workers)

	// Phase 1: sort the public input chunks into local runs.
	phase1 := rt.Phase(ctx, "phase 1", func(ctx context.Context, w *sched.Worker) {
		publicRuns[w.ID()] = sortChunkIntoColumnRun(publicChunks[w.ID()], chunkSourceNode(w.ID(), workers, opts.Topology), opts.PresortedPublic, w, lease)
	})
	res.AddPhase("phase 1", phase1)
	if err := Checkpoint(ctx, rt, lease); err != nil {
		return nil, err
	}

	// Phase 2: range partition the private input. The partitioning itself is
	// row-oriented (it scatters the input chunks); the S CDF bounds are read
	// off the public runs' key columns.
	var partitions [][]relation.Tuple
	var privateMaxKey uint64
	phase2 := result.StopwatchPhase(func() {
		partitions, privateMaxKey = rangePartitionPrivate(ctx, rt, privateChunks, publicRuns, opts, lease)
	})
	res.AddPhase("phase 2", phase2)
	if err := Checkpoint(ctx, rt, lease); err != nil {
		return nil, err
	}

	// Phase 3: sort each private range partition into a run. Phase 2 already
	// determined the global maximum private key for its radix histograms, so
	// the sort reads the partition — local memory, which phase 2 scattered to
	// this worker — sequentially twice (histogram, scatter) and not again:
	// the scatter moves keys and payloads into the column run, where the rest
	// of the sort's accesses, all of the random ones, stay. The partition's
	// row buffer goes back to the lease.
	phase3 := rt.Phase(ctx, "phase 3", func(ctx context.Context, w *sched.Worker) {
		part := partitions[w.ID()]
		run := batch.NewRun(w.ID(), w.Node(), len(part), lease)
		sorting.SortTuplesIntoColumnsWithMax(part, run.Keys, run.Payloads, privateMaxKey, lease)
		lease.PutTuples(part)
		privateRuns[w.ID()] = run
		if tracker := w.Tracker(); tracker != nil {
			n := uint64(run.Len())
			tracker.SeqRead(run.Node, 2*n)
			tracker.RandRead(run.Node, 2*n)
			tracker.RandWrite(run.Node, 2*n)
		}
	})
	res.AddPhase("phase 3", phase3)
	if err := Checkpoint(ctx, rt, lease); err != nil {
		return nil, err
	}

	// Phase 4: merge join every private run with the relevant fraction of
	// every public run, located via interpolation search on the run's key
	// range (widened by the band: a private tuple's partners form one window
	// of every public run).
	match := &matcher{
		private: privateRuns, public: publicRuns,
		out:     sink.BindChecked(opts.Sink, workers, lease, opts.KeyCheck),
		scanned: make([]int, workers), opts: opts, lease: lease,
		skip: true,
	}
	res.AddPhase("phase 4", match.run(ctx, rt, "phase 4"))
	if err := match.finish(ctx, res, rt, []string{"phase 1", "phase 2", "phase 3", "phase 4"}, start); err != nil {
		return nil, err
	}
	return res, nil
}

// rangePartitionPrivate implements phase 2 of P-MPSM: it returns one private
// partition (still unsorted) per worker, holding exactly the tuples of that
// worker's key range, together with the maximum private key (determined for
// the radix histograms and reused by the phase 3 sort). On cancellation it
// returns early with whatever it has built; the caller checks ctx after the
// phase and discards the partial state. All parallel steps run as "phase 2"
// barriers on the shared runtime, so the per-worker breakdown accumulates them
// under one label. Histogram, cursor and partition buffers come from the
// join's scratch lease.
func rangePartitionPrivate(ctx context.Context, rt *sched.Runtime, privateChunks []relation.Chunk, publicRuns []*batch.Run, opts Options, lease *memory.Lease) ([][]relation.Tuple, uint64) {
	workers := opts.Workers

	// Phase 2.1: per-run equi-height bounds merged into the global S CDF.
	// The bounds are read off the already-sorted public key columns, so this
	// costs almost nothing.
	boundsPerRun := make([][]uint64, workers)
	runLens := make([]int, workers)
	rt.Phase(ctx, "phase 2", func(ctx context.Context, w *sched.Worker) {
		boundsPerRun[w.ID()] = partition.EquiHeightBoundsKeys(publicRuns[w.ID()].Keys, opts.CDFBoundsPerRun)
		runLens[w.ID()] = publicRuns[w.ID()].Len()
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

	// Partition p is written on — and later sorted by — worker p's node.
	targets := make([][]relation.Tuple, workers)
	for p := 0; p < workers; p++ {
		targets[p] = lease.Tuples(ps.Sizes[p])
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
				tracker.SeqWrite(opts.Topology.NodeOfWorker(p), uint64(cursors[p]-before[p]))
			}
		}
		lease.PutInts(cursors)
		lease.PutInts(before)
	})
	return targets, maxKey
}
