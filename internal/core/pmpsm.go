package core

import (
	"context"

	"repro/internal/batch"
	"repro/internal/memory"
	"repro/internal/numa"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/result"
	"repro/internal/sched"
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
//	         histograms on the R chunks in the read that finds R's key
//	         domain (2.2), compute load-balancing splitters and scatter R
//	         into per-worker range partitions via precomputed prefix sums —
//	         no synchronization, sequential writes only (2.3);
//	phase 3  sort each private range partition into a run, by first-digit
//	         counts summed from the phase 2 histograms;
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
// matcher), whatever the join kind or band. Where the join folds
// (Exec.Folds), phase 1 groups each public run whose sort word carries the
// payloads — one entry per key: its tuple count and largest payload — so
// phase 2.1's equi-height bounds, and with them the equi-cost splitters,
// weigh public entries, phase 4's unit of work. Phase 2 finds the private
// payloads' bound, and phase 3 sorts again raw a grouped public run whose
// payloads can carry against it.
//
// Cancellation is checked at every phase boundary and once per chunk inside
// the sort and merge loops; a canceled context aborts the join and returns
// ctx.Err().
func PMPSM(ctx context.Context, private, public *relation.Relation, opts Options) (*result.Result, error) {
	x, err := Begin(ctx, "P-MPSM", opts)
	if err != nil {
		return nil, err
	}
	defer x.Release()
	opts, lease := x.Opts, x.Lease
	workers := opts.Workers

	publicChunks := public.Split(workers)
	privateChunks := private.Split(workers)
	publicRuns := make([]*batch.Run, workers)
	privateRuns := make([]*batch.Run, workers)

	// Phase 1: sort the public input chunks into local runs.
	if err := x.Phase("phase 1", func(ctx context.Context, w *sched.Worker) {
		publicRuns[w.ID()] = sortChunkIntoColumnRun(publicChunks[w.ID()], chunkSourceNode(w.ID(), workers, opts.Topology), opts.PresortedPublic, x.Folds(), w, lease)
	}); err != nil {
		return nil, err
	}

	// Phase 2: range partition the private input. The partitioning itself is
	// row-oriented (it scatters the input chunks); the S CDF bounds are read
	// off the public runs' key columns.
	var partitions [][]relation.Tuple
	var counts []int
	var counted *partition.Counted
	if err := x.Record("phase 2", result.StopwatchPhase(func() {
		partitions, counts, counted = rangePartitionPrivate(ctx, x.RT, privateChunks, publicRuns, opts, lease)
	})); err != nil {
		return nil, err
	}

	// Phase 3: sort each private range partition into a run. Phase 2 found
	// the private key and payload bounds in its histogram scan and summed
	// each partition's first-digit counts from its histograms, so the sort
	// reads the partition — local memory, which phase 2 scattered to this
	// worker — sequentially once: the scatter moves keys and payloads into
	// the column run, where the rest of the sort's accesses, all of the
	// random ones, stay. The partition's row buffer goes back to the lease.
	// The worker's public run is sorted again raw if it is grouped and its
	// payloads can carry against the private ones.
	privBound := carryBound(x, counted.PayBound)
	if err := x.Phase("phase 3", func(ctx context.Context, w *sched.Worker) {
		part := partitions[w.ID()]
		run := batch.NewRun(w.ID(), w.Node(), len(part), lease)
		sorting.SortTuplesIntoColumnsWithBounds(part, run.Keys, run.Payloads, counted.MaxKey, counted.PayBound, counts[w.ID()*sorting.Digits:][:sorting.Digits], lease)
		lease.PutTuples(part)
		privateRuns[w.ID()] = run
		publicRuns[w.ID()] = ungroup(publicRuns[w.ID()], publicChunks[w.ID()], chunkSourceNode(w.ID(), workers, opts.Topology), privBound, w, lease)
		if tracker := w.Tracker(); tracker != nil {
			// The sort's share of partition.Accesses, which the equi-cost
			// splitters price.
			n := uint64(run.Len())
			tracker.SeqRead(run.Node, n)
			tracker.RandRead(run.Node, 2*n)
			tracker.RandWrite(run.Node, 2*n)
		}
	}); err != nil {
		return nil, err
	}

	// Phase 4: merge join every private run with the relevant fraction of
	// every public run, located via interpolation search on the run's key
	// range (widened by the band: a private tuple's partners form one window
	// of every public run).
	return match(ctx, x, "phase 4", privateRuns, publicRuns, true)
}

// rangePartitionPrivate implements phase 2 of P-MPSM: it returns one private
// partition (still unsorted) per worker, holding exactly the tuples of that
// worker's key range, each partition's counts of the phase 3 sort's first
// digit, and the private count, whose maximum key and payload OR are the
// bounds that sort packs its words by. On cancellation it returns early with
// whatever it has built; the caller checks ctx after the phase and discards
// the partial state. All parallel steps run as "phase 2" barriers on the
// shared runtime, so the per-worker breakdown accumulates them under one
// label. Histogram, cursor and partition buffers come from the join's scratch
// lease.
func rangePartitionPrivate(ctx context.Context, rt *sched.Runtime, privateChunks []relation.Chunk, publicRuns []*batch.Run, opts Options, lease *memory.Lease) (targets [][]relation.Tuple, counts []int, counted *partition.Counted) {
	workers := opts.Workers

	// Phase 2.1: per-run equi-height bounds merged into the global S CDF,
	// f·T of them per run with f = 4 (Section 4.1). The bounds are read off
	// the already-sorted public key columns, so this costs almost nothing.
	boundsPerRun := make([][]uint64, workers)
	runLens := make([]int, workers)
	rt.Phase(ctx, "phase 2", func(ctx context.Context, w *sched.Worker) {
		boundsPerRun[w.ID()] = partition.EquiHeightBoundsKeys(publicRuns[w.ID()].Keys, 4*workers)
		runLens[w.ID()] = publicRuns[w.ID()].Len()
	})
	if sched.Canceled(ctx) || rt.Err() != nil {
		return nil, nil, nil
	}
	cdf := partition.BuildCDF(boundsPerRun, runLens)

	// Phase 2.2: fine-grained radix histograms on the private chunks, in the
	// read that finds their key domain (partition.Count). Each count reads a
	// chunk sequentially from its source node; each scatter reads it again and
	// writes every target sub-partition sequentially on the target worker's
	// node (remote, but sequential — commandments C1/C2).
	counted = partition.Count(ctx, rt, "phase 2", histogramBits(workers), [][]relation.Chunk{privateChunks}, lease,
		func(t *numa.Tracker, w, _ int, written []int) {
			t.SeqRead(chunkSourceNode(w, workers, opts.Topology), uint64(privateChunks[w].Len()))
			for p, n := range written {
				t.SeqWrite(opts.Topology.NodeOfWorker(p), uint64(n))
			}
		})
	if counted == nil {
		return nil, nil, nil
	}

	// Phase 2.3: splitter computation, prefix sums, and the
	// synchronization-free scatter into precomputed sub-partitions.
	globalR := partition.CombineHistograms(counted.Hists[0])
	var sp partition.SplitterVector
	switch opts.Splitters {
	case SplitterUniform:
		sp = partition.UniformSplitters(counted.Config.Clusters(), workers)
	case SplitterEquiHeight:
		sp = partition.EquiHeightSplitters(globalR, workers)
	default:
		sp = partition.ComputeSplitters(globalR, cdf, counted.Config, workers)
	}

	// Phase 3's first digit, the top 8 bits of the maximum key, lies at or
	// above the 10 or more bits of the clusters, so partition p's digit
	// counts, counts[p*Digits:][:Digits], are its clusters' counts summed.
	// Only non-empty clusters are summed: below 2^8, the empty ones above the
	// maximum key would land past the last digit.
	counts = lease.Ints(workers * sorting.Digits)
	up := uint(sorting.DigitShift(counted.MaxKey)) - counted.Config.Shift
	for c, n := range globalR {
		if n > 0 {
			counts[sp[c]*sorting.Digits+c>>up] += n
		}
	}

	// Partition p is written on — and later sorted by — worker p's node.
	return counted.Scatter(ctx, sp, workers)[0], counts, counted
}
