package core

import (
	"context"
	"time"

	"repro/internal/batch"
	"repro/internal/mergejoin"
	"repro/internal/relation"
	"repro/internal/result"
	"repro/internal/sched"
	"repro/internal/sink"
)

// BMPSM executes the basic massively parallel sort-merge join (Section 2.1).
//
// The private input R and the public input S are each chunked into T equally
// sized chunks. Phase 1 sorts the public chunks into runs S1..ST, phase 2
// sorts the private chunks into runs R1..RT (both phases work purely on
// worker-local memory), and phase 3 merge joins every private run against
// every public run, streaming matches into the sink. No range partitioning
// takes place, so every worker scans the complete public input — which makes
// B-MPSM absolutely insensitive to skew at the price of O(|S|) join work per
// worker.
//
// With Options.Scheduler == sched.Morsel, phase 3 runs as stolen
// (private-segment, public-run) morsels instead of one static loop per
// worker; results are identical, but per-worker load follows demand rather
// than ownership (and the segment-level interpolation skip means
// PublicScanned reports tuples actually scanned rather than T·|S|).
//
// Inner joins run on the columnar batch path (band joins always, equi-joins
// unless Options.BatchSize is negative): runs are sorted key/payload column
// pairs and phase 3 scans contiguous key columns with the range-emitting
// kernel. Results are pair-for-pair identical to the row path.
//
// Cancellation is checked at phase boundaries and per chunk inside the sort
// and merge loops; a canceled context aborts the join and returns ctx.Err().
func BMPSM(ctx context.Context, private, public *relation.Relation, opts Options) (*result.Result, error) {
	opts = opts.normalize()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	workers := opts.Workers
	res := &result.Result{Algorithm: "B-MPSM", Workers: workers}
	rt := runtimeFor(opts)
	lease := leaseFor(opts)
	defer lease.Release()
	start := time.Now()

	publicChunks := public.Split(workers)
	privateChunks := private.Split(workers)
	publicRuns := make([]*relation.Run, workers)
	privateRuns := make([]*relation.Run, workers)

	// The columnar batch path covers inner joins: runs are generated as
	// sorted key/payload column pairs and the match phase scans contiguous key
	// columns. Non-inner kinds run on the row-at-a-time path.
	columnar := columnarEligible(opts)
	var colPublic, colPrivate []*batch.Run
	if columnar {
		colPublic = make([]*batch.Run, workers)
		colPrivate = make([]*batch.Run, workers)
	}

	// Phase 1: sort the public input chunks into runs, locally per worker.
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

	// Phase 2: sort the private input chunks into runs, locally per worker.
	phase2 := rt.Phase(ctx, "phase 2", func(ctx context.Context, w *sched.Worker) {
		if columnar {
			colPrivate[w.ID()] = sortChunkIntoColumnRun(privateChunks[w.ID()], chunkSourceNode(w.ID(), workers, opts.Topology), opts.PresortedPrivate, w, lease)
		} else {
			privateRuns[w.ID()] = sortChunkIntoRun(privateChunks[w.ID()], chunkSourceNode(w.ID(), workers, opts.Topology), opts.PresortedPrivate, w, lease)
		}
	})
	res.AddPhase("phase 2", phase2)
	if err := checkpoint(ctx, rt, lease); err != nil {
		return nil, err
	}

	// Phase 3: every worker merge joins its private run against all public
	// runs. Remote runs are only read sequentially (commandment C2); the
	// single synchronization point required by the algorithm — all public
	// runs must be sorted before the join starts — is the phase barrier
	// above. In morsel mode the same pairings run as stolen tasks instead.
	out := sink.BindChecked(opts.Sink, workers, lease, opts.KeyCheck)
	scanned := make([]int, workers)
	var phase3 time.Duration
	switch {
	case columnar && opts.Scheduler == sched.Morsel:
		scratches := workerScratches(workers, opts.BatchSize, lease)
		phase3 = rt.RunTasks(ctx, "phase 3", columnMatchTasks(ctx, colPrivate, colPublic, scanned, out, opts, scratches))
		closeScratches(scratches)
	case columnar:
		phase3 = rt.Phase(ctx, "phase 3", func(ctx context.Context, w *sched.Worker) {
			priv := colPrivate[w.ID()]
			cons := out.Writer(w.ID())
			tracker := w.Tracker()
			sc := batch.NewScratch(opts.BatchSize, lease)
			defer sc.Close()
			// Like the row-path static mode, every public run is scanned in
			// full — B-MPSM's defining O(|S|) per-worker join work.
			for _, pub := range colPublic {
				if canceled(ctx) {
					return
				}
				mergejoin.JoinColumnsBand(priv.Keys, priv.Payloads, pub.Keys, pub.Payloads, opts.Band, cons, sc)
				scanned[w.ID()] += pub.Len()
				if tracker != nil {
					tracker.SeqRead(priv.Node, uint64(priv.Len()))
					tracker.SeqRead(pub.Node, uint64(pub.Len()))
				}
			}
		})
	case opts.Scheduler == sched.Morsel:
		phase3 = rt.RunTasks(ctx, "phase 3", matchTasks(ctx, privateRuns, publicRuns, scanned, out, opts))
	default:
		phase3 = rt.Phase(ctx, "phase 3", func(ctx context.Context, w *sched.Worker) {
			priv := privateRuns[w.ID()]
			cons := out.Writer(w.ID())
			tracker := w.Tracker()
			if opts.Kind == mergejoin.Inner {
				for _, pub := range publicRuns {
					if canceled(ctx) {
						return
					}
					mergejoin.Join(priv.Tuples, pub.Tuples, cons)
					scanned[w.ID()] += len(pub.Tuples)
					if tracker != nil {
						// The private run is re-scanned once per public run
						// (locally); the public run is scanned sequentially
						// on whichever node it lives.
						tracker.SeqRead(priv.Node, uint64(len(priv.Tuples)))
						tracker.SeqRead(pub.Node, uint64(len(pub.Tuples)))
					}
				}
			} else {
				scanned[w.ID()] += mergejoin.JoinRunsKindCtx(ctx, opts.Kind, priv.Tuples, publicRuns, cons)
				if tracker != nil {
					tracker.SeqRead(priv.Node, uint64(len(priv.Tuples))*uint64(len(publicRuns)))
					for _, pub := range publicRuns {
						tracker.SeqRead(pub.Node, uint64(len(pub.Tuples)))
					}
				}
			}
		})
	}
	res.AddPhase("phase 3", phase3)
	// Close runs even on cancellation (the sink lifecycle promises it); the
	// context error still wins as the join's outcome.
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
		res.PerWorker = rt.Breakdowns([]string{"phase 1", "phase 2", "phase 3"})
		for w := range res.PerWorker {
			if columnar {
				res.PerWorker[w].PrivateTuples = colPrivate[w].Len()
			} else {
				res.PerWorker[w].PrivateTuples = privateRuns[w].Len()
			}
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
