package core

import (
	"context"

	"repro/internal/batch"
	"repro/internal/memory"
	"repro/internal/mergejoin"
	"repro/internal/relation"
	"repro/internal/sched"
	"repro/internal/sink"
	"repro/internal/sorting"
)

// The columnar batch execution path: inner joins on B-MPSM and P-MPSM
// generate their runs in structure-of-arrays form (sorted key column plus
// permuted payload column, packed radix sort) and the match phase scans
// contiguous key columns with the range-emitting kernel of
// internal/mergejoin. Band joins always run here — a band is one more
// parameter of that kernel — and equi-joins do unless Options.BatchSize is
// negative, which keeps them on the row-at-a-time path as the
// differential-testing oracle. Non-inner kinds and D-MPSM are row-only.

// columnarEligible reports whether the join runs on the columnar batch path.
func columnarEligible(opts Options) bool {
	return opts.Kind == mergejoin.Inner && (opts.Band > 0 || batch.Size(opts.BatchSize) > 0)
}

// sortChunkIntoColumnRun is sortChunkIntoRun for the columnar path: one
// sequential read of the array-of-structs chunk feeds the fused
// deinterleave-plus-first-radix-digit scatter of SortTuplesIntoColumns, so the
// AoS→SoA representation change costs no separate pass. The sort leases a
// permutation column only if the keys are too wide to pack.
func sortChunkIntoColumnRun(chunk relation.Chunk, srcNode int, presorted bool, w *sched.Worker, lease *memory.Lease) *batch.Run {
	n := len(chunk.Tuples)
	run := batch.NewRun(w.ID(), w.Node(), n, lease)
	skippedSort := presorted && relation.IsSortedByKey(chunk.Tuples)
	if skippedSort {
		batch.Deinterleave(chunk.Tuples, run.Keys, run.Payloads)
	} else {
		sorting.SortTuplesIntoColumns(chunk.Tuples, run.Keys, run.Payloads, lease)
	}

	if tracker := w.Tracker(); tracker != nil {
		un := uint64(n)
		// Same accounting as the row path: the representation does not change
		// how many bytes move, only how densely the key accesses pack them.
		tracker.SeqRead(srcNode, un)
		tracker.SeqWrite(run.Node, un)
		if !skippedSort {
			tracker.RandRead(run.Node, 2*un)
			tracker.RandWrite(run.Node, 2*un)
		}
	}
	return run
}

// workerScratches leases one kernel scratch per worker for the match phase.
// Scratches are per-worker, not per-task: a worker executes one morsel at a
// time, so its scratch is never shared.
func workerScratches(workers, size int, lease *memory.Lease) []*batch.Scratch {
	scratches := make([]*batch.Scratch, workers)
	for w := range scratches {
		scratches[w] = batch.NewScratch(size, lease)
	}
	return scratches
}

// closeScratches hands every worker scratch back to the lease.
func closeScratches(scratches []*batch.Scratch) {
	for _, sc := range scratches {
		sc.Close()
	}
}

// columnMatchTasks is matchTasks for the columnar path (inner equi- and band
// joins): every private column run is cut into segments of at most
// opts.MorselSize tuples, and each (segment, public-run) pair becomes one
// stealable task running the columnar kernel behind its skip search, which
// enters the public run at the segment's window however far into the run
// that is.
func columnMatchTasks(ctx context.Context, privateRuns, publicRuns []*batch.Run, scanned []int, out *sink.Bound, opts Options, scratches []*batch.Scratch) []sched.Task {
	var tasks []sched.Task
	for _, priv := range privateRuns {
		priv := priv
		node := priv.Node
		sched.ForEachSegment(priv.Len(), opts.MorselSize, func(lo, hi int) {
			segKeys := priv.Keys[lo:hi]
			segPays := priv.Payloads[lo:hi]
			for _, pub := range publicRuns {
				pub := pub
				tasks = append(tasks, sched.Task{Node: node, Run: func(w *sched.Worker) {
					if canceled(ctx) {
						return
					}
					n := mergejoin.JoinColumnsWithSkip(segKeys, segPays, pub.Keys, pub.Payloads, opts.Band, out.Writer(w.ID()), scratches[w.ID()])
					scanned[w.ID()] += n
					if tracker := w.Tracker(); tracker != nil {
						tracker.SeqRead(node, uint64(len(segKeys)))
						tracker.SeqRead(pub.Node, uint64(n))
					}
				}})
			}
		})
	}
	return tasks
}
