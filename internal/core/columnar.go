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

// The columnar batch execution path: when an inner equi-join runs with
// Options.BatchSize >= 0, B-MPSM and P-MPSM generate their runs in
// structure-of-arrays form (sorted key column plus permuted payload column)
// and the match phase scans contiguous key columns with the prefetched,
// batch-emitting kernels of internal/mergejoin. Band joins, non-inner kinds
// and D-MPSM keep the row-at-a-time path, which also stays around as the
// differential-testing oracle.

// columnarEligible reports whether the join should run on the columnar batch
// path: inner equi-join semantics and a non-negative BatchSize.
func columnarEligible(opts Options) bool {
	return opts.Kind == mergejoin.Inner && opts.Band == 0 && batch.Size(opts.BatchSize) > 0
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

// columnMatchTasks is matchTasks for the columnar path (inner equi-joins
// only): every private column run is cut into segments of at most
// opts.MorselSize tuples, and each (segment, public-run) pair becomes one
// stealable task running the prefetched columnar kernel with the skip search.
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
					n := mergejoin.JoinColumnsWithSkip(segKeys, segPays, pub.Keys, pub.Payloads, out.Writer(w.ID()), scratches[w.ID()])
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
