package core

import (
	"context"

	"repro/internal/mergejoin"
	"repro/internal/relation"
	"repro/internal/sched"
	"repro/internal/sink"
)

// matchTasks builds the morsel task list of the row-path match phase shared
// by B-MPSM (phase 3) and P-MPSM (phase 4): every private run is cut into
// segments of at most opts.MorselSize tuples, and each segment becomes one or
// more independent tasks that any worker may steal. A task prefers the NUMA
// node its private run lives on. (Band joins never get here: they run on
// column runs, see columnMatchTasks.)
//
// The segmentation is correct for every join flavour because all of them have
// per-private-tuple semantics:
//
//   - inner equi-joins pair a segment with a single public run; the
//     interpolation-search skip bounds the scan to the segment's key range,
//   - the non-inner kinds (left-outer, semi, anti) track per-tuple match
//     state across all public runs, so one task joins a segment against
//     every public run, keeping the matched bitmap task-local.
//
// Tasks stream into the stealing worker's sink writer and work counters, so
// no synchronization is needed beyond the queue itself.
func matchTasks(ctx context.Context, privateRuns, publicRuns []*relation.Run, scanned []int, out *sink.Bound, opts Options) []sched.Task {
	var tasks []sched.Task
	for _, priv := range privateRuns {
		node := priv.Node
		tuples := priv.Tuples
		sched.ForEachSegment(len(tuples), opts.MorselSize, func(lo, hi int) {
			seg := tuples[lo:hi]
			if opts.Kind == mergejoin.Inner {
				for _, pub := range publicRuns {
					pub := pub
					tasks = append(tasks, sched.Task{Node: node, Run: func(w *sched.Worker) {
						n := mergejoin.JoinWithSkip(seg, pub.Tuples, out.Writer(w.ID()))
						scanned[w.ID()] += n
						if tracker := w.Tracker(); tracker != nil {
							tracker.SeqRead(node, uint64(len(seg)))
							tracker.SeqRead(pub.Node, uint64(n))
						}
					}})
				}
				return
			}
			// publicRuns always holds one run per worker (possibly
			// empty), so the task list is never starved of the final
			// unmatched-emission pass the non-inner kinds need.
			tasks = append(tasks, sched.Task{Node: node, Run: func(w *sched.Worker) {
				n := mergejoin.JoinRunsKindCtx(ctx, opts.Kind, seg, publicRuns, out.Writer(w.ID()))
				scanned[w.ID()] += n
				if tracker := w.Tracker(); tracker != nil {
					// The segment is re-scanned once per public run; the
					// public scans are approximated as evenly spread.
					tracker.SeqRead(node, uint64(len(seg))*uint64(len(publicRuns)))
					for _, pub := range publicRuns {
						tracker.SeqRead(pub.Node, uint64(n/len(publicRuns)))
					}
				}
			}})
		})
	}
	return tasks
}
