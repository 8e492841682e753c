package core

import (
	"context"
	"time"

	"repro/internal/batch"
	"repro/internal/memory"
	"repro/internal/mergejoin"
	"repro/internal/relation"
	"repro/internal/result"
	"repro/internal/sched"
	"repro/internal/sink"
	"repro/internal/sorting"
)

// Run generation and the match phase of B-MPSM and P-MPSM. Both algorithms
// know one run representation — batch.Run, a sorted key column with its
// payload column permuted alongside (packed radix sort) — and one match
// phase over it, for every join kind: the range-emitting kernel of
// internal/mergejoin scans contiguous key columns, a band is one more
// parameter of that kernel, and the outer, semi and anti kinds are a
// mergejoin.Marker between the kernel and the sink writer. D-MPSM pages
// []Tuple runs through the simulated disk and is the one algorithm of this
// package on the row kernels.

// sortChunkIntoColumnRun sorts one chunk of the input relation into a
// worker-local column run whose buffers come from the join's scratch lease
// (or fresh allocations when pooling is off). The redistribution into
// NUMA-local memory the paper prescribes ("chunk the data, redistribute, and
// then sort/work on your data locally") is fused with the sort, and the source
// chunk — possibly a neighbour's memory — is only ever read sequentially
// (commandment C2): once for the key domain, once for the first radix digit's
// histogram, and once by the scatter that deinterleaves keys and payloads
// into the run's own buffers. Everything after that, the payload gather
// included, is random access inside the run and the sort's bucket scratch,
// which the sort leases (with a permutation column instead if the keys are
// too wide to pack) and hands back before it returns.
//
// srcNode is the NUMA node the source chunk resides on (the input relation is
// assumed to be range-chunked over the nodes); the run itself is allocated on
// the worker's home node. If presorted is true and the chunk is verified to be
// in key order already, the sorting pass is skipped (exploiting pre-existing
// sort orders, as the paper suggests) and the chunk is merely split into
// columns.
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
		// Either way the source is read sequentially twice (order check and
		// deinterleave, or key domain and scatter) and the local run written
		// once; sorting adds the histogram pass over the source (a chunk small
		// enough to go without one is charged it all the same) and O(n)
		// passes of local random accesses: the scatter plus the in-cache
		// finishing work, charged as two read/write passes.
		tracker.SeqRead(srcNode, 2*un)
		tracker.SeqWrite(run.Node, un)
		if !skippedSort {
			tracker.SeqRead(srcNode, un)
			tracker.RandRead(run.Node, 2*un)
			tracker.RandWrite(run.Node, 2*un)
		}
	}
	return run
}

// matcher is the match phase shared by B-MPSM (phase 3) and P-MPSM (phase 4):
// every private run is merge joined against every public run, matches
// streaming into the executing worker's sink writer and work counters, so no
// synchronization is needed beyond the phase barrier (Static) or the task
// queue (Morsel).
type matcher struct {
	private, public []*batch.Run
	out             *sink.Bound
	scanned         []int // public tuples scanned, per worker
	opts            Options
	lease           *memory.Lease
	// skip enters every public run by interpolation search at the window the
	// private keys can reach (P-MPSM; and every morsel, a segment covering a
	// sliver of the key domain). Without it each public run is scanned in
	// full — B-MPSM's defining O(|S|) join work per worker.
	skip bool
}

// run executes the match phase under the configured scheduler and returns its
// wall time.
//
// Static: worker w joins exactly its own private run against all public
// runs. Remote runs are only read sequentially (commandment C2), and the one
// synchronization point the algorithm needs — all public runs sorted before
// the join starts — is the phase barrier before it.
//
// Morsel: every private run is cut into segments of at most opts.MorselSize
// tuples, and any worker may steal a segment's tasks, preferring the NUMA
// node the run lives on. That is correct for every join flavour because all
// of them have per-private-tuple semantics: an inner or band join pairs a
// segment with a single public run, one task each; the marking kinds need a
// segment's match state across all public runs, so one task joins the
// segment against every one of them and keeps the marks task-local. The
// public run list always holds one run per worker (possibly empty), so a
// marking task is never starved of its classification pass.
func (m *matcher) run(ctx context.Context, rt *sched.Runtime, phase string) time.Duration {
	if m.opts.Scheduler != sched.Morsel {
		return rt.Phase(ctx, phase, func(ctx context.Context, w *sched.Worker) {
			sc := batch.NewScratch(m.opts.BatchSize, m.lease)
			defer sc.Close()
			priv := m.private[w.ID()]
			m.join(ctx, w, priv.Keys, priv.Payloads, priv.Node, m.public, sc)
		})
	}
	// Scratches are per worker, not per task: a worker executes one morsel
	// at a time, so its scratch is never shared.
	scratches := make([]*batch.Scratch, m.opts.Workers)
	for w := range scratches {
		scratches[w] = batch.NewScratch(m.opts.BatchSize, m.lease)
		defer scratches[w].Close()
	}
	var tasks []sched.Task
	for _, priv := range m.private {
		node := priv.Node
		sched.ForEachSegment(priv.Len(), m.opts.MorselSize, func(lo, hi int) {
			keys, pays := priv.Keys[lo:hi], priv.Payloads[lo:hi]
			task := func(public []*batch.Run) {
				tasks = append(tasks, sched.Task{Node: node, Run: func(w *sched.Worker) {
					m.join(ctx, w, keys, pays, node, public, scratches[w.ID()])
				}})
			}
			if m.opts.Kind != mergejoin.Inner {
				task(m.public)
				return
			}
			for p := range m.public {
				task(m.public[p : p+1])
			}
		})
	}
	return rt.RunTasks(ctx, phase, tasks)
}

// join merge joins one private run, or a segment of one, against the given
// public runs on worker w. An inner join hands the kernel the sink writer
// itself; the other kinds put a marker in front of it, which classifies the
// private key groups once the last public run has been seen. Cancellation is
// checked per public run, the chunk unit of the merge loop; a cancelled
// marker emits no classification.
func (m *matcher) join(ctx context.Context, w *sched.Worker, keys, pays []uint64, node int, public []*batch.Run, sc *batch.Scratch) {
	cons := m.out.Writer(w.ID())
	var marker *mergejoin.Marker
	if m.opts.Kind != mergejoin.Inner {
		marker = mergejoin.NewMarker(m.opts.Kind, keys, pays, cons, sc, m.lease)
		cons = marker
	}
	tracker := w.Tracker()
	for _, pub := range public {
		if canceled(ctx) {
			break
		}
		n := pub.Len()
		if m.skip {
			n = mergejoin.JoinColumnsWithSkip(keys, pays, pub.Keys, pub.Payloads, m.opts.Band, cons, sc)
		} else {
			mergejoin.JoinColumnsBand(keys, pays, pub.Keys, pub.Payloads, m.opts.Band, cons, sc)
		}
		m.scanned[w.ID()] += n
		if tracker != nil {
			// The private run is re-scanned once per public run (locally);
			// the public run is scanned sequentially on whichever node it
			// lives, over the window the kernel entered.
			tracker.SeqRead(node, uint64(len(keys)))
			tracker.SeqRead(pub.Node, uint64(n))
		}
	}
	if marker != nil {
		marker.Finish(ctx)
	}
}

// finish closes the sink and fills in what the match phase determined:
// cardinality, the default sink's aggregate, batch traffic, scan counts and —
// on request — the per-worker breakdown over the named phases. Close runs
// even on cancellation: the sink was opened and its writers consumed tuples,
// so it must learn the execution ended. The context error still wins as the
// join's outcome.
func (m *matcher) finish(ctx context.Context, res *result.Result, rt *sched.Runtime, phases []string, start time.Time) error {
	closeErr := m.out.Close()
	if err := Checkpoint(ctx, rt, m.lease); err != nil {
		return err
	}
	if closeErr != nil {
		return closeErr
	}
	for _, n := range m.scanned {
		res.PublicScanned += n
	}
	res.Matches = m.out.Matches()
	res.MaxSum = m.out.MaxSum()
	res.Batch.Batches, res.Batch.Tuples = m.out.Batches()
	res.Total = time.Since(start)
	if m.opts.CollectPerWorker {
		res.PerWorker = rt.Breakdowns(phases)
		for w := range res.PerWorker {
			res.PerWorker[w].PrivateTuples = m.private[w].Len()
			res.PerWorker[w].PublicScanned = m.scanned[w]
			res.PerWorker[w].Matches = m.out.WorkerMatches(w)
		}
	}
	if m.opts.TrackNUMA {
		res.NUMA = rt.NUMAStats()
		res.SimulatedNUMACost = m.opts.CostModel.Estimate(res.NUMA)
	}
	res.Scratch = m.lease.Stats()
	return nil
}
