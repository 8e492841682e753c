package core

import (
	"context"
	"slices"

	"repro/internal/batch"
	"repro/internal/relation"
	"repro/internal/result"
	"repro/internal/sched"
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
// PublicScanned reports entries actually scanned rather than T·|S|).
//
// Runs are sorted key/payload column pairs and phase 3 is the match phase
// B-MPSM shares with P-MPSM (see matcher), whatever the join kind or band.
// Where the join folds (Exec.Folds), phase 1 groups each public run whose
// sort word carries the payloads (one entry per key: its tuple count and
// largest payload), so every worker scans T·(distinct keys per chunk) public
// entries instead of |S| tuples; a grouped run whose payloads can carry
// against the private ones is sorted again raw at the end of phase 2, which
// is the first moment the private payloads' bound is known.
//
// Cancellation is checked at phase boundaries and per chunk inside the sort
// and merge loops; a canceled context aborts the join and returns ctx.Err().
func BMPSM(ctx context.Context, private, public *relation.Relation, opts Options) (*result.Result, error) {
	x, err := Begin(ctx, "B-MPSM", opts)
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

	// Phase 1: sort the public input chunks into runs, locally per worker.
	if err := x.Phase("phase 1", func(ctx context.Context, w *sched.Worker) {
		publicRuns[w.ID()] = sortChunkIntoColumnRun(publicChunks[w.ID()], chunkSourceNode(w.ID(), workers, opts.Topology), opts.PresortedPublic, x.Folds(), w, lease)
	}); err != nil {
		return nil, err
	}

	// Phase 2: sort the private input chunks into runs, locally per worker,
	// then sort again raw the grouped public runs that can carry against them.
	phase2 := x.RT.Phase(ctx, "phase 2", func(ctx context.Context, w *sched.Worker) {
		privateRuns[w.ID()] = sortChunkIntoColumnRun(privateChunks[w.ID()], chunkSourceNode(w.ID(), workers, opts.Topology), opts.PresortedPrivate, false, w, lease)
	})
	if !sched.Canceled(ctx) && x.RT.Err() == nil {
		var privBound uint64
		for _, run := range privateRuns {
			privBound |= run.PayBound
		}
		privBound = carryBound(x, privBound)
		if slices.ContainsFunc(publicRuns, func(run *batch.Run) bool { return carries(run, privBound) }) {
			phase2 += x.RT.Phase(ctx, "phase 2", func(ctx context.Context, w *sched.Worker) {
				publicRuns[w.ID()] = ungroup(publicRuns[w.ID()], publicChunks[w.ID()], chunkSourceNode(w.ID(), workers, opts.Topology), privBound, w, lease)
			})
		}
	}
	if err := x.Record("phase 2", phase2); err != nil {
		return nil, err
	}

	// Phase 3: every worker merge joins its private run against all public
	// runs, each scanned in full (morsels enter at their segment's window).
	return match(ctx, x, "phase 3", privateRuns, publicRuns, opts.Scheduler == sched.Morsel)
}
