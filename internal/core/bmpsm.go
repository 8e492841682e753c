package core

import (
	"context"
	"time"

	"repro/internal/batch"
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
// Runs are sorted key/payload column pairs and phase 3 is the match phase
// B-MPSM shares with P-MPSM (see matcher), whatever the join kind or band.
//
// Cancellation is checked at phase boundaries and per chunk inside the sort
// and merge loops; a canceled context aborts the join and returns ctx.Err().
func BMPSM(ctx context.Context, private, public *relation.Relation, opts Options) (*result.Result, error) {
	opts = opts.Normalize()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	workers := opts.Workers
	res := &result.Result{Algorithm: "B-MPSM", Workers: workers}
	rt := RuntimeFor(opts)
	lease := LeaseFor(opts)
	defer lease.Release()
	start := time.Now()

	publicChunks := public.Split(workers)
	privateChunks := private.Split(workers)
	publicRuns := make([]*batch.Run, workers)
	privateRuns := make([]*batch.Run, workers)

	// Phase 1: sort the public input chunks into runs, locally per worker.
	phase1 := rt.Phase(ctx, "phase 1", func(ctx context.Context, w *sched.Worker) {
		publicRuns[w.ID()] = sortChunkIntoColumnRun(publicChunks[w.ID()], chunkSourceNode(w.ID(), workers, opts.Topology), opts.PresortedPublic, w, lease)
	})
	res.AddPhase("phase 1", phase1)
	if err := Checkpoint(ctx, rt, lease); err != nil {
		return nil, err
	}

	// Phase 2: sort the private input chunks into runs, locally per worker.
	phase2 := rt.Phase(ctx, "phase 2", func(ctx context.Context, w *sched.Worker) {
		privateRuns[w.ID()] = sortChunkIntoColumnRun(privateChunks[w.ID()], chunkSourceNode(w.ID(), workers, opts.Topology), opts.PresortedPrivate, w, lease)
	})
	res.AddPhase("phase 2", phase2)
	if err := Checkpoint(ctx, rt, lease); err != nil {
		return nil, err
	}

	// Phase 3: every worker merge joins its private run against all public
	// runs, each scanned in full (morsels enter at their segment's window).
	match := &matcher{
		private: privateRuns, public: publicRuns,
		out:     sink.BindChecked(opts.Sink, workers, lease, opts.KeyCheck),
		scanned: make([]int, workers), opts: opts, lease: lease,
		skip: opts.Scheduler == sched.Morsel,
	}
	res.AddPhase("phase 3", match.run(ctx, rt, "phase 3"))
	if err := match.finish(ctx, res, rt, []string{"phase 1", "phase 2", "phase 3"}, start); err != nil {
		return nil, err
	}
	return res, nil
}
