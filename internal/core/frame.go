package core

import (
	"context"
	"time"

	"repro/internal/batch"
	"repro/internal/memory"
	"repro/internal/mergejoin"
	"repro/internal/numa"
	"repro/internal/result"
	"repro/internal/sched"
	"repro/internal/sink"
)

// Exec is the frame of one join execution, shared by the MPSM variants and
// the hash joins: phases separated by barriers and nothing else (commandment
// C3), each timed per worker and charged to the NUMA model. It holds the
// normalized options, the parallel runtime, the scratch lease, the result
// and, once bound, the sink, and it keeps the rules every execution shares:
//
//   - every phase boundary is an error check: a recovered worker panic wins
//     over plain cancellation, and on a panic the lease is poisoned so its
//     buffers are quarantined rather than reused;
//   - a bound sink is closed even when the join ends early — it was opened
//     and its writers consumed tuples, so it must learn the execution ended —
//     and the context error still wins over the close error;
//   - Finish reports the same fields, the same way, for every algorithm.
type Exec struct {
	Opts  Options
	RT    *sched.Runtime
	Lease *memory.Lease
	Res   *result.Result

	ctx     context.Context
	start   time.Time
	out     *sink.Bound
	closed  bool
	scratch []*batch.Scratch
}

// Begin normalizes the options and opens the execution of the named
// algorithm: its runtime and its scratch lease, with fault injection armed.
// The caller defers Release.
func Begin(ctx context.Context, algorithm string, opts Options) (*Exec, error) {
	opts = opts.Normalize()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &Exec{
		Opts: opts,
		RT: sched.New(sched.Config{
			Workers:   opts.Workers,
			Topology:  opts.Topology,
			TrackNUMA: opts.TrackNUMA,
			Gate:      opts.Gate,
			Label:     opts.Owner.Label(),
			Faults:    opts.Faults,
		}),
		Lease:   opts.Scratch.AcquireFor(opts.Owner).InjectFaults(opts.Faults),
		Res:     &result.Result{Algorithm: algorithm, Workers: opts.Workers},
		ctx:     ctx,
		start:   time.Now(),
		scratch: make([]*batch.Scratch, opts.Workers),
	}, nil
}

// Release ends the execution: it closes a bound sink Finish did not reach,
// hands the workers' batch scratch back and releases the lease.
func (x *Exec) Release() {
	if x.out != nil && !x.closed {
		_ = x.out.Close() // the join already returns the error that ended it
	}
	for _, sc := range x.scratch {
		sc.Close()
	}
	x.Lease.Release()
}

// Phase runs fn on every worker up to a barrier as the named phase; see
// Record.
func (x *Exec) Phase(name string, fn func(ctx context.Context, w *sched.Worker)) error {
	return x.Record(name, x.RT.Phase(x.ctx, name, fn))
}

// Record appends a phase of the given wall time to the result — one the
// algorithm ran as tasks, or timed around several barriers of the same name —
// and checks the phase boundary.
func (x *Exec) Record(name string, d time.Duration) error {
	x.Res.AddPhase(name, d)
	return x.check()
}

// check is the phase-boundary error check.
func (x *Exec) check() error {
	if err := x.RT.Err(); err != nil {
		x.Lease.Poison()
		return err
	}
	return x.ctx.Err()
}

// Bind opens the sink for the phase that emits matches; Finish closes it.
func (x *Exec) Bind() *sink.Bound {
	x.out = sink.BindChecked(x.Opts.Sink, x.Opts.Workers, x.Lease, x.Opts.KeyCheck)
	return x.out
}

// Folds reports a join that folds its pairs (Folding). Its kernel — the merge
// join's FoldColumns, a hash join's probeFold — hands the writer one
// (count, max) per task (sink.Writer.ConsumeFold).
func (x *Exec) Folds() bool {
	o := x.Opts
	return Folding(o.Kind, o.Band, o.KeyCheck != nil, sink.FoldsRanges(o.Sink))
}

// Folding is the one rule for which joins fold their pairs in the kernel's
// loop instead of handing on range entries: an inner equi-join behind no
// tie-break verifier, so every candidate pair is a match, into a sink that
// keeps only the match count and the largest payload sum (sink.FoldsRanges).
// Exec.Folds applies it to a running join, the planner to a planned one
// (Shape.Folded).
func Folding(kind mergejoin.Kind, band uint64, verified, keepsCountAndMax bool) bool {
	return kind == mergejoin.Inner && band == 0 && !verified && keepsCountAndMax
}

// Scratch returns worker w's batch scratch of batch.DefaultSize entries,
// leased on first use and handed back by Release. A worker runs one morsel at
// a time, so its scratch is never shared.
func (x *Exec) Scratch(w int) *batch.Scratch {
	if x.scratch[w] == nil {
		x.scratch[w] = batch.NewScratch(batch.DefaultSize, x.Lease)
	}
	return x.scratch[w]
}

// Finish closes the sink and reports the execution: the matches, the default
// sink's aggregate and the batch traffic where a sink is bound, the public
// entries scanned (tuples, or key groups of grouped runs), the total time, on
// request the per-worker breakdown over the result's phases — with each
// worker's private tuples and public scans where the algorithm has them (nil
// where not) and its matches — the NUMA statistics with their simulated cost,
// and the lease's traffic.
func (x *Exec) Finish(private, scanned []int) (*result.Result, error) {
	var closeErr error
	if x.out != nil {
		closeErr, x.closed = x.out.Close(), true
	}
	if err := x.check(); err != nil {
		return nil, err
	}
	if closeErr != nil {
		return nil, closeErr
	}
	res := x.Res
	for _, n := range scanned {
		res.PublicScanned += n
	}
	if x.out != nil {
		res.Matches = x.out.Matches()
		res.MaxSum = x.out.MaxSum()
		res.Batch.Batches, res.Batch.Tuples = x.out.Batches()
	}
	res.Total = time.Since(x.start)
	if x.Opts.CollectPerWorker {
		res.PerWorker = x.RT.Breakdowns(res.Phases)
		for w := range res.PerWorker {
			bd := &res.PerWorker[w]
			if private != nil {
				bd.PrivateTuples = private[w]
			}
			if scanned != nil {
				bd.PublicScanned = scanned[w]
			}
			if x.out != nil {
				bd.Matches = x.out.WorkerMatches(w)
			}
		}
	}
	if x.Opts.TrackNUMA {
		res.NUMA = x.RT.NUMAStats()
		res.SimulatedNUMACost = numa.DefaultCostModel().Estimate(res.NUMA)
	}
	res.Scratch = x.Lease.Stats()
	return res, nil
}

// chunkSourceNode maps an input chunk index to the NUMA node its memory is
// assumed to live on: the input relation is spread over the nodes in
// contiguous blocks, so chunk w of T chunks lives on node w·N/T.
func chunkSourceNode(chunkIndex, workers int, topo numa.Topology) int {
	if workers <= 0 {
		return 0
	}
	node := chunkIndex * topo.Nodes / workers
	if node >= topo.Nodes {
		node = topo.Nodes - 1
	}
	return node
}
