package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/mergejoin"
	"repro/internal/relation"
	"repro/internal/result"
	"repro/internal/sched"
	"repro/internal/search"
	"repro/internal/sink"
	"repro/internal/sorting"
	"repro/internal/storage"
)

// DiskOptions configures the disk-enabled D-MPSM variant.
type DiskOptions struct {
	// PageSize is the number of tuples per spilled page; 0 selects
	// storage.DefaultPageSize.
	PageSize int
	// PageBudget is the maximum number of public-input pages the buffer
	// pool keeps resident (0 = unlimited). The paper's point is that the
	// join needs only the currently processed and prefetched pages in RAM.
	PageBudget int
	// PrefetchDistance is how many index entries ahead of the slowest
	// worker the prefetcher loads; 0 selects a small default.
	PrefetchDistance int
	// ReadLatency and WriteLatency simulate per-page disk access latency.
	ReadLatency  time.Duration
	WriteLatency time.Duration
}

// normalize fills in defaults.
func (o DiskOptions) normalize() DiskOptions {
	if o.PageSize <= 0 {
		o.PageSize = storage.DefaultPageSize
	}
	if o.PrefetchDistance <= 0 {
		o.PrefetchDistance = 8
	}
	return o
}

// DiskStats reports the storage behaviour of a D-MPSM execution.
type DiskStats struct {
	// Pool is the buffer pool behaviour (loads, hits, evictions, high-water
	// mark of resident pages).
	Pool storage.BufferPoolStats
	// PageReads and PageWrites are the totals served by the simulated disk.
	PageReads  int
	PageWrites int
	// PublicPages is the number of pages the public input occupies on disk.
	PublicPages int
}

// DMPSM executes the disk-enabled, memory-constrained MPSM variant
// (Section 3.1): both inputs are sorted into runs that are spilled to a
// (simulated) disk, a global page index ordered by each page's minimal key
// lets every worker move through the key domain in order, a prefetcher loads
// upcoming public pages asynchronously, and already-processed pages are
// released from RAM.
//
// One simplification against the paper: each worker materializes its own
// private run (|R|/T tuples) in memory for the duration of the join, while the
// public input — the dominant data volume — is strictly paged through the
// buffer pool under the configured budget.
//
// D-MPSM is inner-only and the single production caller of the row kernels
// (sorting.SortInto, mergejoin.Join): its runs are pages of []Tuple on the
// simulated disk, and moving them to column pages means a new page format in
// internal/storage.
//
// With Options.Scheduler == sched.Morsel, phase 3 runs as stolen
// (private-run, public-run) morsels: each task walks one public run's pages
// in key order against one private run, so an oversized private run is
// processed by several workers concurrently. The global key-ordered
// prefetcher assumes lock-step progress through the page index and is
// therefore disabled in this mode; pages load on demand through the buffer
// pool, which still enforces the budget.
//
// Cancellation is checked at phase boundaries, per chunk during run
// generation, and per page during the join; a canceled context aborts the
// join and returns ctx.Err().
func DMPSM(ctx context.Context, private, public *relation.Relation, opts Options, diskOpts DiskOptions) (*result.Result, DiskStats, error) {
	opts = opts.Normalize()
	diskOpts = diskOpts.normalize()
	if err := ctx.Err(); err != nil {
		return nil, DiskStats{}, err
	}
	workers := opts.Workers
	res := &result.Result{Algorithm: "D-MPSM", Workers: workers}
	rt := RuntimeFor(opts)
	lease := LeaseFor(opts)
	defer lease.Release()
	start := time.Now()

	disk := storage.NewDisk(diskOpts.ReadLatency, diskOpts.WriteLatency)
	publicChunks := public.Split(workers)
	privateChunks := private.Split(workers)
	publicRuns := make([]*storage.PagedRun, workers)
	privateRuns := make([]*storage.PagedRun, workers)

	// Phase 1: sort the public chunks locally and spill them as paged runs.
	// The sort buffer is leased and handed back immediately after the spill
	// (WriteRun copies tuples into pages), so phase 2 reuses it.
	phase1 := rt.Phase(ctx, "phase 1", func(ctx context.Context, w *sched.Worker) {
		tuples := lease.Tuples(len(publicChunks[w.ID()].Tuples))
		sorting.SortInto(publicChunks[w.ID()].Tuples, tuples)
		run, err := storage.WriteRun(disk, w.ID(), tuples, diskOpts.PageSize)
		if err != nil {
			panic(fmt.Sprintf("core: spilling public run %d: %v", w.ID(), err))
		}
		publicRuns[w.ID()] = run
		lease.PutTuples(tuples)
	})
	res.AddPhase("phase 1", phase1)
	if err := Checkpoint(ctx, rt, lease); err != nil {
		return nil, DiskStats{}, err
	}

	// Phase 2: sort the private chunks locally and spill them as paged runs.
	phase2 := rt.Phase(ctx, "phase 2", func(ctx context.Context, w *sched.Worker) {
		tuples := lease.Tuples(len(privateChunks[w.ID()].Tuples))
		sorting.SortInto(privateChunks[w.ID()].Tuples, tuples)
		run, err := storage.WriteRun(disk, w.ID(), tuples, diskOpts.PageSize)
		if err != nil {
			panic(fmt.Sprintf("core: spilling private run %d: %v", w.ID(), err))
		}
		privateRuns[w.ID()] = run
		lease.PutTuples(tuples)
	})
	res.AddPhase("phase 2", phase2)
	if err := Checkpoint(ctx, rt, lease); err != nil {
		return nil, DiskStats{}, err
	}

	// The page index over the public runs is built from the per-page
	// minimal keys recorded during run generation; it is read-only from
	// here on, so it needs no synchronization.
	index := storage.BuildPageIndex(publicRuns)
	pool := storage.NewBufferPool(disk, diskOpts.PageBudget)

	out := sink.BindChecked(opts.Sink, workers, lease, opts.KeyCheck)
	scanned := make([]int, workers)
	var phase3 time.Duration
	if opts.Scheduler == sched.Morsel {
		phase3 = dmpsmJoinMorsel(ctx, rt, disk, pool, index, privateRuns, scanned, out, opts)
	} else {
		phase3 = dmpsmJoinStatic(ctx, rt, disk, pool, index, privateRuns, scanned, out, diskOpts)
	}
	res.AddPhase("phase 3", phase3)
	stats := DiskStats{
		Pool:        pool.Stats(),
		PageReads:   disk.PageReads(),
		PageWrites:  disk.PageWrites(),
		PublicPages: len(index.Entries),
	}
	// Close runs even on cancellation (the sink lifecycle promises it); the
	// context error still wins as the join's outcome.
	closeErr := out.Close()
	if err := Checkpoint(ctx, rt, lease); err != nil {
		return nil, stats, err
	}
	if closeErr != nil {
		return nil, stats, closeErr
	}

	for w := 0; w < workers; w++ {
		res.PublicScanned += scanned[w]
	}
	res.Matches = out.Matches()
	res.MaxSum = out.MaxSum()
	res.Total = time.Since(start)
	if opts.CollectPerWorker {
		res.PerWorker = rt.Breakdowns([]string{"phase 1", "phase 2", "phase 3"})
	}
	res.Scratch = lease.Stats()
	return res, stats, nil
}

// dmpsmJoinStatic is the paper's phase 3: every worker walks the global page
// index in key order, joining each public page against its private run. Per
// public run, a cursor into the private run only ever moves forward, so both
// inputs are consumed in ascending key order and processed pages can be
// released. Cancellation is checked before every page — the page is the
// chunk unit of the disk-enabled merge loop.
func dmpsmJoinStatic(ctx context.Context, rt *sched.Runtime, disk *storage.Disk, pool *storage.BufferPool,
	index *storage.PageIndex, privateRuns []*storage.PagedRun, scanned []int, out *sink.Bound, diskOpts DiskOptions) time.Duration {

	prefetcher := storage.NewPrefetcher(pool, index, diskOpts.PrefetchDistance)
	prefetcher.Start()
	defer prefetcher.Stop()

	return rt.Phase(ctx, "phase 3", func(ctx context.Context, w *sched.Worker) {
		priv, err := storage.ReadRunTuples(disk, privateRuns[w.ID()])
		if err != nil {
			panic(fmt.Sprintf("core: reading private run %d: %v", w.ID(), err))
		}
		cons := out.Writer(w.ID())
		cursors := make([]int, len(index.Runs))
		for pos, entry := range index.Entries {
			if canceled(ctx) {
				break
			}
			page, err := pool.Pin(entry.Page)
			if err != nil {
				panic(fmt.Sprintf("core: pinning page %+v: %v", entry.Page, err))
			}
			cursors[entry.RunOrdinal] = joinPagedRun(priv, cursors[entry.RunOrdinal], page, cons)
			scanned[w.ID()] += len(page)
			pool.Unpin(entry.Page)
			prefetcher.ReportProgress(pos + 1)
		}
	})
}

// dmpsmJoinMorsel is the morsel-driven phase 3: the private runs are read
// into memory once, and every (private run, public run) pair becomes a task
// that walks the public run's pages in key order with its own private
// cursor. Tasks prefer workers on the private run's owner node.
func dmpsmJoinMorsel(ctx context.Context, rt *sched.Runtime, disk *storage.Disk, pool *storage.BufferPool,
	index *storage.PageIndex, privateRuns []*storage.PagedRun, scanned []int, out *sink.Bound, opts Options) time.Duration {

	workers := rt.Workers()
	privTuples := make([][]relation.Tuple, workers)
	readDuration := rt.Phase(ctx, "phase 3", func(ctx context.Context, w *sched.Worker) {
		priv, err := storage.ReadRunTuples(disk, privateRuns[w.ID()])
		if err != nil {
			panic(fmt.Sprintf("core: reading private run %d: %v", w.ID(), err))
		}
		privTuples[w.ID()] = priv
	})
	if canceled(ctx) || rt.Err() != nil {
		return readDuration
	}

	var tasks []sched.Task
	for w := 0; w < workers; w++ {
		priv := privTuples[w]
		if len(priv) == 0 {
			continue
		}
		node := opts.Topology.NodeOfWorker(w)
		for _, run := range index.Runs {
			if run.Pages == 0 {
				continue
			}
			run := run
			tasks = append(tasks, sched.Task{Node: node, Run: func(exec *sched.Worker) {
				cons := out.Writer(exec.ID())
				cursor := 0
				// Pages of one run are in ascending key order, so the
				// private cursor only moves forward, exactly as in the
				// static index walk.
				for pageNo := 0; pageNo < run.Pages; pageNo++ {
					if canceled(ctx) {
						return
					}
					ref := storage.PageRef{RunID: run.RunID, PageNo: pageNo}
					page, err := pool.Pin(ref)
					if err != nil {
						panic(fmt.Sprintf("core: pinning page %+v: %v", ref, err))
					}
					cursor = joinPagedRun(priv, cursor, page, cons)
					scanned[exec.ID()] += len(page)
					pool.Unpin(ref)
				}
			}})
		}
	}
	return readDuration + rt.RunTasks(ctx, "phase 3", tasks)
}

// joinPagedRun merge joins one public page (sorted) against the private run,
// starting at the given private cursor, and returns the advanced cursor: the
// first private index whose key is >= the page's last key. Keys equal to the
// page's last key stay reachable because the following page of the same run
// may start with the same key.
func joinPagedRun(private []relation.Tuple, cursor int, page []relation.Tuple, out mergejoin.Consumer) int {
	if len(page) == 0 || cursor >= len(private) {
		return cursor
	}
	mergejoin.Join(private[cursor:], page, out)
	lastKey := page[len(page)-1].Key
	return cursor + search.LowerBound(private[cursor:], lastKey)
}
