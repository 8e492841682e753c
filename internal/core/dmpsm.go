package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/batch"
	"repro/internal/memory"
	"repro/internal/mergejoin"
	"repro/internal/relation"
	"repro/internal/result"
	"repro/internal/sched"
	"repro/internal/search"
	"repro/internal/sink"
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
	// ReadLatency and WriteLatency simulate per-page disk access latency.
	ReadLatency  time.Duration
	WriteLatency time.Duration
}

// normalize fills in defaults.
func (o DiskOptions) normalize() DiskOptions {
	if o.PageSize <= 0 {
		o.PageSize = storage.DefaultPageSize
	}
	return o
}

// prefetchDistance is how many page-index entries ahead of the workers the
// prefetcher of phase 3 keeps loading.
const prefetchDistance = 8

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
// Run generation is B-MPSM's (sortChunkIntoColumnRun), and a spilled page is
// a key column and a payload column (storage.Page), so phase 3 joins every
// page with the one column merge kernel, batched through a per-worker scratch
// of batch.DefaultSize entries, and the sink takes range batches as behind the
// other MPSM variants — or, into the max-sum and count sinks, every worker
// folds its pages and hands its writer one (count, max). D-MPSM is inner-only
// and equi-only.
//
// Its NUMA statistics (Options.TrackNUMA) cover run generation, phases 1 and
// 2: phase 3 reads its pages through the buffer pool, whose frames the model
// does not place on a node.
//
// Options.Scheduler does not change D-MPSM: the private runs are equal chunks
// of |R|/T tuples, so there is no partition skew for morsels to balance, and
// the page-index walk is what lets every page load once and the prefetcher
// run ahead of all workers.
//
// Cancellation is checked at phase boundaries, per chunk during run
// generation, and per page during the join; a canceled context aborts the
// join and returns ctx.Err().
func DMPSM(ctx context.Context, private, public *relation.Relation, opts Options, diskOpts DiskOptions) (*result.Result, DiskStats, error) {
	diskOpts = diskOpts.normalize()
	x, err := Begin(ctx, "D-MPSM", opts)
	if err != nil {
		return nil, DiskStats{}, err
	}
	defer x.Release()
	opts, lease := x.Opts, x.Lease
	workers := opts.Workers

	disk := storage.NewDisk(diskOpts.ReadLatency, diskOpts.WriteLatency)
	publicChunks := public.Split(workers)
	privateChunks := private.Split(workers)
	publicRuns := make([]*storage.PagedRun, workers)
	privateRuns := make([]*storage.PagedRun, workers)

	// Phase 1: sort the public chunks into column runs locally and spill them
	// as paged runs. The run buffers are handed back to the lease right after
	// the spill (WriteRun copies them into pages), so phase 2 reuses them.
	if err := x.Phase("phase 1", func(ctx context.Context, w *sched.Worker) {
		run := sortChunkIntoColumnRun(publicChunks[w.ID()], chunkSourceNode(w.ID(), workers, opts.Topology), opts.PresortedPublic, false, w, lease)
		publicRuns[w.ID()] = spill(disk, run, diskOpts.PageSize, lease)
	}); err != nil {
		return nil, DiskStats{}, err
	}

	// Phase 2: sort the private chunks into column runs locally and spill
	// them as paged runs.
	if err := x.Phase("phase 2", func(ctx context.Context, w *sched.Worker) {
		run := sortChunkIntoColumnRun(privateChunks[w.ID()], chunkSourceNode(w.ID(), workers, opts.Topology), opts.PresortedPrivate, false, w, lease)
		privateRuns[w.ID()] = spill(disk, run, diskOpts.PageSize, lease)
	}); err != nil {
		return nil, DiskStats{}, err
	}

	// The page index over the public runs is built from the per-page
	// minimal keys recorded during run generation; it is read-only from
	// here on, so it needs no synchronization.
	index := storage.BuildPageIndex(publicRuns)
	pool := storage.NewBufferPool(disk, diskOpts.PageBudget)
	scanned := make([]int, workers)
	d := dmpsmJoin(ctx, x, disk, pool, index, privateRuns, scanned)
	stats := DiskStats{
		Pool:        pool.Stats(),
		PageReads:   disk.PageReads(),
		PageWrites:  disk.PageWrites(),
		PublicPages: len(index.Entries),
	}
	if err := x.Record("phase 3", d); err != nil {
		return nil, stats, err
	}
	sizes := make([]int, workers)
	for w, chunk := range privateChunks {
		sizes[w] = chunk.Len()
	}
	res, err := x.Finish(sizes, scanned)
	return res, stats, err
}

// spill writes a sorted column run to disk as pages and hands the run's
// buffers back to the lease.
func spill(disk *storage.Disk, run *batch.Run, pageSize int, lease *memory.Lease) *storage.PagedRun {
	paged, err := storage.WriteRun(disk, run.Worker, run.Keys, run.Payloads, pageSize)
	if err != nil {
		panic(fmt.Sprintf("core: spilling the run of worker %d: %v", run.Worker, err))
	}
	lease.PutUint64s(run.Keys)
	lease.PutUint64s(run.Payloads)
	return paged
}

// dmpsmJoin is the paper's phase 3: every worker walks the global page index
// in key order, joining each public page against its private run, while the
// prefetcher loads the pages the furthest worker comes to next. Per public
// run, a cursor into the private run only ever moves forward, so both inputs
// are consumed in ascending key order and processed pages can be released.
// Cancellation is checked before every page — the page is the chunk unit of
// the disk-enabled merge loop.
func dmpsmJoin(ctx context.Context, x *Exec, disk *storage.Disk, pool *storage.BufferPool,
	index *storage.PageIndex, privateRuns []*storage.PagedRun, scanned []int) time.Duration {

	prefetcher := storage.NewPrefetcher(pool, index, prefetchDistance)
	prefetcher.Start()
	defer prefetcher.Stop()

	out, folds := x.Bind(), x.Folds()
	return x.RT.Phase(ctx, "phase 3", func(ctx context.Context, w *sched.Worker) {
		keys, pays, err := storage.ReadRun(disk, privateRuns[w.ID()])
		if err != nil {
			panic(fmt.Sprintf("core: reading private run %d: %v", w.ID(), err))
		}
		p := pageJoin{keys: keys, pays: pays, out: out.Writer(w.ID()), folds: folds}
		if !folds {
			p.sc = x.Scratch(w.ID()) // a fold reads no batch
		}
		cursors := make([]int, len(index.Runs))
		for pos, entry := range index.Entries {
			if sched.Canceled(ctx) {
				break
			}
			page, err := pool.Pin(entry.Page)
			if err != nil {
				panic(fmt.Sprintf("core: pinning page %+v: %v", entry.Page, err))
			}
			cursors[entry.RunOrdinal] = p.join(cursors[entry.RunOrdinal], page)
			scanned[w.ID()] += page.Len()
			pool.Unpin(entry.Page)
			prefetcher.ReportProgress(pos + 1)
		}
		p.fold.flush(p.out)
	})
}

// pageJoin is one worker's side of phase 3: its private run, its sink writer,
// the column kernel's batch scratch and, where the join folds (Exec.Folds)
// instead, the (count, max) folded so far, which the worker hands the writer
// once, after its last page.
type pageJoin struct {
	keys, pays []uint64
	out        *sink.Writer
	sc         *batch.Scratch
	folds      bool
	fold       fold
}

// join merge joins one public page (sorted) against the private run from the
// given cursor on, with the column kernel or into the fold, and returns the
// advanced cursor: the first private index whose key is >= the page's last
// key. Keys equal to the page's last key stay reachable because the following
// page of the same run may start with the same key; a key group that spans
// the boundary folds page by page.
func (p *pageJoin) join(cursor int, page storage.Page) int {
	keys, pays := p.keys, p.pays
	if page.Len() == 0 || cursor >= len(keys) {
		return cursor
	}
	if p.folds {
		p.fold.add(keys[cursor:], pays[cursor:], page.Keys, page.Payloads, nil, false)
	} else {
		mergejoin.JoinColumns(keys[cursor:], pays[cursor:], page.Keys, page.Payloads, p.out, p.sc)
	}
	return cursor + search.LowerBoundKeys(keys[cursor:], page.Keys[page.Len()-1])
}
