// Package storage provides the paged-run substrate of the disk-enabled
// D-MPSM variant (Section 3.1, Figure 4 of the paper): sorted runs are written
// to a (simulated) disk page by page, a global page index ordered by the
// minimal key of each page lets workers and the prefetcher move through the
// key domain synchronously, and a buffer pool with a RAM budget holds only the
// pages that are currently being processed or prefetched.
//
// The paper's evaluation machine spools to a disk array; this repository
// substitutes an in-memory block store with configurable read latency and
// bandwidth so the identical paging, prefetching and release logic can be
// exercised without physical disks.
package storage

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/relation"
)

// DefaultPageSize is the default number of tuples per page. 1024 tuples of
// 16 bytes give 16 KiB pages.
const DefaultPageSize = 1024

// Disk is a simulated block store holding the pages of spilled runs. Reads
// can be slowed down by a configurable per-page latency to emulate I/O-bound
// processing; writes are charged the same latency.
type Disk struct {
	mu sync.Mutex
	// pages[runID][pageNo] holds the page contents.
	pages [][][]relation.Tuple
	// readLatency is applied once per page read.
	readLatency time.Duration
	// writeLatency is applied once per page write.
	writeLatency time.Duration

	pageReads  int
	pageWrites int
}

// NewDisk creates a simulated disk with the given per-page latencies.
func NewDisk(readLatency, writeLatency time.Duration) *Disk {
	return &Disk{readLatency: readLatency, writeLatency: writeLatency}
}

// PageReads returns the number of page reads served so far.
func (d *Disk) PageReads() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.pageReads
}

// PageWrites returns the number of page writes accepted so far.
func (d *Disk) PageWrites() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.pageWrites
}

// writeRun stores the pages of a new run and returns its run identifier.
func (d *Disk) writeRun(pages [][]relation.Tuple) int {
	if d.writeLatency > 0 {
		time.Sleep(time.Duration(len(pages)) * d.writeLatency)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.pages = append(d.pages, pages)
	d.pageWrites += len(pages)
	return len(d.pages) - 1
}

// readPage returns the contents of one page. The returned slice aliases the
// stored page and must be treated as read-only.
func (d *Disk) readPage(runID, pageNo int) ([]relation.Tuple, error) {
	if d.readLatency > 0 {
		time.Sleep(d.readLatency)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if runID < 0 || runID >= len(d.pages) {
		return nil, fmt.Errorf("storage: unknown run %d", runID)
	}
	if pageNo < 0 || pageNo >= len(d.pages[runID]) {
		return nil, fmt.Errorf("storage: run %d has no page %d", runID, pageNo)
	}
	d.pageReads++
	return d.pages[runID][pageNo], nil
}

// PagedRun describes a sorted run that has been spilled to disk.
type PagedRun struct {
	// RunID identifies the run on its disk.
	RunID int
	// Worker is the worker that produced the run.
	Worker int
	// Pages is the number of pages of the run.
	Pages int
	// Len is the total number of tuples.
	Len int
	// MinKeys[p] is the smallest key on page p (the v_ij of the paper's
	// page index).
	MinKeys []uint64
}

// WriteRun splits a sorted tuple slice into pages of pageSize tuples, writes
// them to the disk, and returns the run descriptor. It returns an error if the
// tuples are not sorted by key, because the page index and the join logic
// depend on intra-run order.
func WriteRun(d *Disk, worker int, tuples []relation.Tuple, pageSize int) (*PagedRun, error) {
	if pageSize <= 0 {
		return nil, fmt.Errorf("storage: invalid page size %d", pageSize)
	}
	if !relation.IsSortedByKey(tuples) {
		return nil, errors.New("storage: WriteRun requires key-sorted tuples")
	}
	var pages [][]relation.Tuple
	var minKeys []uint64
	for start := 0; start < len(tuples); start += pageSize {
		end := start + pageSize
		if end > len(tuples) {
			end = len(tuples)
		}
		page := make([]relation.Tuple, end-start)
		copy(page, tuples[start:end])
		pages = append(pages, page)
		minKeys = append(minKeys, page[0].Key)
	}
	runID := d.writeRun(pages)
	return &PagedRun{
		RunID:   runID,
		Worker:  worker,
		Pages:   len(pages),
		Len:     len(tuples),
		MinKeys: minKeys,
	}, nil
}

// ReadRunTuples reads a complete paged run back from disk, page by page, and
// returns its tuples in order. It bypasses any buffer pool; callers use it for
// small runs (such as a worker's private run) whose memory is accounted for
// separately from the public-input page budget.
func ReadRunTuples(d *Disk, run *PagedRun) ([]relation.Tuple, error) {
	tuples := make([]relation.Tuple, 0, run.Len)
	for p := 0; p < run.Pages; p++ {
		page, err := d.readPage(run.RunID, p)
		if err != nil {
			return nil, err
		}
		tuples = append(tuples, page...)
	}
	return tuples, nil
}

// PageRef identifies one page of one run.
type PageRef struct {
	RunID  int
	PageNo int
}

// IndexEntry is one entry of the global page index: the minimal key of a page
// together with the page's location. Entries are sorted by MinKey, so
// processing them in order moves all workers synchronously through the key
// domain.
type IndexEntry struct {
	MinKey uint64
	Page   PageRef
	// RunOrdinal is the position of the run in the index's run list; the
	// join uses it to address per-run cursors without a map lookup.
	RunOrdinal int
}

// PageIndex is the global, read-only page index over a set of runs
// (Section 3.1). It requires no synchronization because it is built once
// during run generation and only read afterwards.
type PageIndex struct {
	Runs    []*PagedRun
	Entries []IndexEntry
}

// BuildPageIndex constructs the index over the given runs, ordered by the
// minimal key of each page (ties broken by run and page number for
// determinism).
func BuildPageIndex(runs []*PagedRun) *PageIndex {
	idx := &PageIndex{Runs: runs}
	for ord, run := range runs {
		for p := 0; p < run.Pages; p++ {
			idx.Entries = append(idx.Entries, IndexEntry{
				MinKey:     run.MinKeys[p],
				Page:       PageRef{RunID: run.RunID, PageNo: p},
				RunOrdinal: ord,
			})
		}
	}
	sort.Slice(idx.Entries, func(i, j int) bool {
		a, b := idx.Entries[i], idx.Entries[j]
		if a.MinKey != b.MinKey {
			return a.MinKey < b.MinKey
		}
		if a.Page.RunID != b.Page.RunID {
			return a.Page.RunID < b.Page.RunID
		}
		return a.Page.PageNo < b.Page.PageNo
	})
	return idx
}

// IsSorted reports whether the index entries are in non-decreasing MinKey
// order (an invariant checked by tests).
func (idx *PageIndex) IsSorted() bool {
	for i := 1; i < len(idx.Entries); i++ {
		if idx.Entries[i].MinKey < idx.Entries[i-1].MinKey {
			return false
		}
	}
	return true
}

// BufferPoolStats reports buffer pool behaviour for the experiments.
type BufferPoolStats struct {
	// Loads is the number of page loads from disk (misses).
	Loads int
	// Hits is the number of requests served from memory.
	Hits int
	// Evictions is the number of pages dropped to respect the budget.
	Evictions int
	// MaxResident is the high-water mark of simultaneously resident pages.
	MaxResident int
}

// BufferPool caches disk pages under a page budget. Workers pin pages while
// reading them; the pool evicts unpinned pages in least-recently-released
// order when the budget is exceeded. All methods are safe for concurrent use.
type BufferPool struct {
	disk   *Disk
	budget int

	mu       sync.Mutex
	resident map[PageRef]*poolPage
	// releaseOrder holds unpinned pages in the order they became evictable.
	releaseOrder []PageRef
	stats        BufferPoolStats
}

type poolPage struct {
	data []relation.Tuple
	pins int
}

// NewBufferPool creates a pool over the given disk that aims to keep at most
// budget pages resident. A budget of 0 or less means "unlimited".
func NewBufferPool(disk *Disk, budget int) *BufferPool {
	return &BufferPool{
		disk:     disk,
		budget:   budget,
		resident: make(map[PageRef]*poolPage),
	}
}

// Budget returns the configured page budget (0 = unlimited).
func (bp *BufferPool) Budget() int { return bp.budget }

// Stats returns a snapshot of the pool statistics.
func (bp *BufferPool) Stats() BufferPoolStats {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.stats
}

// Pin returns the contents of the requested page, loading it from disk if
// necessary, and marks it pinned. Callers must Unpin the page when done. The
// returned slice must be treated as read-only.
func (bp *BufferPool) Pin(ref PageRef) ([]relation.Tuple, error) {
	bp.mu.Lock()
	if page, ok := bp.resident[ref]; ok {
		page.pins++
		bp.stats.Hits++
		bp.removeFromReleaseOrder(ref)
		data := page.data
		bp.mu.Unlock()
		return data, nil
	}
	bp.mu.Unlock()

	// Load outside the lock: disk latency must not serialize all workers.
	data, err := bp.disk.readPage(ref.RunID, ref.PageNo)
	if err != nil {
		return nil, err
	}

	bp.mu.Lock()
	defer bp.mu.Unlock()
	if page, ok := bp.resident[ref]; ok {
		// Another worker loaded it concurrently.
		page.pins++
		bp.stats.Hits++
		bp.removeFromReleaseOrder(ref)
		return page.data, nil
	}
	bp.stats.Loads++
	bp.resident[ref] = &poolPage{data: data, pins: 1}
	bp.enforceBudgetLocked()
	if len(bp.resident) > bp.stats.MaxResident {
		bp.stats.MaxResident = len(bp.resident)
	}
	return data, nil
}

// Unpin releases one pin on the page. Fully unpinned pages become eligible for
// eviction. Unpinning a page that is not resident is a programming error and
// panics.
func (bp *BufferPool) Unpin(ref PageRef) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	page, ok := bp.resident[ref]
	if !ok || page.pins <= 0 {
		panic(fmt.Sprintf("storage: Unpin of page %+v that is not pinned", ref))
	}
	page.pins--
	if page.pins == 0 {
		bp.releaseOrder = append(bp.releaseOrder, ref)
		bp.enforceBudgetLocked()
	}
}

// Prefetch loads a page into the pool without pinning it, so that a later Pin
// becomes a hit. It is a no-op if the page is already resident or if the pool
// has no free budget.
func (bp *BufferPool) Prefetch(ref PageRef) error {
	bp.mu.Lock()
	if _, ok := bp.resident[ref]; ok {
		bp.mu.Unlock()
		return nil
	}
	if bp.budget > 0 && len(bp.resident) >= bp.budget {
		bp.mu.Unlock()
		return nil
	}
	bp.mu.Unlock()

	data, err := bp.disk.readPage(ref.RunID, ref.PageNo)
	if err != nil {
		return err
	}
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if _, ok := bp.resident[ref]; ok {
		return nil
	}
	bp.stats.Loads++
	bp.resident[ref] = &poolPage{data: data, pins: 0}
	bp.releaseOrder = append(bp.releaseOrder, ref)
	bp.enforceBudgetLocked()
	if len(bp.resident) > bp.stats.MaxResident {
		bp.stats.MaxResident = len(bp.resident)
	}
	return nil
}

// Resident returns the number of currently resident pages.
func (bp *BufferPool) Resident() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return len(bp.resident)
}

// enforceBudgetLocked evicts unpinned pages (oldest released first) until the
// pool is within budget. Pinned pages are never evicted, so the pool may
// temporarily exceed the budget if all pages are pinned.
func (bp *BufferPool) enforceBudgetLocked() {
	if bp.budget <= 0 {
		return
	}
	for len(bp.resident) > bp.budget && len(bp.releaseOrder) > 0 {
		ref := bp.releaseOrder[0]
		bp.releaseOrder = bp.releaseOrder[1:]
		page, ok := bp.resident[ref]
		if !ok || page.pins > 0 {
			continue
		}
		delete(bp.resident, ref)
		bp.stats.Evictions++
	}
}

// removeFromReleaseOrder drops a re-pinned page from the eviction queue.
func (bp *BufferPool) removeFromReleaseOrder(ref PageRef) {
	for i, r := range bp.releaseOrder {
		if r == ref {
			bp.releaseOrder = append(bp.releaseOrder[:i], bp.releaseOrder[i+1:]...)
			return
		}
	}
}

// Prefetcher walks the page index ahead of the workers and loads upcoming
// pages into the buffer pool asynchronously, emulating the asynchronous disk
// prefetching of Figure 4. Distance controls how many index entries ahead of
// the slowest worker it tries to keep resident.
type Prefetcher struct {
	pool     *BufferPool
	index    *PageIndex
	distance int

	mu       sync.Mutex
	progress int // minimum index position across workers

	stop chan struct{}
	done chan struct{}
}

// NewPrefetcher creates a prefetcher over the index with the given lookahead
// distance (in pages).
func NewPrefetcher(pool *BufferPool, index *PageIndex, distance int) *Prefetcher {
	if distance <= 0 {
		distance = 4
	}
	return &Prefetcher{
		pool:     pool,
		index:    index,
		distance: distance,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// ReportProgress tells the prefetcher the smallest index position any worker
// is currently processing; pages before it will not be prefetched again.
func (p *Prefetcher) ReportProgress(pos int) {
	p.mu.Lock()
	if pos > p.progress {
		p.progress = pos
	}
	p.mu.Unlock()
}

// Start launches the background prefetching goroutine.
func (p *Prefetcher) Start() {
	go func() {
		defer close(p.done)
		for {
			select {
			case <-p.stop:
				return
			default:
			}
			p.mu.Lock()
			from := p.progress
			p.mu.Unlock()
			to := from + p.distance
			if to > len(p.index.Entries) {
				to = len(p.index.Entries)
			}
			for i := from; i < to; i++ {
				select {
				case <-p.stop:
					return
				default:
				}
				// Errors are ignored: prefetching is best-effort and the
				// worker's own Pin will surface real failures.
				_ = p.pool.Prefetch(p.index.Entries[i].Page)
			}
			if from >= len(p.index.Entries) {
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
}

// Stop terminates the prefetcher and waits for it to finish.
func (p *Prefetcher) Stop() {
	close(p.stop)
	<-p.done
}
