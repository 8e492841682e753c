package storage

import (
	"sort"
	"sync"
	"testing"
	"time"
)

// sortedColumns returns a run of n tuples: keys 0, step, 2·step, … and
// payloads 0, 1, 2, ….
func sortedColumns(n int, step uint64) (keys, pays []uint64) {
	keys, pays = make([]uint64, n), make([]uint64, n)
	for i := range keys {
		keys[i], pays[i] = uint64(i)*step, uint64(i)
	}
	return keys, pays
}

// writeSorted spills sortedColumns(n, step) in pages of pageSize tuples.
func writeSorted(d *Disk, worker, n int, step uint64, pageSize int) (*PagedRun, error) {
	keys, pays := sortedColumns(n, step)
	return WriteRun(d, worker, keys, pays, pageSize)
}

func TestWriteRunAndReadBack(t *testing.T) {
	disk := NewDisk(0, 0)
	keys, pays := sortedColumns(2500, 3)
	run, err := WriteRun(disk, 1, keys, pays, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if run.Pages != 3 || run.Len != 2500 || run.Worker != 1 {
		t.Fatalf("run = %+v", run)
	}
	if len(run.MinKeys) != 3 || run.MinKeys[0] != 0 || run.MinKeys[1] != 3000 || run.MinKeys[2] != 6000 {
		t.Fatalf("MinKeys = %v", run.MinKeys)
	}
	keys[0], pays[0] = 7, 7 // the pages are copies
	backKeys, backPays, err := ReadRun(disk, run)
	if err != nil {
		t.Fatal(err)
	}
	if len(backKeys) != len(keys) || len(backPays) != len(pays) {
		t.Fatalf("read back %d keys and %d payloads, want %d", len(backKeys), len(backPays), len(keys))
	}
	for i := range backKeys {
		if backKeys[i] != uint64(i)*3 || backPays[i] != uint64(i) {
			t.Fatalf("tuple %d read back as (%d, %d)", i, backKeys[i], backPays[i])
		}
	}
	if disk.PageWrites() != 3 {
		t.Fatalf("PageWrites = %d, want 3", disk.PageWrites())
	}
}

func TestWriteRunRejectsUnsortedAndBadPageSize(t *testing.T) {
	disk := NewDisk(0, 0)
	if _, err := WriteRun(disk, 0, []uint64{5, 1}, []uint64{0, 0}, 10); err == nil {
		t.Fatal("unsorted run accepted")
	}
	if _, err := WriteRun(disk, 0, []uint64{1, 5}, []uint64{0}, 10); err == nil {
		t.Fatal("a payload column shorter than the key column accepted")
	}
	if _, err := writeSorted(disk, 0, 10, 1, 0); err == nil {
		t.Fatal("zero page size accepted")
	}
}

func TestWriteRunEmpty(t *testing.T) {
	disk := NewDisk(0, 0)
	run, err := WriteRun(disk, 0, nil, nil, 100)
	if err != nil {
		t.Fatal(err)
	}
	if run.Pages != 0 || run.Len != 0 {
		t.Fatalf("empty run = %+v", run)
	}
	keys, pays, err := ReadRun(disk, run)
	if err != nil || len(keys) != 0 || len(pays) != 0 {
		t.Fatalf("ReadRun on empty run = %v, %v, %v", keys, pays, err)
	}
}

func TestDiskReadErrors(t *testing.T) {
	disk := NewDisk(0, 0)
	run, err := writeSorted(disk, 0, 10, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := disk.readPage(run.RunID, 99); err == nil {
		t.Fatal("out-of-range page read should fail")
	}
	if _, err := disk.readPage(42, 0); err == nil {
		t.Fatal("unknown run read should fail")
	}
}

func TestBuildPageIndexSortedByMinKey(t *testing.T) {
	disk := NewDisk(0, 0)
	// Runs with interleaved key ranges.
	runA, _ := writeSorted(disk, 0, 1000, 2, 250) // keys 0..1998 even
	runB, _ := writeSorted(disk, 1, 1000, 3, 250) // keys 0..2997 multiples of 3
	idx := BuildPageIndex([]*PagedRun{runA, runB})
	if len(idx.Entries) != runA.Pages+runB.Pages {
		t.Fatalf("index has %d entries, want %d", len(idx.Entries), runA.Pages+runB.Pages)
	}
	if !idx.IsSorted() {
		t.Fatal("page index not sorted by min key")
	}
	// Every page of every run appears exactly once.
	seen := make(map[PageRef]bool)
	for _, e := range idx.Entries {
		if seen[e.Page] {
			t.Fatalf("page %+v appears twice", e.Page)
		}
		seen[e.Page] = true
		if e.RunOrdinal < 0 || e.RunOrdinal >= 2 {
			t.Fatalf("bad run ordinal %d", e.RunOrdinal)
		}
	}
}

func TestBufferPoolPinUnpinAndStats(t *testing.T) {
	disk := NewDisk(0, 0)
	run, _ := writeSorted(disk, 0, 1000, 1, 100) // 10 pages
	pool := NewBufferPool(disk, 3)

	// Pin and unpin all pages in order; the pool must never keep more than
	// the budget resident once pages are unpinned.
	for p := 0; p < run.Pages; p++ {
		ref := PageRef{RunID: run.RunID, PageNo: p}
		data, err := pool.Pin(ref)
		if err != nil {
			t.Fatal(err)
		}
		if data.Len() != 100 || len(data.Payloads) != 100 || data.Payloads[99] != uint64(100*p+99) {
			t.Fatalf("page %d has %d keys and %d payloads", p, data.Len(), len(data.Payloads))
		}
		pool.Unpin(ref)
		if len(pool.resident) > 3 {
			t.Fatalf("resident pages %d exceed budget 3", len(pool.resident))
		}
	}
	stats := pool.Stats()
	if stats.Loads != 10 {
		t.Fatalf("Loads = %d, want 10", stats.Loads)
	}
	if stats.MaxResident > 3 {
		t.Fatalf("MaxResident = %d, want <= 3", stats.MaxResident)
	}
	if stats.Evictions == 0 {
		t.Fatal("expected evictions under a tight budget")
	}

	// Re-pinning an evicted page is a miss; re-pinning a resident one a hit.
	ref := PageRef{RunID: run.RunID, PageNo: run.Pages - 1}
	if _, err := pool.Pin(ref); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Pin(ref); err != nil {
		t.Fatal(err)
	}
	if pool.Stats().Hits == 0 {
		t.Fatal("expected at least one hit")
	}
	pool.Unpin(ref)
	pool.Unpin(ref)
}

func TestBufferPoolUnpinPanicsWhenNotPinned(t *testing.T) {
	disk := NewDisk(0, 0)
	run, _ := writeSorted(disk, 0, 10, 1, 5)
	pool := NewBufferPool(disk, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Unpin of a non-resident page should panic")
		}
	}()
	pool.Unpin(PageRef{RunID: run.RunID, PageNo: 0})
}

func TestBufferPoolPinnedPagesSurviveBudget(t *testing.T) {
	disk := NewDisk(0, 0)
	run, _ := writeSorted(disk, 0, 1000, 1, 100)
	pool := NewBufferPool(disk, 2)
	// Pin 5 pages simultaneously: the pool must keep them all despite the
	// budget (pinned pages are never evicted).
	refs := make([]PageRef, 5)
	for p := 0; p < 5; p++ {
		refs[p] = PageRef{RunID: run.RunID, PageNo: p}
		if _, err := pool.Pin(refs[p]); err != nil {
			t.Fatal(err)
		}
	}
	if len(pool.resident) != 5 {
		t.Fatalf("resident = %d, want 5 while pinned", len(pool.resident))
	}
	for _, ref := range refs {
		pool.Unpin(ref)
	}
	if len(pool.resident) > 2 {
		t.Fatalf("resident = %d after unpinning, want <= budget 2", len(pool.resident))
	}
}

func TestBufferPoolPrefetch(t *testing.T) {
	disk := NewDisk(0, 0)
	run, _ := writeSorted(disk, 0, 400, 1, 100)
	pool := NewBufferPool(disk, 4)
	ref := PageRef{RunID: run.RunID, PageNo: 2}
	if err := pool.Prefetch(ref); err != nil {
		t.Fatal(err)
	}
	if len(pool.resident) != 1 {
		t.Fatalf("resident = %d after prefetch", len(pool.resident))
	}
	// The subsequent Pin must be a hit.
	if _, err := pool.Pin(ref); err != nil {
		t.Fatal(err)
	}
	if pool.Stats().Hits != 1 {
		t.Fatalf("Hits = %d, want 1", pool.Stats().Hits)
	}
	pool.Unpin(ref)

	// Prefetch is a no-op when the budget is full of unpinned pages... it
	// still must not grow the pool past the budget.
	for p := 0; p < 4; p++ {
		if err := pool.Prefetch(PageRef{RunID: run.RunID, PageNo: p}); err != nil {
			t.Fatal(err)
		}
	}
	if len(pool.resident) > 4 {
		t.Fatalf("resident = %d exceeds budget", len(pool.resident))
	}
}

func TestBufferPoolConcurrentAccess(t *testing.T) {
	disk := NewDisk(0, 0)
	run, _ := writeSorted(disk, 0, 10000, 1, 100) // 100 pages
	pool := NewBufferPool(disk, 8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for p := 0; p < run.Pages; p++ {
				ref := PageRef{RunID: run.RunID, PageNo: p}
				data, err := pool.Pin(ref)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if data.Keys[0] != uint64(p*100) {
					t.Errorf("worker %d: wrong page contents", w)
				}
				pool.Unpin(ref)
			}
		}(w)
	}
	wg.Wait()
}

func TestPrefetcherWarmsPool(t *testing.T) {
	disk := NewDisk(50*time.Microsecond, 0)
	runA, _ := writeSorted(disk, 0, 2000, 2, 200)
	runB, _ := writeSorted(disk, 1, 2000, 3, 200)
	idx := BuildPageIndex([]*PagedRun{runA, runB})
	pool := NewBufferPool(disk, 6)
	pf := NewPrefetcher(pool, idx, 4)
	pf.Start()

	// Walk the index like a worker would, reporting progress; thanks to
	// prefetching at least some pins should be hits.
	for pos, e := range idx.Entries {
		if _, err := pool.Pin(e.Page); err != nil {
			t.Fatal(err)
		}
		pool.Unpin(e.Page)
		pf.ReportProgress(pos + 1)
		time.Sleep(200 * time.Microsecond)
	}
	pf.Stop()
	if pool.Stats().Hits == 0 {
		t.Fatal("prefetcher produced no buffer pool hits")
	}
}

func TestPrefetcherStopIsIdempotentlySafe(t *testing.T) {
	disk := NewDisk(0, 0)
	run, _ := writeSorted(disk, 0, 100, 1, 50)
	idx := BuildPageIndex([]*PagedRun{run})
	pool := NewBufferPool(disk, 2)
	pf := NewPrefetcher(pool, idx, 2)
	pf.Start()
	pf.ReportProgress(len(idx.Entries))
	pf.Stop() // must not hang even after the prefetcher finished naturally
}

func TestPageIndexGlobalOrderMatchesKeyOrder(t *testing.T) {
	// Concatenating page min-keys in index order must itself be sorted,
	// which is what lets the workers move through the key domain
	// synchronously.
	disk := NewDisk(0, 0)
	var runs []*PagedRun
	for w := 0; w < 4; w++ {
		run, err := writeSorted(disk, w, 1000, uint64(w+2), 128)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run)
	}
	idx := BuildPageIndex(runs)
	keys := make([]uint64, len(idx.Entries))
	for i, e := range idx.Entries {
		keys[i] = e.MinKey
	}
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		t.Fatal("index min-keys not globally sorted")
	}
}
