package sink

import (
	"testing"

	"repro/internal/batch"
	"repro/internal/relation"
)

// pairBatch is a range batch of one entry per pair: the private tuple
// (keys[x], rp[x]) against the public tuple (keys[x], sp[x]).
func pairBatch(keys, rp, sp []uint64) *batch.Ranges {
	b := batch.NewScratch(len(keys), nil).Ranges(keys, rp, keys, sp)
	is, iEnds, los, his := b.I, b.IEnd, b.Lo, b.Hi
	for x := range keys {
		is[x], iEnds[x], los[x], his[x] = int32(x), int32(x+1), int32(x), int32(x+1)
	}
	return b.Head(len(keys), uint64(len(keys)))
}

// TestBoundBatchCounters checks that the sink boundary counts batches and
// batched pairs separately from pairs handed over one by one, and that a
// range batch feeds the same aggregate as per-pair emission.
func TestBoundBatchCounters(t *testing.T) {
	m := NewMaxSum()
	b := BindChecked(m, 2, nil, nil)

	// Worker 0: two batches. Worker 1: row-at-a-time pairs.
	w0 := b.Writer(0)
	w0.ConsumeRanges(pairBatch([]uint64{1, 2, 3}, []uint64{10, 20, 30}, []uint64{1, 2, 3}))
	w0.ConsumeRanges(pairBatch([]uint64{4}, []uint64{40}, []uint64{4}))
	b.Writer(1).Consume(relation.Tuple{Key: 9, Payload: 100}, relation.Tuple{Key: 9, Payload: 11})

	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if b.Matches() != 5 {
		t.Fatalf("Matches = %d, want 5", b.Matches())
	}
	batches, pairs := b.Batches()
	if batches != 2 || pairs != 4 {
		t.Fatalf("Batches() = (%d, %d), want (2, 4)", batches, pairs)
	}
	if b.MaxSum() != 111 {
		t.Fatalf("MaxSum = %d, want 111", b.MaxSum())
	}
	if got := b.WorkerMatches(0); got != 4 {
		t.Fatalf("WorkerMatches(0) = %d, want 4", got)
	}
}
