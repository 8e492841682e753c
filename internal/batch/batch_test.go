package batch

import (
	"math/rand"
	"testing"

	"repro/internal/memory"
	"repro/internal/relation"
)

// TestSize pins the batch-size normalisation: anything that is not a positive
// size — 0 and, since the row regime went, negative values alike — selects
// DefaultSize.
func TestSize(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, DefaultSize},
		{-1, DefaultSize},
		{1, 1},
		{4096, 4096},
	}
	for _, tc := range cases {
		sc := NewScratch(tc.in, nil)
		if b := sc.Ranges(nil, nil, nil, nil); len(b.I) != tc.want || len(b.Hi) != tc.want {
			t.Fatalf("NewScratch(%d): range batch of %d entries, want %d", tc.in, len(b.I), tc.want)
		}
		sc.Close()
	}
}

func TestInterleaveRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 1000} {
		src := make([]relation.Tuple, n)
		for i := range src {
			src[i] = relation.Tuple{Key: rng.Uint64(), Payload: rng.Uint64()}
		}
		keys := make([]uint64, n)
		pays := make([]uint64, n)
		Deinterleave(src, keys, pays)
		back := make([]relation.Tuple, n)
		Interleave(keys, pays, back)
		for i := range src {
			if back[i] != src[i] {
				t.Fatalf("n=%d: roundtrip diverged at %d: %+v != %+v", n, i, back[i], src[i])
			}
		}
	}
}

func TestRunTuples(t *testing.T) {
	r := &Run{Keys: []uint64{1, 2, 3}, Payloads: []uint64{10, 20, 30}}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	got := r.Tuples([]relation.Tuple{{Key: 0, Payload: 0}})
	want := []relation.Tuple{{Key: 0, Payload: 0}, {Key: 1, Payload: 10}, {Key: 2, Payload: 20}, {Key: 3, Payload: 30}}
	if len(got) != len(want) {
		t.Fatalf("Tuples appended %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("tuple %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestScratchLifecycle(t *testing.T) {
	// Nil lease: plain allocations, Close is a no-op beyond zeroing.
	sc := NewScratch(0, nil)
	keys := []uint64{1, 2}
	b := sc.Ranges(keys, keys, keys[:1], keys[:1])
	for _, col := range [][]int32{b.I, b.IEnd, b.Lo, b.Hi} {
		if len(col) != DefaultSize {
			t.Fatalf("index column sized %d, want %d", len(col), DefaultSize)
		}
	}
	b.I[DefaultSize-1], b.IEnd[0] = 1, 2 // the four columns must not alias
	if b.IEnd[0] != 2 || b.I[DefaultSize-1] != 1 || len(b.RKeys) != 2 || len(b.SKeys) != 1 {
		t.Fatalf("range batch does not describe the call: %+v", b)
	}
	sc.Close()
	sc.Close() // double Close and nil receiver are safe
	(*Scratch)(nil).Close()

	// Pooled lease: the index buffer flows back and is reused by the next
	// scratch.
	lease := memory.NewPool(0).Acquire()
	sc = NewScratch(512, lease)
	firstIdx := &sc.idx[0]
	sc.Close()
	sc2 := NewScratch(512, lease)
	defer sc2.Close()
	if &sc2.idx[0] != firstIdx {
		t.Fatal("closed scratch index buffer was not reused by the next lease")
	}
}

// TestRangesHeadAndAll: Head cuts a batch that was filled through full-length
// index slices, again and again, and All walks the cut batch's pairs entry by
// entry and private tuple by private tuple, each tuple under its own key.
func TestRangesHeadAndAll(t *testing.T) {
	rKeys, rPays := []uint64{5, 5, 9}, []uint64{50, 51, 90}
	sKeys, sPays := []uint64{4, 5, 6, 0}, []uint64{40, 41, 42, 0}
	b := NewScratch(4, nil).Ranges(rKeys, rPays, sKeys, sPays)
	is, iEnds, los, his := b.I, b.IEnd, b.Lo, b.Hi
	type pair struct{ r, s relation.Tuple }
	walk := func(b *Ranges) (out []pair) {
		for r, s := range b.All() {
			out = append(out, pair{r, s})
		}
		return out
	}
	is[0], iEnds[0], los[0], his[0] = 0, 2, 0, 2 // band: {5, 5} × {4, 5}
	is[1], iEnds[1], los[1], his[1] = 2, 3, 3, 4 // null run: {9} × {0}
	got := walk(b.Head(2, 5))
	want := []pair{
		{relation.Tuple{Key: 5, Payload: 50}, relation.Tuple{Key: 4, Payload: 40}},
		{relation.Tuple{Key: 5, Payload: 50}, relation.Tuple{Key: 5, Payload: 41}},
		{relation.Tuple{Key: 5, Payload: 51}, relation.Tuple{Key: 4, Payload: 40}},
		{relation.Tuple{Key: 5, Payload: 51}, relation.Tuple{Key: 5, Payload: 41}},
		{relation.Tuple{Key: 9, Payload: 90}, relation.Tuple{}},
	}
	if len(b.I) != 2 || b.Pairs != 5 || len(got) != len(want) {
		t.Fatalf("Head(2, 5): %d entries, %d pairs, walked %v", len(b.I), b.Pairs, got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pair %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	is[0], iEnds[0], los[0], his[0] = 2, 3, 2, 3 // the next batch, one entry
	if got := walk(b.Head(1, 1)); len(got) != 1 || got[0].s.Payload != 42 || len(b.Hi) != 1 {
		t.Fatalf("second Head: walked %v", got)
	}
	for range b.All() {
		break // an early exit stops the walk
	}
}

// TestSelectRangeDifferential checks the branch-free kernel against a
// scalar reference across selectivities and range edge cases.
func TestSelectRangeDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = 4096
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64() % 1000
	}
	cases := []struct{ lo, hi uint64 }{
		{0, 0},       // empty range
		{500, 500},   // empty range, nonzero bounds
		{600, 400},   // inverted: selects nothing
		{0, 1 << 63}, // everything
		{0, 1},       // single key value
		{250, 750},   // ~50% selectivity
		{990, 1010},  // upper edge, partially out of domain
	}
	sel := make([]int32, n)
	for _, tc := range cases {
		var wantIdx []int32
		for i, k := range keys {
			if tc.lo <= k && k < tc.hi && tc.hi > tc.lo {
				wantIdx = append(wantIdx, int32(i))
			}
		}
		got := SelectRange(keys, tc.lo, tc.hi, sel)
		if got != len(wantIdx) {
			t.Fatalf("SelectRange[%d,%d) = %d, want %d", tc.lo, tc.hi, got, len(wantIdx))
		}
		for i := range wantIdx {
			if sel[i] != wantIdx[i] {
				t.Fatalf("SelectRange[%d,%d): sel[%d] = %d, want %d", tc.lo, tc.hi, i, sel[i], wantIdx[i])
			}
		}
	}

	// Boundary wrap: ranges touching the uint64 extremes must not wrap.
	extremes := []uint64{0, 1, 1<<64 - 2, 1<<64 - 1}
	if got := SelectRange(extremes, 1<<64-2, 1<<64-1, sel); got != 1 || sel[0] != 2 {
		t.Fatalf("SelectRange at uint64 max = %d (first %d), want 1 (index 2)", got, sel[0])
	}
	if got := SelectRange(extremes, 0, 1<<64-1, sel); got != 3 {
		t.Fatalf("SelectRange over near-full domain = %d, want 3", got)
	}
}
