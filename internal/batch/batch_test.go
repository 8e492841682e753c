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
		if got := sc.Cap(); got != tc.want {
			t.Fatalf("NewScratch(%d).Cap() = %d, want %d", tc.in, got, tc.want)
		}
		if b := sc.Ranges(nil, nil, nil, nil, 0); len(b.I) != tc.want || len(b.Hi) != tc.want || b.Null {
			t.Fatalf("NewScratch(%d): range batch of %d entries (null=%v), want %d", tc.in, len(b.I), b.Null, tc.want)
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
	if sc.Cap() != DefaultSize {
		t.Fatalf("Cap = %d, want DefaultSize", sc.Cap())
	}
	keys := []uint64{1, 2}
	b := sc.Ranges(keys, keys, keys[:1], keys[:1], 7)
	for _, col := range [][]int32{b.I, b.IEnd, b.Lo, b.Hi} {
		if len(col) != DefaultSize {
			t.Fatalf("index column sized %d, want %d", len(col), DefaultSize)
		}
	}
	b.I[DefaultSize-1], b.IEnd[0] = 1, 2 // the four columns must not alias
	if b.IEnd[0] != 2 || b.I[DefaultSize-1] != 1 || b.Band != 7 || len(b.RKeys) != 2 || len(b.SKeys) != 1 {
		t.Fatalf("range batch does not describe the call: %+v", b)
	}
	if got := sc.Columns(); len(got.Keys) != DefaultSize || len(got.RPayloads) != DefaultSize || len(got.SPayloads) != DefaultSize {
		t.Fatalf("gather columns sized %d, want %d", len(got.Keys), DefaultSize)
	}
	sc.Close()
	sc.Close() // double Close and nil receiver are safe
	(*Scratch)(nil).Close()

	// Pooled lease: buffers flow back and are reused by the next scratch; the
	// gather columns are only leased by the first expansion.
	lease := memory.NewPool(0).Acquire()
	sc = NewScratch(512, lease)
	if sc.out.Keys != nil {
		t.Fatal("gather columns leased before any expansion")
	}
	first := &sc.Columns().Keys[0]
	firstIdx := &sc.idx[0]
	sc.Close()
	sc2 := NewScratch(512, lease)
	defer sc2.Close()
	if &sc2.idx[0] != firstIdx {
		t.Fatal("closed scratch index buffer was not reused by the next lease")
	}
	cols := sc2.Columns()
	reused := false
	for _, col := range [][]uint64{cols.Keys, cols.RPayloads, cols.SPayloads} {
		if &col[0] == first {
			reused = true
		}
	}
	if !reused {
		t.Fatal("closed scratch column was not reused by the next lease")
	}
}

// TestSelectRangeDifferential checks the branch-free kernels against a
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
		if got := CountRange(keys, tc.lo, tc.hi); got != len(wantIdx) {
			t.Fatalf("CountRange[%d,%d) = %d, want %d", tc.lo, tc.hi, got, len(wantIdx))
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
	if got := CountRange(extremes, 1<<64-2, 1<<64-1); got != 1 {
		t.Fatalf("CountRange at uint64 max = %d, want 1", got)
	}
	if got := CountRange(extremes, 0, 1<<64-1); got != 3 {
		t.Fatalf("CountRange over near-full domain = %d, want 3", got)
	}
}
