package sink

import (
	"sort"
	"testing"

	"repro/internal/relation"
)

// emit distributes n pairs round-robin over the sink's workers, mimicking a
// parallel join's per-worker emission.
func emit(t *testing.T, s Sink, workers int, pairs []Pair) *Bound {
	t.Helper()
	b := BindChecked(s, workers, nil, nil)
	for i, p := range pairs {
		b.Writer(i%workers).Consume(p.R, p.S)
	}
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return b
}

func testPairs(n int) []Pair {
	pairs := make([]Pair, n)
	for i := range pairs {
		pairs[i] = Pair{
			R: relation.Tuple{Key: uint64(i), Payload: uint64(i * 3)},
			S: relation.Tuple{Key: uint64(i), Payload: uint64(i * 5)},
		}
	}
	return pairs
}

func TestBindDefaultsToMaxSum(t *testing.T) {
	b := emit(t, nil, 4, testPairs(100))
	if b.Matches() != 100 {
		t.Fatalf("Matches = %d, want 100", b.Matches())
	}
	if want := uint64(99 * 8); b.MaxSum() != want {
		t.Fatalf("MaxSum = %d, want %d", b.MaxSum(), want)
	}
}

func TestBoundWorkerMatches(t *testing.T) {
	b := emit(t, NewCount(), 4, testPairs(10))
	var sum uint64
	for w := 0; w < 4; w++ {
		sum += b.WorkerMatches(w)
	}
	if sum != 10 || b.Matches() != 10 {
		t.Fatalf("per-worker sum %d, total %d, want 10", sum, b.Matches())
	}
	// A sink without a Max method reports 0.
	if b.MaxSum() != 0 {
		t.Fatalf("MaxSum on a Count sink = %d, want 0", b.MaxSum())
	}
}

func TestMaxSumMatchesSequentialAggregate(t *testing.T) {
	pairs := testPairs(1000)
	ms := NewMaxSum()
	emit(t, ms, 7, pairs)
	if ms.Matches() != 1000 {
		t.Fatalf("Matches = %d, want 1000", ms.Matches())
	}
	if want := uint64(999 * 8); ms.Max() != want {
		t.Fatalf("Max = %d, want %d", ms.Max(), want)
	}
}

func TestCountTotal(t *testing.T) {
	c := NewCount()
	emit(t, c, 3, testPairs(17))
	if c.Total() != 17 {
		t.Fatalf("Total = %d, want 17", c.Total())
	}
}

func TestMaterializeCollectsEveryPair(t *testing.T) {
	pairs := testPairs(256)
	m := NewMaterialize()
	emit(t, m, 5, pairs)
	got := m.Pairs()
	if len(got) != len(pairs) {
		t.Fatalf("got %d pairs, want %d", len(got), len(pairs))
	}
	sort.Slice(got, func(i, j int) bool { return got[i].R.Key < got[j].R.Key })
	for i := range got {
		if got[i] != pairs[i] {
			t.Fatalf("pair %d = %+v, want %+v", i, got[i], pairs[i])
		}
	}
	rel := m.Relation("out")
	if rel.Len() != len(pairs) {
		t.Fatalf("Relation has %d tuples, want %d", rel.Len(), len(pairs))
	}
}

func TestTopKKeepsTheBestPairs(t *testing.T) {
	pairs := testPairs(500)
	k := 10
	tk := NewTopK(k)
	emit(t, tk, 6, pairs)
	top := tk.Top()
	if len(top) != k {
		t.Fatalf("got %d pairs, want %d", len(top), k)
	}
	// The best 10 sums are those of the last 10 generated pairs, descending.
	for i, p := range top {
		if want := uint64((499 - i) * 8); p.Sum() != want {
			t.Fatalf("top[%d].Sum = %d, want %d", i, p.Sum(), want)
		}
	}
	// Fewer pairs than k: everything is retained.
	small := NewTopK(10)
	emit(t, small, 2, testPairs(3))
	if len(small.Top()) != 3 {
		t.Fatalf("small Top() = %d pairs, want 3", len(small.Top()))
	}
	// k <= 0 keeps nothing.
	none := NewTopK(0)
	emit(t, none, 2, testPairs(3))
	if len(none.Top()) != 0 {
		t.Fatalf("k=0 Top() = %d pairs, want 0", len(none.Top()))
	}
}

func TestFuncSerializesCallbacks(t *testing.T) {
	var seen []Pair
	f := NewFunc(func(r, s relation.Tuple) { seen = append(seen, Pair{R: r, S: s}) })
	emit(t, f, 4, testPairs(64))
	if len(seen) != 64 {
		t.Fatalf("callback saw %d pairs, want 64", len(seen))
	}
}

func TestSinkReuseAcrossSequentialJoins(t *testing.T) {
	// Open must reset state so one sink can serve several sequential joins.
	ms := NewMaxSum()
	emit(t, ms, 4, testPairs(50))
	first := ms.Matches()
	emit(t, ms, 2, testPairs(20))
	if first != 50 || ms.Matches() != 20 {
		t.Fatalf("reuse broken: first %d (want 50), second %d (want 20)", first, ms.Matches())
	}
}
