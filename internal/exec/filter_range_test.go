package exec

import (
	"context"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/relation"
	"repro/internal/workload"
)

// TestFilterKeyRangeMatchesPredicateFilter runs the structured range scan (the
// borrow-bit test of the selection loop) against the same range as a predicate
// closure (the loop's predicate call) on identical inputs, across sizes on
// both sides of the parallel cutoff and across selectivities from empty to
// full.
func TestFilterKeyRangeMatchesPredicateFilter(t *testing.T) {
	ctx := context.Background()
	sizes := []int{0, 1, 100, filterParallelCutoff - 1, filterParallelCutoff + 1, 3 * filterParallelCutoff}
	ranges := []KeyRange{
		{Low: 0, High: 0},                   // empty
		{Low: 500, High: 400},               // inverted: empty
		{Low: 0, High: 1 << 32},             // everything (keys live in [0, 2^32))
		{Low: 1 << 30, High: 3 << 30},       // ~50%
		{Low: 1 << 31, High: 1<<31 + 1<<20}, // narrow band
	}
	for _, n := range sizes {
		rel := workload.UniformRelation("R", n, 1<<32, uint64(n)+7)
		for _, rng := range ranges {
			for _, workers := range []int{1, 4} {
				want, _ := applyScanFilter(ctx, rel, nil, rng.Predicate(), workers, nil)
				got, _ := applyScanFilter(ctx, rel, &rng, nil, workers, nil)
				if got.Len() != want.Len() {
					t.Fatalf("n=%d range=%+v workers=%d: %d tuples, predicate filter kept %d",
						n, rng, workers, got.Len(), want.Len())
				}
				for i := range got.Tuples {
					if got.Tuples[i] != want.Tuples[i] {
						t.Fatalf("n=%d range=%+v workers=%d: tuple %d = %+v, predicate filter %+v",
							n, rng, workers, i, got.Tuples[i], want.Tuples[i])
					}
				}
			}
		}
	}
}

// TestApplyScanFilterComposition: range and predicate compose as AND, and a
// scan with neither returns its input.
func TestApplyScanFilterComposition(t *testing.T) {
	ctx := context.Background()
	rel := workload.UniformRelation("R", 5000, 1<<32, 11)
	rng := &KeyRange{Low: 1 << 30, High: 3 << 31}
	oddPayload := func(t relation.Tuple) bool { return t.Payload&1 == 1 }

	// Scalar oracle.
	var want []relation.Tuple
	for _, tup := range rel.Tuples {
		if rng.Match(tup.Key) && oddPayload(tup) {
			want = append(want, tup)
		}
	}

	got, _ := applyScanFilter(ctx, rel, rng, oddPayload, 4, nil)
	if got.Len() != len(want) {
		t.Fatalf("composed filter kept %d tuples, oracle %d", got.Len(), len(want))
	}
	for i := range want {
		if got.Tuples[i] != want[i] {
			t.Fatalf("composed filter tuple %d = %+v, oracle %+v", i, got.Tuples[i], want[i])
		}
	}

	// nil range, nil predicate: input passes through untouched.
	passthrough, leased := applyScanFilter(ctx, rel, nil, nil, 4, nil)
	if leased || passthrough != rel {
		t.Fatal("nil range and predicate must return the input relation")
	}
}

// TestScanFilterAsksThePredicateOncePerTuple: the selection pass evaluates an
// opaque predicate exactly once per tuple — the gather reads the selection
// vector, it does not ask again — on both sides of the parallel cutoff, with
// and without a lease, and only for the tuples a key range lets through. The
// output is the scalar oracle's, in input order and exactly sized.
func TestScanFilterAsksThePredicateOncePerTuple(t *testing.T) {
	ctx := context.Background()
	pool := memory.NewPool(0)
	for _, n := range []int{0, 1, 1000, filterParallelCutoff - 1, 3*filterParallelCutoff + 5} {
		rel := workload.UniformRelation("R", n, 1<<32, uint64(n)+3)
		// MaxUint64 is a key like any other for a scan without a range.
		if n > 0 {
			rel.Tuples[n/2].Key = math.MaxUint64
			rel.Tuples[n/2].Payload = 1
		}
		for _, rng := range []*KeyRange{nil, {Low: 1 << 30, High: 3 << 30}} {
			for _, workers := range []int{1, 4} {
				for _, leased := range []bool{false, true} {
					var calls atomic.Int64
					oddPayload := func(tup relation.Tuple) bool {
						calls.Add(1)
						return tup.Payload&1 == 1
					}
					var want []relation.Tuple
					inRange := 0
					for _, tup := range rel.Tuples {
						if rng != nil && !rng.Match(tup.Key) {
							continue
						}
						inRange++
						if tup.Payload&1 == 1 {
							want = append(want, tup)
						}
					}
					var lease *memory.Lease
					if leased {
						lease = pool.Acquire()
					}
					got, fromLease := applyScanFilter(ctx, rel, rng, oddPayload, workers, lease)
					if fromLease != leased {
						t.Fatalf("n=%d range=%v workers=%d: leased = %v with lease %v", n, rng, workers, fromLease, leased)
					}
					if calls.Load() != int64(inRange) {
						t.Fatalf("n=%d range=%v workers=%d: the predicate was asked %d times for %d tuples in range", n, rng, workers, calls.Load(), inRange)
					}
					if got.Len() != len(want) || (!leased && cap(got.Tuples) != len(want)) {
						t.Fatalf("n=%d range=%v workers=%d: %d tuples (cap %d), oracle %d", n, rng, workers, got.Len(), cap(got.Tuples), len(want))
					}
					for i := range want {
						if got.Tuples[i] != want[i] {
							t.Fatalf("n=%d range=%v workers=%d: tuple %d = %+v, oracle %+v", n, rng, workers, i, got.Tuples[i], want[i])
						}
					}
					lease.Release()
				}
			}
		}
	}
}

// TestRunWithKeyRange drives the structured range through the one-join plan
// and checks it against the closure-predicate equivalent.
func TestRunWithKeyRange(t *testing.T) {
	r, s := dataset(3000, 2, 9)
	low, high := uint64(1)<<30, uint64(3)<<30

	base, baseR, baseS, err := oneJoin{
		r: r, s: s,
		rFilter: KeyRange{Low: low, High: high}.Predicate(),
		sFilter: KeyRange{Low: low, High: high}.Predicate(),
		opts:    core.Options{Workers: 4},
	}.run()
	if err != nil {
		t.Fatal(err)
	}
	res, resR, resS, err := oneJoin{
		r: r, s: s,
		rRange: &KeyRange{Low: low, High: high},
		sRange: &KeyRange{Low: low, High: high},
		opts:   core.Options{Workers: 4},
	}.run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches != base.Matches || res.MaxSum != base.MaxSum || resR != baseR || resS != baseS {
		t.Fatalf("KeyRange query got (%d, %d, %d, %d), predicate query (%d, %d, %d, %d)",
			res.Matches, res.MaxSum, resR, resS, base.Matches, base.MaxSum, baseR, baseS)
	}
	if res.Matches == 0 {
		t.Fatal("range selected nothing; test range is broken")
	}
}

// TestKeyRangeMatchAndPredicate covers the KeyRange helpers.
func TestKeyRangeMatchAndPredicate(t *testing.T) {
	r := KeyRange{Low: 10, High: 20}
	for k, want := range map[uint64]bool{9: false, 10: true, 15: true, 19: true, 20: false} {
		if r.Match(k) != want {
			t.Fatalf("Match(%d) = %v, want %v", k, r.Match(k), want)
		}
		if r.Predicate()(relation.Tuple{Key: k}) != want {
			t.Fatalf("Predicate()(%d) = %v, want %v", k, !want, want)
		}
	}
}
