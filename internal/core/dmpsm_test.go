package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/mergejoin"
	"repro/internal/relation"
	"repro/internal/result"
	"repro/internal/sched"
	"repro/internal/sink"
)

// TestDMPSMPageBoundaryDifferential drives D-MPSM's page walk where it can go
// wrong: keys from a domain of 12 on both sides, so every key group of a
// public run — and of the private run — spans several tuples, and pages of 1,
// 2, 3 and 7 tuples cut those groups everywhere; buffer-pool budgets of
// unlimited, one and three pages; one to three workers under both
// schedulers. Into Materialize the pairs must be the reference join's
// multiset, into max-sum its (count, max) — payloads are large enough for
// sums to wrap.
func TestDMPSMPageBoundaryDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	gen := func(n int) []relation.Tuple {
		out := make([]relation.Tuple, n)
		for i := range out {
			out[i] = relation.Tuple{Key: uint64(rng.Intn(12)), Payload: rng.Uint64() >> uint(rng.Intn(2)*40)}
		}
		return out
	}
	r, s := relation.New("R", gen(70)), relation.New("S", gen(110))
	var oracle mergejoin.Materializer
	var wantAgg mergejoin.MaxAggregate
	mergejoin.ReferenceJoin(r.Tuples, s.Tuples, &oracle)
	mergejoin.ReferenceJoin(r.Tuples, s.Tuples, &wantAgg)
	want := sortedJoined(oracle.Out)

	for _, pageSize := range []int{1, 2, 3, 7} {
		for _, budget := range []int{0, 1, 3} {
			for _, workers := range []int{1, 2, 3} {
				for _, mode := range []sched.Mode{sched.Static, sched.Morsel} {
					name := fmt.Sprintf("page=%d/budget=%d/T=%d/%v", pageSize, budget, workers, mode)
					diskOpts := DiskOptions{PageSize: pageSize, PageBudget: budget}
					opts := Options{Workers: workers, Scheduler: mode}

					mat := sink.NewMaterialize()
					opts.Sink = mat
					res, stats := dmpsm(r, s, opts, diskOpts)
					if stats.PublicPages < s.Len()/pageSize {
						t.Fatalf("%s: %d public pages for %d tuples", name, stats.PublicPages, s.Len())
					}
					got := make([]mergejoin.JoinedTuple, 0, len(mat.Pairs()))
					for _, p := range mat.Pairs() {
						if p.R.Key != p.S.Key {
							t.Fatalf("%s: pair with keys %d and %d", name, p.R.Key, p.S.Key)
						}
						got = append(got, mergejoin.JoinedTuple{Key: p.R.Key, RPayload: p.R.Payload, SPayload: p.S.Payload})
					}
					if res.Matches != uint64(len(want)) || !slices.Equal(sortedJoined(got), want) {
						t.Fatalf("%s: %d matches, %d pairs, the reference join has %d", name, res.Matches, len(got), len(want))
					}

					opts.Sink = nil
					res, _ = dmpsm(r, s, opts, diskOpts)
					if res.Matches != wantAgg.Count || res.MaxSum != wantAgg.Max {
						t.Fatalf("%s: max-sum (%d, %d), the reference join (%d, %d)", name, res.Matches, res.MaxSum, wantAgg.Count, wantAgg.Max)
					}
				}
			}
		}
	}
}

// TestDMPSMPrefetchesUnderEitherScheduler pins that phase 3 is the page-index
// walk with its prefetcher under both schedulers: one worker, a 16-page
// private run read back at 200 µs a page, and a budget of 16 pages leave the
// prefetcher time to load the first public pages before the worker pins them,
// so the buffer pool serves hits. A walk without the prefetcher pins each page
// once from one task and reads no hit.
func TestDMPSMPrefetchesUnderEitherScheduler(t *testing.T) {
	r, s := uniformDataset(4096, 2, 59)
	for _, mode := range []sched.Mode{sched.Static, sched.Morsel} {
		res, stats := dmpsm(r, s, Options{Workers: 1, Scheduler: mode},
			DiskOptions{PageSize: 256, PageBudget: 16, ReadLatency: 200 * time.Microsecond})
		checkJoinResult(t, "D-MPSM "+mode.String(), r, s, res.Matches, res.MaxSum)
		if stats.Pool.Hits == 0 {
			t.Fatalf("%v: no buffer-pool hits over %d public pages: %+v", mode, stats.PublicPages, stats.Pool)
		}
	}
}

// TestOutputBeyondOneBatchMatchesOracle: a kernel call whose output spans
// several batches of batch.DefaultSize range entries — one worker, one public
// run (or page) holding about three batches of distinct matching keys — hands
// the sink every batch, for each MPSM variant under both schedulers. Batches
// cut shorter are the kernel and sink tests' business.
func TestOutputBeyondOneBatchMatchesOracle(t *testing.T) {
	r, s := uniformDataset(3*batch.DefaultSize, 2, 61)
	var oracle mergejoin.Materializer
	mergejoin.ReferenceJoin(r.Tuples, s.Tuples, &oracle)
	want := sortedJoined(oracle.Out)
	for _, alg := range []string{"B", "P", "D"} {
		for _, mode := range []sched.Mode{sched.Static, sched.Morsel} {
			name := fmt.Sprintf("%s-MPSM/%v", alg, mode)
			mat := sink.NewMaterialize()
			opts := Options{Workers: 1, Scheduler: mode, Sink: mat}
			var res *result.Result
			if alg == "D" {
				res, _ = dmpsm(r, s, opts, DiskOptions{PageSize: s.Len()})
			} else {
				res = mpsmByName(alg)(r, s, opts)
			}
			got := make([]mergejoin.JoinedTuple, 0, len(mat.Pairs()))
			for _, p := range mat.Pairs() {
				got = append(got, mergejoin.JoinedTuple{Key: p.R.Key, RPayload: p.R.Payload, SPayload: p.S.Payload})
			}
			if res.Matches != uint64(len(want)) || !slices.Equal(sortedJoined(got), want) {
				t.Fatalf("%s: %d matches, %d pairs, the reference join has %d", name, res.Matches, len(got), len(want))
			}
			if res.Batch.Batches < 2 || res.Batch.Tuples != res.Matches {
				t.Fatalf("%s: Batch = %+v for %d matches from one kernel call, want several batches", name, res.Batch, res.Matches)
			}
		}
	}
}

// sortedJoined orders joined tuples so that two joins compare as multisets.
func sortedJoined(ts []mergejoin.JoinedTuple) []mergejoin.JoinedTuple {
	slices.SortFunc(ts, func(a, b mergejoin.JoinedTuple) int {
		return cmp.Or(cmp.Compare(a.Key, b.Key), cmp.Compare(a.RPayload, b.RPayload), cmp.Compare(a.SPayload, b.SPayload))
	})
	return ts
}
