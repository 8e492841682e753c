package sink

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"repro/internal/batch"
	"repro/internal/mergejoin"
	"repro/internal/relation"
)

// rangeRuns builds two key-sorted runs whose key groups cover every
// multiplicity class (1×1, 1×n, m×1, m×n, unmatched keys on both sides) and
// whose payloads sit either just above 0 or just below 2^64, so within one
// group some sums of two wrap around and others do not.
func rangeRuns(seed uint64) (r, s []relation.Tuple) {
	rng := splitmix(seed)
	gen := func(n int, dupMask uint64) []relation.Tuple {
		out := make([]relation.Tuple, 0, n)
		for key := uint64(3); len(out) < n; key += 1 + rng.next()%40 {
			for d := rng.next() & dupMask; ; d-- {
				pay := rng.next() % 1000
				if rng.next()%2 == 0 {
					pay = ^pay
				}
				out = append(out, relation.Tuple{Key: key, Payload: pay})
				if d == 0 || len(out) == n {
					break
				}
			}
		}
		return out
	}
	return gen(700, 3), gen(900, 7)
}

// columnsOf deinterleaves a run.
func columnsOf(run []relation.Tuple) (keys, pays []uint64) {
	keys, pays = make([]uint64, len(run)), make([]uint64, len(run))
	batch.Deinterleave(run, keys, pays)
	return keys, pays
}

// projectedPairs is the oracle's view of a join: the brute-force band join's
// pairs, filtered and rewritten by check (nil accepts all), projected.
func projectedPairs(r, s []relation.Tuple, band uint64, check PairCheck, project Projection) []relation.Tuple {
	var out []relation.Tuple
	mergejoin.ReferenceJoinBand(r, s, band, consumerFunc(func(rt, st relation.Tuple) {
		if check != nil {
			rp, sp, ok := check(rt.Payload, st.Payload)
			if !ok {
				return
			}
			rt.Payload, st.Payload = rp, sp
		}
		out = append(out, project(rt, st))
	}))
	return out
}

type consumerFunc func(r, s relation.Tuple)

func (f consumerFunc) Consume(r, s relation.Tuple) { f(r, s) }

// joinInto runs the range kernel over the two runs, as core does it: one
// writer, one kernel scratch of the given batch size.
func joinInto(b *Bound, r, s []relation.Tuple, band uint64, batchSize int) {
	rKeys, rPays := columnsOf(r)
	sKeys, sPays := columnsOf(s)
	sc := batch.NewScratch(batchSize, nil)
	defer sc.Close()
	mergejoin.JoinColumnsBand(rKeys, rPays, sKeys, sPays, band, b.Writer(0), sc)
}

var allValues = []Value{ValuePayloadSum, ValueBuildPayload, ValueProbePayload, ValueBuildKey, ValueProbeKey}

// TestFoldedRangesMatchExpandedPairs: for every aggregate and every
// projection the kernel recognises, a group-by fed whole ranges reports
// exactly what it reports when the same projection comes as an opaque
// closure and every pair is expanded, and what the map oracle computes from
// the brute-force join — on payloads whose sums wrap, for an equi-join and a
// band join (where the probe key is not the group key), at batch sizes that
// cut the range batches everywhere. The match counters agree too, and every
// match is batched: an opaque projection walks the pairs of the batches it
// takes, band joins included.
func TestFoldedRangesMatchExpandedPairs(t *testing.T) {
	r, s := rangeRuns(11)
	for _, band := range []uint64{0, 16} {
		for _, v := range allValues {
			project := v.Projection()
			pairs := projectedPairs(r, s, band, nil, project)
			for _, agg := range allAggs {
				want := mapAggregate(pairs, agg)
				for _, size := range []int{1, 3, 1024} {
					name := fmt.Sprintf("band=%d/value=%d/%v/batch=%d", band, v, agg, size)
					for _, value := range []Value{v, ValueOpaque} {
						g := NewGroups(context.Background(), agg, project, value, nil)
						b := BindChecked(g, 1, nil, nil)
						joinInto(b, r, s, band, size)
						if err := b.Close(); err != nil {
							t.Fatal(err)
						}
						checkGroups(t, fmt.Sprintf("%s/as=%d", name, value), g.Rows(), want)
						if b.Matches() != uint64(len(pairs)) {
							t.Fatalf("%s/as=%d: counted %d pairs, the join has %d", name, value, b.Matches(), len(pairs))
						}
						batches, batched := b.Batches()
						if batches == 0 || batched != b.Matches() {
							t.Fatalf("%s/as=%d: %d batches carrying %d of %d pairs", name, value, batches, batched, b.Matches())
						}
					}
				}
			}
			if v == ValuePayloadSum { // nil selects the default projection, recognised
				g := NewGroups(context.Background(), AggMin, nil, ValueOpaque, nil)
				b := BindChecked(g, 1, nil, nil)
				joinInto(b, r, s, band, 5)
				if err := b.Close(); err != nil {
					t.Fatal(err)
				}
				checkGroups(t, "nil projection", g.Rows(), mapAggregate(pairs, AggMin))
			}
		}
	}
}

// TestOpaqueProjectionSeesEveryPair: a closure the kernel cannot see into is
// called once per pair, with both tuples as the row kernels deliver them —
// the probe tuple under its own key in a band join.
func TestOpaqueProjectionSeesEveryPair(t *testing.T) {
	r, s := rangeRuns(12)
	for _, band := range []uint64{0, 16} {
		calls := 0
		custom := func(rt, st relation.Tuple) relation.Tuple {
			calls++
			return relation.Tuple{Key: st.Key % 64, Payload: rt.Payload ^ st.Payload}
		}
		pairs := projectedPairs(r, s, band, nil, custom)
		calls = 0
		g := NewGroups(context.Background(), AggMax, custom, ValueOpaque, nil)
		b := BindChecked(g, 1, nil, nil)
		joinInto(b, r, s, band, 7)
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		if calls != len(pairs) || b.Matches() != uint64(len(pairs)) {
			t.Fatalf("band=%d: projection called %d times, %d counted, the join has %d pairs", band, calls, b.Matches(), len(pairs))
		}
		checkGroups(t, "custom projection", g.Rows(), mapAggregate(pairs, AggMax))
	}
}

// TestKeyCheckExpandsRanges: under a tie-break verifier no range reaches the
// sink — every candidate pair passes the check, rejected pairs vanish before
// they are counted, and accepted ones carry the rewritten payloads — even
// though the sink behind it would have folded ranges; the survivors of each
// batch still count as one batch.
func TestKeyCheckExpandsRanges(t *testing.T) {
	r, s := rangeRuns(13)
	check := func(rp, sp uint64) (uint64, uint64, bool) { return rp % 977, sp % 977, (rp+sp)%3 != 0 }
	for _, v := range []Value{ValuePayloadSum, ValueProbePayload} {
		pairs := projectedPairs(r, s, 0, check, v.Projection())
		for _, agg := range allAggs {
			g := NewGroups(context.Background(), agg, v.Projection(), v, nil)
			b := BindChecked(g, 1, nil, check)
			joinInto(b, r, s, 0, 3)
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			if b.Matches() != uint64(len(pairs)) || len(pairs) == 0 {
				t.Fatalf("value=%d/%v: counted %d pairs, %d pass the check", v, agg, b.Matches(), len(pairs))
			}
			if batches, batched := b.Batches(); batches == 0 || batched != b.Matches() {
				t.Fatalf("value=%d/%v: %d batches carrying %d of %d verified pairs", v, agg, batches, batched, b.Matches())
			}
			checkGroups(t, fmt.Sprintf("checked/value=%d/%v", v, agg), g.Rows(), mapAggregate(pairs, agg))
		}
	}
}

// TestRangeSinksMatchPairwise: the sinks that fold ranges (MaxSum, Count)
// and the ones that walk their pairs (Materialize, Collect, TopK, Func)
// all see the brute-force join, through the counting writer.
func TestRangeSinksMatchPairwise(t *testing.T) {
	r, s := rangeRuns(14)
	byPair := func(ps []Pair) {
		sort.Slice(ps, func(i, j int) bool {
			a, b := ps[i], ps[j]
			if a.R != b.R {
				return a.R.Key < b.R.Key || a.R.Key == b.R.Key && a.R.Payload < b.R.Payload
			}
			return a.S.Key < b.S.Key || a.S.Key == b.S.Key && a.S.Payload < b.S.Payload
		})
	}
	for _, band := range []uint64{0, 16} {
		var want []Pair
		var wantMax mergejoin.MaxAggregate
		mergejoin.ReferenceJoinBand(r, s, band, consumerFunc(func(rt, st relation.Tuple) {
			want = append(want, Pair{R: rt, S: st})
			wantMax.Consume(rt, st)
		}))
		byPair(want)
		for _, size := range []int{1, 3, 1024} {
			name := fmt.Sprintf("band=%d/batch=%d", band, size)
			run := func(snk Sink) *Bound {
				b := BindChecked(snk, 1, nil, nil)
				joinInto(b, r, s, band, size)
				if err := b.Close(); err != nil {
					t.Fatal(err)
				}
				if b.Matches() != uint64(len(want)) {
					t.Fatalf("%s/%T: counted %d pairs, the join has %d", name, snk, b.Matches(), len(want))
				}
				return b
			}

			maxSum, count := NewMaxSum(), NewCount()
			b := run(maxSum)
			run(count)
			if maxSum.Matches() != wantMax.Count || maxSum.Max() != wantMax.Max || count.Total() != wantMax.Count {
				t.Fatalf("%s: MaxSum (%d, %d), Count %d, pair by pair %+v", name, maxSum.Matches(), maxSum.Max(), count.Total(), wantMax)
			}
			if batches, batched := b.Batches(); batches == 0 || batched != wantMax.Count {
				t.Fatalf("%s: MaxSum took %d batches carrying %d of %d pairs", name, batches, batched, wantMax.Count)
			}

			mat := NewMaterialize()
			run(mat)
			var streamed []Pair
			run(NewFunc(func(rt, st relation.Tuple) { streamed = append(streamed, Pair{R: rt, S: st}) }))
			for which, got := range [][]Pair{append([]Pair(nil), mat.Pairs()...), streamed} {
				byPair(got)
				if len(got) != len(want) {
					t.Fatalf("%s/%d: %d pairs, want %d", name, which, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s/%d: pair %d = %+v, want %+v", name, which, i, got[i], want[i])
					}
				}
			}

			collect := NewCollect(ValueProbeKey.Projection(), nil)
			run(collect)
			rows := append([]relation.Tuple(nil), collect.Rows()...)
			wantRows := projectedPairs(r, s, band, nil, ValueProbeKey.Projection())
			for _, ts := range [][]relation.Tuple{rows, wantRows} {
				sort.Slice(ts, func(i, j int) bool {
					return ts[i].Key < ts[j].Key || ts[i].Key == ts[j].Key && ts[i].Payload < ts[j].Payload
				})
			}
			if fmt.Sprint(rows) != fmt.Sprint(wantRows) {
				t.Fatalf("%s: Collect's rows differ from the projected oracle pairs", name)
			}

			top := NewTopK(1)
			run(top)
			if got := top.Top(); len(got) != 1 || got[0].Sum() != wantMax.Max {
				t.Fatalf("%s: TopK(1) = %+v, largest sum is %d", name, got, wantMax.Max)
			}
		}
	}
}
