package mergejoin

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/batch"
	"repro/internal/relation"
	"repro/internal/search"
)

// sortedColumns builds a key-sorted tuple slice from (key, payload) pairs and
// returns it along with its deinterleaved columns.
func sortedColumns(tuples []relation.Tuple) ([]relation.Tuple, []uint64, []uint64) {
	sort.SliceStable(tuples, func(i, j int) bool { return tuples[i].Key < tuples[j].Key })
	keys := make([]uint64, len(tuples))
	pays := make([]uint64, len(tuples))
	batch.Deinterleave(tuples, keys, pays)
	return tuples, keys, pays
}

// randomSorted generates a sorted run with heavy duplicate groups: keys are
// drawn from a small domain so most keys collide, exercising the cross-product
// emission. Payloads span the whole uint64 domain, so payload sums wrap.
func randomSorted(n int, domain uint64, seed int64) ([]relation.Tuple, []uint64, []uint64) {
	rng := rand.New(rand.NewSource(seed))
	tuples := make([]relation.Tuple, n)
	for i := range tuples {
		tuples[i] = relation.Tuple{Key: rng.Uint64() % domain, Payload: rng.Uint64()}
	}
	return sortedColumns(tuples)
}

// pair is one joined pair with both keys, which a band join needs.
type pair struct{ r, s relation.Tuple }

// plainConsumer records pairs through Consume only: the kernel reaches it
// through the pair walk of Pairs.
type plainConsumer struct{ pairs []pair }

func (p *plainConsumer) Consume(r, s relation.Tuple) { p.pairs = append(p.pairs, pair{r, s}) }

// rangeConsumer takes the range batches themselves: it checks that every
// entry is non-empty, that Pairs is the sum of the entries' m·n and that no
// batch holds more entries than the scratch, and records the batch's pairs
// through batch.Ranges.All.
type rangeConsumer struct {
	t          *testing.T
	pairs      []pair
	maxEntries int
}

func (c *rangeConsumer) ConsumeRanges(b *batch.Ranges) {
	var pairs uint64
	for x, i := range b.I {
		if i >= b.IEnd[x] || b.Lo[x] >= b.Hi[x] {
			c.t.Fatalf("empty entry [%d, %d) × [%d, %d)", i, b.IEnd[x], b.Lo[x], b.Hi[x])
		}
		pairs += uint64(b.IEnd[x]-i) * uint64(b.Hi[x]-b.Lo[x])
	}
	if pairs != b.Pairs {
		c.t.Fatalf("a batch of %d pairs says it has %d", pairs, b.Pairs)
	}
	c.maxEntries = max(c.maxEntries, len(b.I))
	for r, s := range b.All() {
		c.pairs = append(c.pairs, pair{r, s})
	}
}

func requireSamePairs(t *testing.T, name string, want, got []pair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, want %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: pair %d is %+v, want %+v", name, i, got[i], want[i])
		}
	}
}

// sortPairs orders pairs canonically for multiset comparison.
func sortPairs(ps []pair) []pair {
	sort.Slice(ps, func(i, j int) bool {
		a, b := ps[i], ps[j]
		switch {
		case a.r != b.r:
			return a.r.Key < b.r.Key || a.r.Key == b.r.Key && a.r.Payload < b.r.Payload
		default:
			return a.s.Key < b.s.Key || a.s.Key == b.s.Key && a.s.Payload < b.s.Payload
		}
	})
	return ps
}

// rangeKernelInputs are the shapes the range kernel is checked on: every
// multiplicity class, the degenerate sizes, and keys at both ends of the
// uint64 domain, where k − band and k + band must clamp instead of wrapping.
func rangeKernelInputs() []struct {
	name string
	r, s []relation.Tuple
} {
	const top = ^uint64(0)
	mk := func(keys ...uint64) []relation.Tuple {
		out := make([]relation.Tuple, len(keys))
		for i, k := range keys {
			out[i] = relation.Tuple{Key: k, Payload: top - uint64(i)*3} // sums wrap
		}
		return out
	}
	seq := func(n int, step, dup uint64) []relation.Tuple {
		var keys []uint64
		for i := 0; i < n; i++ {
			for d := uint64(0); d < dup; d++ {
				keys = append(keys, uint64(i)*step)
			}
		}
		return mk(keys...)
	}
	denseR, _, _ := randomSorted(300, 20, 1)
	denseS, _, _ := randomSorted(300, 25, 2)
	sparseR, _, _ := randomSorted(200, 1<<40, 3)
	sparseS, _, _ := randomSorted(200, 1<<40, 4)
	skewR, _, _ := randomSorted(300, 7, 5)
	skewS, _, _ := randomSorted(300, 250, 6)
	return []struct {
		name string
		r, s []relation.Tuple
	}{
		{"1x1", seq(200, 3, 1), seq(200, 2, 1)},
		{"1xn", seq(100, 3, 1), seq(150, 2, 5)},
		{"mxn", seq(60, 3, 4), seq(90, 2, 3)},
		{"all-equal", seq(1, 1, 40), seq(1, 1, 40)},
		{"empty-private", nil, seq(50, 1, 2)},
		{"empty-public", seq(50, 1, 2), nil},
		{"single-private", mk(7), seq(20, 1, 2)},
		{"single-public", seq(20, 1, 2), mk(7)},
		{"single-both", mk(7), mk(9)},
		{"domain-edges", mk(0, 0, 1, 5, top-5, top-1, top, top), mk(0, 2, 3, 17, top-17, top-3, top-1, top)},
		{"dense-duplicates", denseR, denseS},
		{"sparse", sparseR, sparseS},
		{"skewed", skewR, skewS},
		// Payloads about 2^63 on both sides of one duplicate group: the sum
		// of the largest payloads wraps, some pair sums wrap and others do
		// not, and the largest sum is 2^64 − 10, of two payloads below the
		// sides' largest.
		{"half-wrap",
			[]relation.Tuple{{Key: 5, Payload: 1<<63 + 7}, {Key: 5, Payload: 1<<63 - 9}, {Key: 5, Payload: 3}, {Key: 9, Payload: 1 << 63}, {Key: 9, Payload: 1}},
			[]relation.Tuple{{Key: 5, Payload: 1<<63 + 2}, {Key: 5, Payload: 12}, {Key: 5, Payload: 1<<63 - 1}, {Key: 9, Payload: 1<<63 - 1}}},
	}
}

// TestRangeKernelMatchesOracle is the differential test of the range kernel:
// for every input shape, band width and batch size — small sizes make key
// groups and windows straddle every batch boundary — the pairs it delivers,
// walked by the Pairs adapter or by a consumer of the batches themselves, are
// multiset-equal to the brute-force oracle's and in the order the row kernels
// emit; and the consumers that fold ranges, and FoldColumns with and without
// the skip, report what they report when fed the oracle's
// pairs one by one.
func TestRangeKernelMatchesOracle(t *testing.T) {
	bands := []uint64{0, 1, 16, 1 << 41, ^uint64(0) - 2, ^uint64(0)}
	for _, in := range rangeKernelInputs() {
		_, rKeys, rPays := sortedColumns(in.r)
		_, sKeys, sPays := sortedColumns(in.s)
		for _, band := range bands {
			var oracle, rows plainConsumer
			ReferenceJoinBand(in.r, in.s, band, &oracle)
			JoinBand(in.r, in.s, band, &rows)
			requireSamePairs(t, in.name+"/JoinBand vs oracle", sortPairs(oracle.pairs), sortPairs(append([]pair(nil), rows.pairs...)))
			if band == 0 {
				var equi plainConsumer
				ReferenceJoin(in.r, in.s, &equi)
				requireSamePairs(t, in.name+"/ReferenceJoin vs band-0 oracle", sortPairs(oracle.pairs), sortPairs(equi.pairs))
			}
			var wantMax MaxAggregate
			var wantCount Counter
			for _, p := range rows.pairs {
				wantMax.Consume(p.r, p.s)
				wantCount.Consume(p.r, p.s)
			}

			if band == 0 {
				for _, skip := range []bool{false, true} {
					wantScanned := len(sKeys)
					if skip {
						wantScanned = JoinColumnsWithSkip(rKeys, rPays, sKeys, sPays, 0, new(Counter), nil)
					}
					pairs, maxSum, scanned := FoldColumns(rKeys, rPays, sKeys, sPays, skip)
					if pairs != wantMax.Count || maxSum != wantMax.Max || scanned != wantScanned {
						t.Fatalf("%s/skip=%t: FoldColumns = (%d, %d, scanned %d), pair by pair %+v, scanned %d", in.name, skip, pairs, maxSum, scanned, wantMax, wantScanned)
					}
				}
			}
			for _, size := range []int{1, 3, 1024} {
				name := fmt.Sprintf("%s/band=%d/batch=%d", in.name, band, size)
				sc := batch.NewScratch(size, nil)

				var plain plainConsumer
				JoinColumnsBand(rKeys, rPays, sKeys, sPays, band, Pairs(&plain), sc)
				requireSamePairs(t, name+"/plain", rows.pairs, plain.pairs)

				ranges := rangeConsumer{t: t}
				JoinColumnsBand(rKeys, rPays, sKeys, sPays, band, &ranges, sc)
				requireSamePairs(t, name+"/ranges", rows.pairs, ranges.pairs)
				if ranges.maxEntries > size {
					t.Fatalf("%s: a batch of %d entries from a scratch of %d", name, ranges.maxEntries, size)
				}

				var gotMax MaxAggregate
				var gotCount Counter
				JoinColumnsBand(rKeys, rPays, sKeys, sPays, band, &gotMax, sc)
				JoinColumnsBand(rKeys, rPays, sKeys, sPays, band, &gotCount, sc)
				if gotMax != wantMax || gotCount != wantCount {
					t.Fatalf("%s: folded (%+v, %+v), pair by pair (%+v, %+v)", name, gotMax, gotCount, wantMax, wantCount)
				}
				sc.Close()
			}
		}
	}
}

// windowSpy is a RangeConsumer that records what the kernel was let loose on.
type windowSpy struct {
	public int // length of the public columns the kernel scanned
	pairs  uint64
}

func (w *windowSpy) ConsumeRanges(b *batch.Ranges) {
	w.public = len(b.SKeys)
	w.pairs += b.Pairs
}

// TestSkipEntersPublicRunAtTheWindow is the regression test for morsel-mode
// band joins rescanning every public run from index 0: a task joins one
// 8192-tuple segment of a private run against a public run, and used to walk
// the public run linearly up to the segment's window — twice, once to join
// and once more to count what it had scanned. The kernel must be handed the
// window and nothing else: for the LAST segment of a 2^20-tuple private run,
// the public columns it sees and the scan count it returns are exactly the
// public tuples within the band of the segment's key range, a sliver of the
// run, and the pairs are the row kernel's.
func TestSkipEntersPublicRunAtTheWindow(t *testing.T) {
	const n, segment = 1 << 20, 8192
	rng := rand.New(rand.NewSource(9))
	rKeys, rPays := make([]uint64, n), make([]uint64, n)
	sKeys, sPays := make([]uint64, n), make([]uint64, n)
	for i := range rKeys {
		rKeys[i], sKeys[i] = rng.Uint64()%(1<<24), rng.Uint64()%(1<<24)
	}
	sort.Slice(rKeys, func(i, j int) bool { return rKeys[i] < rKeys[j] })
	sort.Slice(sKeys, func(i, j int) bool { return sKeys[i] < sKeys[j] })
	segKeys, segPays := rKeys[n-segment:], rPays[n-segment:]

	for _, band := range []uint64{0, 16} {
		low, high := segKeys[0]-band, segKeys[segment-1]+band
		start := sort.Search(n, func(i int) bool { return sKeys[i] >= low })
		end := sort.Search(n, func(i int) bool { return sKeys[i] > high })
		window := end - start
		if window == 0 || window > n/64 {
			t.Fatalf("band=%d: window of %d public tuples, test input is broken", band, window)
		}

		var spy windowSpy
		scanned := JoinColumnsWithSkip(segKeys, segPays, sKeys, sPays, band, &spy, nil)
		if scanned != window || spy.public != window {
			t.Fatalf("band=%d: scanned %d and handed the kernel %d public tuples, the window holds %d of %d",
				band, scanned, spy.public, window, n)
		}

		seg, pub := make([]relation.Tuple, segment), make([]relation.Tuple, window)
		batch.Interleave(segKeys, segPays, seg)
		batch.Interleave(sKeys[start:end], sPays[start:end], pub)
		var want Counter
		JoinBand(seg, pub, band, &want)
		if spy.pairs != want.Count || want.Count == 0 {
			t.Fatalf("band=%d: %d pairs, row kernel on the window %d", band, spy.pairs, want.Count)
		}
	}
}

// TestJoinColumnsWithSkipMatchesRow requires the skip variant to scan exactly
// the window of the public run the private key range reaches and to emit the
// row kernel's pairs, in its order.
func TestJoinColumnsWithSkipMatchesRow(t *testing.T) {
	// Private run covering a narrow key band in the middle of the public run.
	rTuples := make([]relation.Tuple, 0, 64)
	for k := uint64(5000); k < 5064; k++ {
		rTuples = append(rTuples, relation.Tuple{Key: k, Payload: k * 3})
	}
	rTuples, rKeys, rPays := sortedColumns(rTuples)
	sTuples, sKeys, sPays := randomSorted(20000, 10000, 3)

	var want, got plainConsumer
	start := search.LowerBoundKeys(sKeys, rKeys[0])
	end := search.UpperBoundKeys(sKeys, rKeys[len(rKeys)-1])
	wantScanned := end - start
	Join(rTuples, sTuples[start:end], &want)
	gotScanned := JoinColumnsWithSkip(rKeys, rPays, sKeys, sPays, 0, Pairs(&got), nil)
	if gotScanned != wantScanned {
		t.Fatalf("scanned %d, want %d", gotScanned, wantScanned)
	}
	requireSamePairs(t, "with-skip", want.pairs, got.pairs)

	if n := JoinColumnsWithSkip(nil, nil, sKeys, sPays, 3, Pairs(&got), nil); n != 0 {
		t.Fatalf("empty private run scanned %d public tuples", n)
	}
	if n := JoinColumnsWithSkip(rKeys, rPays, []uint64{1, 2}, []uint64{0, 0}, 3, Pairs(&got), nil); n != 0 {
		t.Fatalf("public run outside the private key range scanned %d tuples", n)
	}
}

// TestConsumeRangesAggregates checks the range-folding aggregates against
// their per-pair siblings on one hand-built batch, delivered whole and cut in
// two: the running maximum folds across batches, and a batch with a wrapping
// sum is visited pair by pair.
func TestConsumeRangesAggregates(t *testing.T) {
	rKeys, rPays := []uint64{1, 1, 3, 4}, []uint64{10, 0, 30, ^uint64(0) - 5}
	sKeys, sPays := []uint64{1, 3, 4, 4}, []uint64{1, 3, 4, 9}
	entries := [][4]int32{{0, 2, 0, 1}, {2, 3, 1, 2}, {3, 4, 2, 4}} // the last one wraps
	build := func(from, to int) *batch.Ranges {
		b := batch.NewScratch(0, nil).Ranges(rKeys, rPays, sKeys, sPays)
		is, iEnds, los, his := b.I, b.IEnd, b.Lo, b.Hi
		var pairs uint64
		for x, e := range entries[from:to] {
			is[x], iEnds[x], los[x], his[x] = e[0], e[1], e[2], e[3]
			pairs += uint64(e[1]-e[0]) * uint64(e[3]-e[2])
		}
		return b.Head(to-from, pairs)
	}
	var perPair MaxAggregate
	for r, s := range build(0, len(entries)).All() {
		perPair.Consume(r, s)
	}
	var whole, split MaxAggregate
	var c Counter
	whole.ConsumeRanges(build(0, len(entries)))
	split.ConsumeRanges(build(0, 1))
	split.ConsumeRanges(build(1, len(entries)))
	c.ConsumeRanges(build(0, len(entries)))
	if perPair != whole || perPair != split || perPair.Max != ^uint64(0)-1 {
		t.Fatalf("MaxAggregate diverged: per-pair %+v, whole %+v, split %+v", perPair, whole, split)
	}
	if c.Count != perPair.Count || c.Count != 5 {
		t.Fatalf("Counter counted %d, want %d", c.Count, perPair.Count)
	}
}
