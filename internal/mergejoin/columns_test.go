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

// plainConsumer records pairs through Consume only: it implements neither
// BatchConsumer nor RangeConsumer, forcing the kernel's per-pair delivery.
type plainConsumer struct{ pairs []pair }

func (p *plainConsumer) Consume(r, s relation.Tuple) { p.pairs = append(p.pairs, pair{r, s}) }

// columnConsumer records pairs through ConsumeColumns (Consume fails the
// test): the expansion of an equi-join must reach a BatchConsumer in column
// batches no larger than the scratch.
type columnConsumer struct {
	t       *testing.T
	pairs   []pair
	maxSeen int
}

func (c *columnConsumer) Consume(r, s relation.Tuple) {
	c.t.Fatal("equi-join expansion reached a BatchConsumer pair by pair")
}

func (c *columnConsumer) ConsumeColumns(keys, rp, sp []uint64) {
	c.maxSeen = max(c.maxSeen, len(keys))
	for i, k := range keys {
		c.pairs = append(c.pairs, pair{relation.Tuple{Key: k, Payload: rp[i]}, relation.Tuple{Key: k, Payload: sp[i]}})
	}
}

// refusingConsumer is a RangeConsumer that refuses every batch: the kernel
// must then expand it, exactly as if the method were not there.
type refusingConsumer struct{ plainConsumer }

func (*refusingConsumer) ConsumeRanges(*batch.Ranges) bool { return false }

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
	}
}

// TestRangeKernelMatchesOracle is the differential test of the range kernel:
// for every input shape, band width and batch size — small sizes make key
// groups and windows straddle every range-batch and column-batch boundary —
// the pairs it delivers, whichever of its three routes a consumer selects,
// are multiset-equal to the brute-force oracle's and in the order the row
// kernels emit; and the consumers that fold ranges report what they report
// when fed the oracle's pairs one by one.
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

			for _, size := range []int{1, 3, 1024} {
				name := fmt.Sprintf("%s/band=%d/batch=%d", in.name, band, size)
				sc := batch.NewScratch(size, nil)

				var plain plainConsumer
				JoinColumnsBand(rKeys, rPays, sKeys, sPays, band, &plain, sc)
				requireSamePairs(t, name+"/plain", rows.pairs, plain.pairs)

				var refused refusingConsumer
				JoinColumnsBand(rKeys, rPays, sKeys, sPays, band, &refused, sc)
				requireSamePairs(t, name+"/refused", rows.pairs, refused.pairs)

				if band == 0 {
					cols := columnConsumer{t: t}
					JoinColumns(rKeys, rPays, sKeys, sPays, &cols, sc)
					requireSamePairs(t, name+"/columns", rows.pairs, cols.pairs)
					if cols.maxSeen > size {
						t.Fatalf("%s: a column batch of %d pairs from a scratch of %d", name, cols.maxSeen, size)
					}
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

func (*windowSpy) Consume(r, s relation.Tuple) {}

func (w *windowSpy) ConsumeRanges(b *batch.Ranges) bool {
	w.public = len(b.SKeys)
	w.pairs += b.Pairs
	return true
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
	start := search.LowerBound(sTuples, rTuples[0].Key)
	end := search.UpperBound(sTuples, rTuples[len(rTuples)-1].Key)
	wantScanned := end - start
	Join(rTuples, sTuples[start:end], &want)
	gotScanned := JoinColumnsWithSkip(rKeys, rPays, sKeys, sPays, 0, &got, nil)
	if gotScanned != wantScanned {
		t.Fatalf("scanned %d, want %d", gotScanned, wantScanned)
	}
	requireSamePairs(t, "with-skip", want.pairs, got.pairs)

	if n := JoinColumnsWithSkip(nil, nil, sKeys, sPays, 3, &got, nil); n != 0 {
		t.Fatalf("empty private run scanned %d public tuples", n)
	}
	if n := JoinColumnsWithSkip(rKeys, rPays, []uint64{1, 2}, []uint64{0, 0}, 3, &got, nil); n != 0 {
		t.Fatalf("public run outside the private key range scanned %d tuples", n)
	}
}

// TestConsumeColumnsAggregates checks the vectorized BatchConsumer
// implementations against their per-pair siblings.
func TestConsumeColumnsAggregates(t *testing.T) {
	keys := []uint64{1, 2, 3, 4, 5}
	rp := []uint64{10, 0, 30, 5, 50}
	sp := []uint64{1, 100, 3, 4, 5}

	var perPair, batched MaxAggregate
	for i := range keys {
		perPair.Consume(relation.Tuple{Key: keys[i], Payload: rp[i]}, relation.Tuple{Key: keys[i], Payload: sp[i]})
	}
	// Deliver in two batches to exercise the running-max fold across batches.
	batched.ConsumeColumns(keys[:2], rp[:2], sp[:2])
	batched.ConsumeColumns(keys[2:], rp[2:], sp[2:])
	batched.ConsumeColumns(nil, nil, nil) // empty batch is a no-op
	if perPair != batched {
		t.Fatalf("MaxAggregate diverged: per-pair %+v, batched %+v", perPair, batched)
	}

	var c Counter
	c.ConsumeColumns(keys, rp, sp)
	if c.Count != uint64(len(keys)) {
		t.Fatalf("Counter.ConsumeColumns counted %d, want %d", c.Count, len(keys))
	}
}
