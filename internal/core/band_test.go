package core

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/mergejoin"
	"repro/internal/relation"
	"repro/internal/sched"
	"repro/internal/sink"
	"repro/internal/workload"
)

// oraclePairs materializes the brute-force band join in canonical order.
func oraclePairs(r, s *relation.Relation, band uint64) ([]sink.Pair, mergejoin.MaxAggregate) {
	m := sink.NewMaterialize()
	b := sink.BindChecked(m, 1, nil, nil)
	mergejoin.ReferenceJoinBand(r.Tuples, s.Tuples, band, b.Writer(0))
	_ = b.Close()
	var agg mergejoin.MaxAggregate
	for _, p := range m.Pairs() {
		agg.Consume(p.R, p.S)
	}
	return sortedPairs(m), agg
}

// TestBandJoinsMatchOracleOnColumnRuns: B-MPSM and P-MPSM band joins — which
// run on column runs through the range kernel — produce the brute-force
// oracle's multiset of pairs (materialized: ranges walked pair by pair with
// both keys) and its count and max-sum (default sink: ranges folded), under
// both schedulers, for worker counts from one to more than there are tuples,
// with morsels small enough to cut runs, key groups and windows everywhere;
// and for keys at both ends of the uint64 domain, where the window must
// clamp. Batches that cut an entry list are the kernel tests' business.
func TestBandJoinsMatchOracleOnColumnRuns(t *testing.T) {
	const top = ^uint64(0)
	edgeR := relation.New("R", []relation.Tuple{{Key: 0, Payload: 1}, {Key: 2, Payload: 2}, {Key: top - 1, Payload: 3}, {Key: top, Payload: 4}, {Key: top, Payload: 5}, {Key: 1 << 40, Payload: 6}})
	edgeS := relation.New("S", []relation.Tuple{{Key: top, Payload: 7}, {Key: 1, Payload: 8}, {Key: top - 9, Payload: 9}, {Key: 0, Payload: 10}, {Key: 11, Payload: 11}, {Key: 1<<40 + 3, Payload: 12}, {Key: top - 2, Payload: 13}})
	r, s := kindsDataset(200, 3, 57)
	datasets := []struct {
		name  string
		r, s  *relation.Relation
		bands []uint64
	}{
		{"narrow-domain", r, s, []uint64{1, 16, 1 << 20}},
		{"domain-edges", edgeR, edgeS, []uint64{1, 10, top}},
		{"empty-private", relation.New("R", nil), s, []uint64{4}},
		{"one-tuple", relation.New("R", []relation.Tuple{{Key: 40, Payload: 1}}), relation.New("S", []relation.Tuple{{Key: 43, Payload: 2}}), []uint64{2, 3}},
	}
	for _, ds := range datasets {
		for _, band := range ds.bands {
			wantPairs, want := oraclePairs(ds.r, ds.s, band)
			for _, alg := range []string{"B", "P"} {
				for _, mode := range []sched.Mode{sched.Static, sched.Morsel} {
					for _, workers := range []int{1, 2, 5, 40} { // 40: more workers than most runs have tuples
						name := fmt.Sprintf("%s/band=%d/%s-MPSM/%v/T=%d", ds.name, band, alg, mode, workers)
						opts := Options{Workers: workers, Band: band, Scheduler: mode, MorselSize: 64}
						gotPairs, matches, _ := runMaterialized(t, alg, ds.r, ds.s, opts)
						if matches != want.Count || len(gotPairs) != len(wantPairs) {
							t.Fatalf("%s: %d matches, %d pairs; oracle has %d", name, matches, len(gotPairs), want.Count)
						}
						for i := range gotPairs {
							if gotPairs[i] != wantPairs[i] {
								t.Fatalf("%s: pair %d = %+v, oracle has %+v", name, i, gotPairs[i], wantPairs[i])
							}
						}
						res := bmpsm
						if alg == "P" {
							res = pmpsm
						}
						got := res(ds.r, ds.s, opts)
						if got.Matches != want.Count || (want.Count > 0 && got.MaxSum != want.Max) || got.Batch.Tuples != want.Count {
							t.Fatalf("%s: folded (matches, max, batched) = (%d, %d, %d), oracle (%d, %d)",
								name, got.Matches, got.MaxSum, got.Batch.Tuples, want.Count, want.Max)
						}
					}
				}
			}
		}
	}
}

// TestMorselBandJoinScansOnlyItsWindows is the engine-level half of the
// regression test for band morsels rescanning public runs from index 0 (see
// mergejoin.TestSkipEntersPublicRunAtTheWindow): PublicScanned of a
// morsel-mode band join is the sum, over every (segment, public run) task, of
// the public tuples within the band of the segment's key range — computed
// here by binary search on independently sorted copies — far below the
// tasks × |run| a scan from the start of every run costs.
func TestMorselBandJoinScansOnlyItsWindows(t *testing.T) {
	const workers, morsel, band = 2, 256, 16
	r, s, err := workload.Generate(workload.Spec{RSize: 1 << 13, Multiplicity: 2, KeyDomain: 1 << 22, Seed: 91})
	if err != nil {
		t.Fatal(err)
	}
	res := bmpsm(r, s, Options{Workers: workers, Band: band, Scheduler: sched.Morsel, MorselSize: morsel})

	sortedChunk := func(rel *relation.Relation, w int) []uint64 {
		var keys []uint64
		for _, tup := range rel.Split(workers)[w].Tuples {
			keys = append(keys, tup.Key)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		return keys
	}
	want, fromStart := 0, 0
	for w := 0; w < workers; w++ {
		priv := sortedChunk(r, w)
		for lo := 0; lo < len(priv); lo += morsel {
			seg := priv[lo:min(lo+morsel, len(priv))]
			low, high := seg[0]-min(seg[0], band), seg[len(seg)-1]+band
			for p := 0; p < workers; p++ {
				pub := sortedChunk(s, p)
				start := sort.Search(len(pub), func(i int) bool { return pub[i] >= low })
				end := sort.Search(len(pub), func(i int) bool { return pub[i] > high })
				want += end - start
				fromStart += end
			}
		}
	}
	if res.PublicScanned != want {
		t.Fatalf("PublicScanned = %d, the tasks' windows hold %d public tuples (a scan from the start of each run: %d)",
			res.PublicScanned, want, fromStart)
	}
	if want*8 > fromStart {
		t.Fatalf("windows (%d) are not a sliver of the runs (%d): test input is broken", want, fromStart)
	}
}
