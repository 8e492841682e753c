package core

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/mergejoin"
	"repro/internal/relation"
	"repro/internal/result"
	"repro/internal/sched"
	"repro/internal/sink"
	"repro/internal/sorting"
	"repro/internal/workload"
)

// referenceKind computes the expected cardinality and max-sum for a join kind.
func referenceKind(kind mergejoin.Kind, r, s *relation.Relation) (count, maxSum uint64) {
	var agg mergejoin.MaxAggregate
	mergejoin.ReferenceJoinKind(kind, r.Tuples, s.Tuples, &agg)
	return agg.Count, agg.Max
}

// kindsDataset builds inputs in a narrow domain so that all four join kinds
// produce non-trivial results (some private tuples match, some do not).
func kindsDataset(rSize, mult int, seed uint64) (*relation.Relation, *relation.Relation) {
	domain := uint64(rSize) * 2
	r, s, err := workload.Generate(workload.Spec{
		RSize:        rSize,
		Multiplicity: mult,
		KeyDomain:    domain,
		Seed:         seed,
	})
	if err != nil {
		panic(err)
	}
	return r, s
}

// TestPMPSMJoinKinds: P-MPSM gives every join kind the oracle's pairs, count
// and max-sum at 1, 3 and 8 workers.
func TestPMPSMJoinKinds(t *testing.T) {
	pEqui := func(c matchCell) bool { return c.alg == "P" && c.opts.Band == 0 }
	runMatchCells(t, cellsOf(pEqui, variants(setWorkers, 1, 3, 8), "uniform-fk", "clustered", "long-chains"))
}

// TestBMPSMJoinKinds: B-MPSM gives every join kind the oracle's pairs, count
// and max-sum.
func TestBMPSMJoinKinds(t *testing.T) {
	bEqui := func(c matchCell) bool { return c.alg == "B" && c.opts.Band == 0 }
	runMatchCells(t, cellsOf(bEqui, variants(setWorkers, 4), "uniform-fk", "page-straddle"))
}

func TestJoinKindsCardinalityIdentities(t *testing.T) {
	// |semi| + |anti| = |R| and |outer| = |inner| + |anti| must hold for the
	// parallel implementations just as for the kernel.
	r, s := kindsDataset(3000, 4, 23)
	counts := map[mergejoin.Kind]uint64{}
	for _, kind := range []mergejoin.Kind{mergejoin.Inner, mergejoin.LeftOuter, mergejoin.Semi, mergejoin.Anti} {
		counts[kind] = pmpsm(r, s, Options{Workers: 8, Kind: kind}).Matches
	}
	if counts[mergejoin.Semi]+counts[mergejoin.Anti] != uint64(r.Len()) {
		t.Fatalf("semi (%d) + anti (%d) != |R| (%d)", counts[mergejoin.Semi], counts[mergejoin.Anti], r.Len())
	}
	if counts[mergejoin.LeftOuter] != counts[mergejoin.Inner]+counts[mergejoin.Anti] {
		t.Fatalf("outer (%d) != inner (%d) + anti (%d)", counts[mergejoin.LeftOuter], counts[mergejoin.Inner], counts[mergejoin.Anti])
	}
}

// TestJoinKindsSkewedData: under heavy, negatively correlated skew P-MPSM on
// 8 workers with equi-cost splitters gives the non-inner kinds the oracle's
// answer.
func TestJoinKindsSkewedData(t *testing.T) {
	pOuter := func(c matchCell) bool { return c.alg == "P" && !innerCell(c) && !bandCell(c) }
	runMatchCells(t, cellsOf(pOuter, variants(func(o *Options, n int) { o.Workers, o.Splitters = n, SplitterEquiCost }, 8), "skew-negcorr"))
}

// TestBandJoinMPSM: B- and P-MPSM band joins of widths 1, 5 and 50 give the
// oracle's pairs, count and max-sum.
func TestBandJoinMPSM(t *testing.T) {
	runMatchCells(t, cellsOf(bandCell, variants(func(o *Options, w uint64) { o.Band, o.Workers = w, 4 }, 1, 5, 50), "uniform-fk", "skew-negcorr"))
}

func TestBandJoinSupersetOfEquiJoin(t *testing.T) {
	// A band join's cardinality is monotone in the band width and always at
	// least the equi-join cardinality.
	r, s := kindsDataset(2000, 4, 53)
	equi := pmpsm(r, s, Options{Workers: 4}).Matches
	prev := equi
	for _, band := range []uint64{1, 10, 100} {
		got := pmpsm(r, s, Options{Workers: 4, Band: band}).Matches
		if got < prev {
			t.Fatalf("band join cardinality decreased: band=%d gives %d, previous %d", band, got, prev)
		}
		prev = got
	}
}

func TestPresortedInputsSkipSorting(t *testing.T) {
	// A globally presorted public input must still produce a correct join
	// and should reduce the sorting work (visible in the NUMA counters,
	// which omit the random sorting accesses when the sort is skipped).
	r, s := kindsDataset(3000, 4, 77)
	sSorted := s.Clone()
	sorting.SortInto(sSorted.Tuples, sSorted.Tuples)

	wantCount, wantMax := referenceKind(mergejoin.Inner, r, s)
	plain := pmpsm(r, sSorted, Options{Workers: 4, TrackNUMA: true})
	pre := pmpsm(r, sSorted, Options{Workers: 4, TrackNUMA: true, PresortedPublic: true})
	for name, res := range map[string]*result.Result{"without declaration": plain, "with declaration": pre} {
		if res.Matches != wantCount || res.MaxSum != wantMax {
			t.Fatalf("%s: got (%d, %d), want (%d, %d)", name, res.Matches, res.MaxSum, wantCount, wantMax)
		}
	}
	if pre.NUMA.LocalRandRead >= plain.NUMA.LocalRandRead {
		t.Fatalf("presorted public input should skip sorting accesses: %d vs %d",
			pre.NUMA.LocalRandRead, plain.NUMA.LocalRandRead)
	}

	// A false declaration must not break correctness: the chunks are
	// verified and sorted anyway.
	lying := pmpsm(r, s, Options{Workers: 4, PresortedPublic: true, PresortedPrivate: true})
	if lying.Matches != wantCount {
		t.Fatalf("false presorted declaration broke the join: %d matches, want %d", lying.Matches, wantCount)
	}

	// B-MPSM can additionally skip the private sort.
	bPre := bmpsm(r.Clone(), sSorted, Options{Workers: 4, PresortedPublic: true})
	if bPre.Matches != wantCount {
		t.Fatalf("B-MPSM with presorted public input: %d matches, want %d", bPre.Matches, wantCount)
	}
}

// TestJoinKindsEmptyPublic: against an empty public input P-MPSM's anti and
// left-outer joins keep every private tuple and its semi join none.
func TestJoinKindsEmptyPublic(t *testing.T) {
	pOuter := func(c matchCell) bool { return c.alg == "P" && !innerCell(c) && !bandCell(c) }
	runMatchCells(t, cellsOf(pOuter, variants(setWorkers, 4), "empty-S"))
}

var allKinds = []mergejoin.Kind{mergejoin.Inner, mergejoin.LeftOuter, mergejoin.Semi, mergejoin.Anti}

// TestKindsMatchOracleOnColumnRuns is the differential test of the one match
// phase: B- and P-MPSM under every kind and band 3, and D-MPSM, over every
// small input of workload.EdgeInputs, the other axes rotating (see
// matchCells), each materialize the oracle's pairs. It ends by checking that
// every rotated value met every input and every algorithm.
func TestKindsMatchOracleOnColumnRuns(t *testing.T) {
	var rot workload.Rotation
	runMatchCells(t, matchCells(&rot))
	for _, m := range rot.Missed() {
		t.Errorf("rotation: %s", m)
	}
}

// TestKindsFoldLikeTheirPairs: a sink that folds range entries — max-sum,
// count, the group-by kernel under every aggregate and every projection it
// recognises — must report, for every kind, what the same sink reports when
// an opaque closure makes it walk every entry's pairs, over the paper's
// distributions and the degenerate inputs, under a rotated scheduler.
func TestKindsFoldLikeTheirPairs(t *testing.T) {
	const seed = 1018
	ctx := context.Background()
	values := []sink.Value{sink.ValuePayloadSum, sink.ValueBuildPayload, sink.ValueProbePayload, sink.ValueBuildKey, sink.ValueProbeKey}
	var rot workload.Rotation
	for i, in := range workload.EdgeInputs(seed) {
		if !slices.Contains([]string{"uniform-fk", "skew-negcorr", "all-duplicate", "disjoint", "empty-R", "empty-S", "one-tuple", "keys-0-and-max"}, in.Name) {
			continue
		}
		r, s, dist := in.R, in.S, in.Name
		for k, kind := range allKinds {
			for a, alg := range []string{"B", "P"} {
				run := mpsmByName(alg)
				mode := sched.Mode(rot.Pick("sched", 2, k, a, i))
				rot.Meet(mode.String(), "input "+dist, "kind "+kind.String(), "algorithm "+alg)
				opts := Options{Workers: 3, Kind: kind, Scheduler: mode, MorselSize: 32}
				label := fmt.Sprintf("seed=%d dist=%s kind=%v alg=%s-MPSM sched=%v", seed, dist, kind, alg, mode)

				// The pairs, one by one, through a closure.
				var pairs mergejoin.MaxAggregate
				opts.Sink = sink.NewFunc(func(r, s relation.Tuple) { pairs.Consume(r, s) })
				expanded := run(r, s, opts)

				opts.Sink = nil // max-sum
				folded := run(r, s, opts)
				if folded.Matches != pairs.Count || folded.MaxSum != pairs.Max || expanded.Matches != pairs.Count {
					t.Fatalf("%s: max-sum folded (%d, %d), its pairs give (%d, %d)", label, folded.Matches, folded.MaxSum, pairs.Count, pairs.Max)
				}
				if folded.Batch.Tuples != folded.Matches || (folded.Matches > 0 && folded.Batch.Batches == 0) {
					t.Fatalf("%s: max-sum took %d matches but Batch = %+v", label, folded.Matches, folded.Batch)
				}
				count := sink.NewCount()
				opts.Sink = count
				if res := run(r, s, opts); count.Total() != pairs.Count || res.Matches != pairs.Count {
					t.Fatalf("%s: count folded %d (matches %d), its pairs number %d", label, count.Total(), res.Matches, pairs.Count)
				}

				for _, value := range values {
					for _, agg := range []sink.Agg{sink.AggSum, sink.AggMin, sink.AggMax, sink.AggCount} {
						fold := sink.NewGroups(ctx, agg, value.Projection(), value, nil)
						opts.Sink = fold
						run(r, s, opts)
						opaque := sink.NewGroups(ctx, agg, value.Projection(), sink.ValueOpaque, nil)
						opts.Sink = opaque
						run(r, s, opts)
						if !reflect.DeepEqual(fold.Rows(), opaque.Rows()) {
							t.Fatalf("%s value=%d agg=%v: folded groups %v, pair by pair %v", label, value, agg, fold.Rows(), opaque.Rows())
						}
					}
				}
			}
		}
	}
	for _, m := range rot.Missed() {
		t.Errorf("rotation: %s", m)
	}
}

// TestPerWorkerAccountingIsExact is the regression test for P-MPSM reading
// per-worker sizes off a buffer it had handed back, for the non-inner kinds
// charging n/len(publicRuns) per public run and for D-MPSM reporting no
// breakdown: with one run representation and one frame the per-worker
// counters add up exactly — private tuples to |R|, public scans to
// PublicScanned, matches to Matches — and a semi join — which runs the inner
// join's scans — accounts for at least its sequential reads.
func TestPerWorkerAccountingIsExact(t *testing.T) {
	r, s := kindsDataset(2500, 3, 29) // |S| = 7500: not a multiple of the 7 runs
	for _, alg := range []string{"B", "P", "D"} {
		for _, mode := range []sched.Mode{sched.Static, sched.Morsel} {
			seqReads := map[mergejoin.Kind]uint64{}
			for _, kind := range allKinds {
				if alg == "D" && kind != mergejoin.Inner {
					continue // D-MPSM is inner-only
				}
				label := fmt.Sprintf("%s-MPSM %v %v", alg, mode, kind)
				opts := Options{Workers: 7, Kind: kind, Scheduler: mode, MorselSize: 100, CollectPerWorker: true, TrackNUMA: true}
				var res *result.Result
				if alg == "D" {
					res, _ = dmpsm(r, s, opts, DiskOptions{PageSize: 256})
				} else {
					res = mpsmByName(alg)(r, s, opts)
				}
				if len(res.PerWorker) != 7 {
					t.Fatalf("%s: %d per-worker breakdowns, want 7", label, len(res.PerWorker))
				}
				private, scanned, matches := 0, 0, uint64(0)
				for _, w := range res.PerWorker {
					private += w.PrivateTuples
					scanned += w.PublicScanned
					matches += w.Matches
				}
				if private != r.Len() {
					t.Fatalf("%s: per-worker private tuples sum to %d, |R| = %d", label, private, r.Len())
				}
				if scanned != res.PublicScanned || scanned == 0 {
					t.Fatalf("%s: per-worker public scans sum to %d, Result.PublicScanned = %d", label, scanned, res.PublicScanned)
				}
				if matches != res.Matches || matches == 0 {
					t.Fatalf("%s: per-worker matches sum to %d, Result.Matches = %d", label, matches, res.Matches)
				}
				seqReads[kind] = res.NUMA.LocalSeqRead + res.NUMA.RemoteSeqRead
			}
			if alg != "D" && seqReads[mergejoin.Semi] < seqReads[mergejoin.Inner] {
				t.Fatalf("%s-MPSM %v: semi join accounts for %d sequential reads, the inner join for %d",
					alg, mode, seqReads[mergejoin.Semi], seqReads[mergejoin.Inner])
			}
		}
	}
}
