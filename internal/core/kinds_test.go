package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/memory"
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

func TestPMPSMJoinKinds(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		r, s := kindsDataset(2500, 4, uint64(workers)*7+1)
		for _, kind := range []mergejoin.Kind{mergejoin.Inner, mergejoin.LeftOuter, mergejoin.Semi, mergejoin.Anti} {
			wantCount, wantMax := referenceKind(kind, r, s)
			res := pmpsm(r, s, Options{Workers: workers, Kind: kind})
			if res.Matches != wantCount {
				t.Fatalf("P-MPSM %v T=%d: matches = %d, want %d", kind, workers, res.Matches, wantCount)
			}
			if wantCount > 0 && res.MaxSum != wantMax {
				t.Fatalf("P-MPSM %v T=%d: max = %d, want %d", kind, workers, res.MaxSum, wantMax)
			}
		}
	}
}

func TestBMPSMJoinKinds(t *testing.T) {
	r, s := kindsDataset(2000, 2, 11)
	for _, kind := range []mergejoin.Kind{mergejoin.Inner, mergejoin.LeftOuter, mergejoin.Semi, mergejoin.Anti} {
		wantCount, wantMax := referenceKind(kind, r, s)
		res := bmpsm(r, s, Options{Workers: 4, Kind: kind})
		if res.Matches != wantCount {
			t.Fatalf("B-MPSM %v: matches = %d, want %d", kind, res.Matches, wantCount)
		}
		if wantCount > 0 && res.MaxSum != wantMax {
			t.Fatalf("B-MPSM %v: max = %d, want %d", kind, res.MaxSum, wantMax)
		}
	}
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

func TestJoinKindsSkewedData(t *testing.T) {
	r, s, err := workload.Generate(workload.Spec{
		RSize:        2500,
		Multiplicity: 4,
		RSkew:        workload.SkewHigh80,
		SSkew:        workload.SkewLow80,
		KeyDomain:    5000,
		Seed:         31,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []mergejoin.Kind{mergejoin.LeftOuter, mergejoin.Semi, mergejoin.Anti} {
		wantCount, _ := referenceKind(kind, r, s)
		res := pmpsm(r, s, Options{Workers: 8, Kind: kind, Splitters: SplitterEquiCost})
		if res.Matches != wantCount {
			t.Fatalf("skewed %v: matches = %d, want %d", kind, res.Matches, wantCount)
		}
	}
}

func TestBandJoinMPSM(t *testing.T) {
	r, s := kindsDataset(1500, 2, 51)
	for _, band := range []uint64{1, 5, 50} {
		var want mergejoin.MaxAggregate
		mergejoin.ReferenceJoinBand(r.Tuples, s.Tuples, band, &want)
		for name, run := range map[string]func() *result.Result{
			"P-MPSM": func() *result.Result { return pmpsm(r, s, Options{Workers: 4, Band: band}) },
			"B-MPSM": func() *result.Result { return bmpsm(r, s, Options{Workers: 4, Band: band}) },
		} {
			res := run()
			if res.Matches != want.Count {
				t.Fatalf("%s band=%d: matches = %d, want %d", name, band, res.Matches, want.Count)
			}
			if want.Count > 0 && res.MaxSum != want.Max {
				t.Fatalf("%s band=%d: max = %d, want %d", name, band, res.MaxSum, want.Max)
			}
		}
	}
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
	sorting.Sort(sSorted.Tuples)

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

func TestJoinKindsEmptyPublic(t *testing.T) {
	r, _ := kindsDataset(500, 1, 41)
	empty := relation.New("E", nil)
	if got := pmpsm(r, empty, Options{Workers: 4, Kind: mergejoin.Anti}).Matches; got != uint64(r.Len()) {
		t.Fatalf("anti join with empty public = %d, want |R| = %d", got, r.Len())
	}
	if got := pmpsm(r, empty, Options{Workers: 4, Kind: mergejoin.Semi}).Matches; got != 0 {
		t.Fatalf("semi join with empty public = %d, want 0", got)
	}
	if got := pmpsm(r, empty, Options{Workers: 4, Kind: mergejoin.LeftOuter}).Matches; got != uint64(r.Len()) {
		t.Fatalf("outer join with empty public = %d, want |R| = %d", got, r.Len())
	}
}

// kindInputs are the input shapes of the generative kinds test: every
// multiplicity class the marker must classify, the degenerate sizes, and keys
// at both ends of the uint64 domain on both sides — key 0 matters because the
// null tuple's key is 0.
func kindInputs(seed uint64) map[string][2]*relation.Relation {
	const top = ^uint64(0)
	gen := func(spec workload.Spec) [2]*relation.Relation {
		r, s, err := workload.Generate(spec)
		if err != nil {
			panic(err)
		}
		return [2]*relation.Relation{r, s}
	}
	uniform := gen(workload.Spec{RSize: 120, Multiplicity: 3, ForeignKey: true, Seed: seed})
	// Every S tuple of an FK dataset has a partner; dropping half of S leaves R
	// keys without one, so all four kinds are non-trivial.
	uniform[1] = relation.New("S", uniform[1].Tuples[:uniform[1].Len()/2])
	constant := func(name string, n int, key uint64) *relation.Relation {
		tuples := make([]relation.Tuple, n)
		for i := range tuples {
			tuples[i] = relation.Tuple{Key: key, Payload: uint64(i) * 7}
		}
		return relation.New(name, tuples)
	}
	edgeR := relation.New("R", []relation.Tuple{{Key: 0, Payload: 1}, {Key: top, Payload: 2}, {Key: 5, Payload: 3}, {Key: 0, Payload: 4}, {Key: top - 1, Payload: 5}, {Key: 9, Payload: top}})
	edgeS := relation.New("S", []relation.Tuple{{Key: top, Payload: 6}, {Key: 0, Payload: 7}, {Key: 6, Payload: 8}, {Key: top, Payload: top}, {Key: 9, Payload: 9}})
	return map[string][2]*relation.Relation{
		"uniform-fk":  uniform,
		"narrow-skew": gen(workload.Spec{RSize: 100, Multiplicity: 3, KeyDomain: 160, RSkew: workload.SkewLow80, SSkew: workload.SkewHigh80, Seed: seed + 1}),
		"all-equal":   {constant("R", 40, 77), constant("S", 90, 77)},
		"disjoint":    {constant("R", 40, 77), constant("S", 90, 78)},
		"empty-R":     {relation.New("R", nil), uniform[1]},
		"empty-S":     {uniform[0], relation.New("S", nil)},
		"one-tuple":   {constant("R", 1, 3), constant("S", 1, 3)},
		"domain-ends": {edgeR, edgeS},
	}
}

var allKinds = []mergejoin.Kind{mergejoin.Inner, mergejoin.LeftOuter, mergejoin.Semi, mergejoin.Anti}

// TestKindsMatchOracleOnColumnRuns is the generative differential test of the
// join kinds on the one match phase: every kind × algorithm × scheduler ×
// pool × batch size × worker count × input shape materializes exactly the
// multiset of pairs mergejoin.ReferenceJoinKind produces — the public side of
// every classified private tuple the exact zero tuple — and Matches/MaxSum
// agree with it. A failure prints a one-line reproducer.
func TestKindsMatchOracleOnColumnRuns(t *testing.T) {
	const seed = 1017
	pool := memory.NewPool(0)
	for dist, in := range kindInputs(seed) {
		r, s := in[0], in[1]
		for _, kind := range allKinds {
			ref := sink.NewMaterialize()
			bound := sink.Bind(ref, 1, nil)
			mergejoin.ReferenceJoinKind(kind, r.Tuples, s.Tuples, bound.Writer(0))
			_ = bound.Close()
			want := sortedPairs(ref)
			var wantAgg mergejoin.MaxAggregate
			for _, p := range want {
				wantAgg.Consume(p.R, p.S)
			}
			for _, alg := range []string{"B", "P"} {
				for _, mode := range []sched.Mode{sched.Static, sched.Morsel} {
					for _, scratch := range []*memory.Pool{nil, pool} {
						for _, batchSize := range []int{0, 1, 33} {
							for _, workers := range []int{1, 3, r.Len() + 5} { // the last: more workers than tuples
								label := fmt.Sprintf("seed=%d dist=%s kind=%v alg=%s-MPSM sched=%v pool=%v batch=%d workers=%d",
									seed, dist, kind, alg, mode, scratch != nil, batchSize, workers)
								opts := Options{Workers: workers, Kind: kind, Scheduler: mode, MorselSize: 32, BatchSize: batchSize, Scratch: scratch}
								got, matches, maxSum := runMaterialized(t, alg, r, s, opts)
								if matches != wantAgg.Count || len(got) != len(want) {
									t.Fatalf("%s: %d matches, %d pairs; oracle has %d", label, matches, len(got), len(want))
								}
								if maxSum != 0 {
									t.Fatalf("%s: materializing join reported MaxSum %d", label, maxSum)
								}
								for i := range got {
									if got[i] != want[i] {
										t.Fatalf("%s: pair %d = %+v, oracle has %+v", label, i, got[i], want[i])
									}
									if (kind == mergejoin.Semi || kind == mergejoin.Anti) && got[i].S != (relation.Tuple{}) {
										t.Fatalf("%s: pair %d carries public tuple %+v, want the zero tuple", label, i, got[i].S)
									}
								}
							}
						}
					}
				}
			}
		}
	}
	if err := pool.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestKindsFoldLikeTheirPairs: a sink that folds range entries — max-sum,
// count, the group-by kernel under every aggregate and every projection it
// recognises — must report, for every kind, what the same sink reports when
// an opaque closure forces the kernel to expand every entry into pairs.
func TestKindsFoldLikeTheirPairs(t *testing.T) {
	const seed = 1018
	ctx := context.Background()
	values := []sink.Value{sink.ValuePayloadSum, sink.ValueBuildPayload, sink.ValueProbePayload, sink.ValueBuildKey, sink.ValueProbeKey}
	for dist, in := range kindInputs(seed) {
		r, s := in[0], in[1]
		for _, kind := range allKinds {
			for _, alg := range []string{"B", "P"} {
				run := mpsmByName(alg)
				for _, mode := range []sched.Mode{sched.Static, sched.Morsel} {
					for _, batchSize := range []int{1, 33} {
						opts := Options{Workers: 3, Kind: kind, Scheduler: mode, MorselSize: 32, BatchSize: batchSize}
						label := fmt.Sprintf("seed=%d dist=%s kind=%v alg=%s-MPSM sched=%v batch=%d", seed, dist, kind, alg, mode, batchSize)

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

						if batchSize == 1 {
							continue // the group-by kernel is folded at one size: 33 entries already cut these outputs into many batches
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
		}
	}
}

// TestPerWorkerAccountingIsExact is the regression test for P-MPSM reading
// per-worker sizes off a buffer it had handed back and for the non-inner
// kinds charging n/len(publicRuns) per public run: with one run
// representation the per-worker counters add up exactly, and a semi join —
// which runs the inner join's scans — accounts for at least its sequential
// reads.
func TestPerWorkerAccountingIsExact(t *testing.T) {
	r, s := kindsDataset(2500, 3, 29) // |S| = 7500: not a multiple of the 7 runs
	for _, alg := range []string{"B", "P"} {
		join := mpsmByName(alg)
		for _, mode := range []sched.Mode{sched.Static, sched.Morsel} {
			seqReads := map[mergejoin.Kind]uint64{}
			for _, kind := range allKinds {
				label := fmt.Sprintf("%s-MPSM %v %v", alg, mode, kind)
				res := join(r, s, Options{Workers: 7, Kind: kind, Scheduler: mode, MorselSize: 100, CollectPerWorker: true, TrackNUMA: true})
				private, scanned := 0, 0
				for _, w := range res.PerWorker {
					private += w.PrivateTuples
					scanned += w.PublicScanned
				}
				if private != r.Len() {
					t.Fatalf("%s: per-worker private tuples sum to %d, |R| = %d", label, private, r.Len())
				}
				if scanned != res.PublicScanned || scanned == 0 {
					t.Fatalf("%s: per-worker public scans sum to %d, Result.PublicScanned = %d", label, scanned, res.PublicScanned)
				}
				seqReads[kind] = res.NUMA.LocalSeqRead + res.NUMA.RemoteSeqRead
			}
			if seqReads[mergejoin.Semi] < seqReads[mergejoin.Inner] {
				t.Fatalf("%s-MPSM %v: semi join accounts for %d sequential reads, the inner join for %d",
					alg, mode, seqReads[mergejoin.Semi], seqReads[mergejoin.Inner])
			}
		}
	}
}
