package exec

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/mergejoin"
	"repro/internal/relation"
	"repro/internal/workload"
)

func dataset(rSize, mult int, seed uint64) (*relation.Relation, *relation.Relation) {
	r, s, err := workload.Generate(workload.Spec{
		RSize:        rSize,
		Multiplicity: mult,
		ForeignKey:   true,
		Seed:         seed,
	})
	if err != nil {
		panic(err)
	}
	return r, s
}

func TestRunAllAlgorithmsAgree(t *testing.T) {
	r, s := dataset(2000, 4, 1)
	var agg mergejoin.MaxAggregate
	mergejoin.ReferenceJoin(r.Tuples, s.Tuples, &agg)

	for _, alg := range []Algorithm{AlgorithmPMPSM, AlgorithmBMPSM, AlgorithmDMPSM, AlgorithmWisconsin, AlgorithmRadix} {
		res, err := Run(context.Background(), Query{
			R:           r,
			S:           s,
			Algorithm:   alg,
			JoinOptions: core.Options{Workers: 4},
			DiskOptions: core.DiskOptions{PageSize: 256, PageBudget: 8},
		})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if res.Matches != agg.Count || res.MaxSum != agg.Max {
			t.Fatalf("%v: got (%d, %d), want (%d, %d)", alg, res.Matches, res.MaxSum, agg.Count, agg.Max)
		}
		if res.RSelected != r.Len() || res.SSelected != s.Len() {
			t.Fatalf("%v: selection changed cardinalities without a filter", alg)
		}
		if alg == AlgorithmDMPSM && res.DiskStats == nil {
			t.Fatal("D-MPSM result missing disk statistics")
		}
	}
}

func TestRunWithSelection(t *testing.T) {
	r, s := dataset(3000, 2, 2)
	low, high := uint64(0), uint64(1)<<31 // roughly half the key domain

	// Reference: filter first, then join.
	filteredR, _ := applyScanFilter(context.Background(), r, nil, KeyRangePredicate(low, high), 4, nil)
	filteredS, _ := applyScanFilter(context.Background(), s, nil, KeyRangePredicate(low, high), 4, nil)
	var agg mergejoin.MaxAggregate
	mergejoin.ReferenceJoin(filteredR.Tuples, filteredS.Tuples, &agg)

	res, err := Run(context.Background(), Query{
		R:           r,
		S:           s,
		RFilter:     KeyRangePredicate(low, high),
		SFilter:     KeyRangePredicate(low, high),
		Algorithm:   AlgorithmPMPSM,
		JoinOptions: core.Options{Workers: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches != agg.Count || (agg.Count > 0 && res.MaxSum != agg.Max) {
		t.Fatalf("filtered query: got (%d, %d), want (%d, %d)", res.Matches, res.MaxSum, agg.Count, agg.Max)
	}
	if res.RSelected >= r.Len() || res.SSelected >= s.Len() {
		t.Fatal("selection did not reduce input cardinalities")
	}
	if res.RSelected != filteredR.Len() || res.SSelected != filteredS.Len() {
		t.Fatal("selected cardinalities do not match the reference filter")
	}
}

func TestRunErrors(t *testing.T) {
	r, s := dataset(10, 1, 3)
	if _, err := Run(context.Background(), Query{R: nil, S: s}); err == nil {
		t.Fatal("nil R accepted")
	}
	if _, err := Run(context.Background(), Query{R: r, S: nil}); err == nil {
		t.Fatal("nil S accepted")
	}
	if _, err := Run(context.Background(), Query{R: r, S: s, Algorithm: Algorithm(42)}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestRunJoinKinds(t *testing.T) {
	r, s := dataset(1500, 2, 9)
	for _, kind := range []mergejoin.Kind{mergejoin.LeftOuter, mergejoin.Semi, mergejoin.Anti} {
		var want mergejoin.MaxAggregate
		mergejoin.ReferenceJoinKind(kind, r.Tuples, s.Tuples, &want)
		res, err := Run(context.Background(), Query{
			R:           r,
			S:           s,
			Algorithm:   AlgorithmPMPSM,
			JoinOptions: core.Options{Workers: 4, Kind: kind},
		})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if res.Matches != want.Count {
			t.Fatalf("%v: matches = %d, want %d", kind, res.Matches, want.Count)
		}
	}
}

func TestRunRejectsKindsForHashJoins(t *testing.T) {
	r, s := dataset(100, 1, 10)
	for _, alg := range []Algorithm{AlgorithmWisconsin, AlgorithmRadix, AlgorithmDMPSM} {
		_, err := Run(context.Background(), Query{
			R:           r,
			S:           s,
			Algorithm:   alg,
			JoinOptions: core.Options{Workers: 2, Kind: mergejoin.Semi},
		})
		if err == nil {
			t.Fatalf("%v should reject non-inner join kinds", alg)
		}
	}
	if _, err := Run(context.Background(), Query{R: r, S: s, JoinOptions: core.Options{Kind: mergejoin.Kind(9)}}); err == nil {
		t.Fatal("invalid join kind accepted")
	}
}

func TestRunBandJoinValidation(t *testing.T) {
	r, s := dataset(200, 1, 12)
	// Valid: band join on P-MPSM.
	res, err := Run(context.Background(), Query{R: r, S: s, Algorithm: AlgorithmPMPSM, JoinOptions: core.Options{Workers: 2, Band: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches == 0 {
		t.Fatal("band join produced no matches on a foreign-key dataset")
	}
	// Invalid: band joins on hash joins or with non-inner kinds.
	if _, err := Run(context.Background(), Query{R: r, S: s, Algorithm: AlgorithmRadix, JoinOptions: core.Options{Band: 10}}); err == nil {
		t.Fatal("band join on the radix hash join should be rejected")
	}
	if _, err := Run(context.Background(), Query{R: r, S: s, Algorithm: AlgorithmPMPSM, JoinOptions: core.Options{Band: 10, Kind: mergejoin.Semi}}); err == nil {
		t.Fatal("band join with a semi-join kind should be rejected")
	}
}

func TestParseAlgorithm(t *testing.T) {
	cases := map[string]Algorithm{
		"pmpsm":      AlgorithmPMPSM,
		"p-mpsm":     AlgorithmPMPSM,
		"mpsm":       AlgorithmPMPSM,
		"bmpsm":      AlgorithmBMPSM,
		"dmpsm":      AlgorithmDMPSM,
		"wisconsin":  AlgorithmWisconsin,
		"radix":      AlgorithmRadix,
		"vectorwise": AlgorithmRadix,
	}
	for name, want := range cases {
		got, err := ParseAlgorithm(name)
		if err != nil || got != want {
			t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseAlgorithm("nested-loop"); err == nil {
		t.Fatal("unknown algorithm name accepted")
	}
}

func TestAlgorithmString(t *testing.T) {
	names := map[Algorithm]string{
		AlgorithmPMPSM:     "P-MPSM",
		AlgorithmBMPSM:     "B-MPSM",
		AlgorithmDMPSM:     "D-MPSM",
		AlgorithmWisconsin: "Wisconsin",
		AlgorithmRadix:     "Radix HJ",
		Algorithm(9):       "Algorithm(9)",
	}
	for alg, want := range names {
		if alg.String() != want {
			t.Errorf("%d.String() = %q, want %q", alg, alg.String(), want)
		}
	}
}

func TestKeyRangePredicate(t *testing.T) {
	p := KeyRangePredicate(10, 20)
	if p(relation.Tuple{Key: 9}) || !p(relation.Tuple{Key: 10}) || !p(relation.Tuple{Key: 19}) || p(relation.Tuple{Key: 20}) {
		t.Fatal("KeyRangePredicate bounds wrong")
	}
}

func TestApplyFilterNilKeepsInput(t *testing.T) {
	r, _ := dataset(100, 1, 4)
	out, leased := applyScanFilter(context.Background(), r, nil, nil, 4, nil)
	if out != r || leased {
		t.Fatal("nil predicate should return the input relation unchanged")
	}
}
