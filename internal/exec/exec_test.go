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

// oneJoin is the paper's evaluation pipeline scan(R), scan(S) → filter →
// join → sink as the one-join plan; with the default sink it computes
//
//	SELECT max(R.payload + S.payload)
//	FROM R, S
//	WHERE <rFilter(R)> AND <sFilter(S)> AND R.joinkey = S.joinkey
type oneJoin struct {
	r, s             *relation.Relation
	rFilter, sFilter Predicate
	rRange, sRange   *KeyRange
	alg              Algorithm
	opts             core.Options
	disk             core.DiskOptions
}

// run executes the plan and returns its result with the number of tuples
// each scan kept.
func (q oneJoin) run() (res *PlanResult, rSelected, sSelected int, err error) {
	p := &Plan{}
	rID := p.AddScanRange(q.r, q.rRange, q.rFilter)
	sID := p.AddScanRange(q.s, q.sRange, q.sFilter)
	p.AddSink(p.AddJoin(rID, sID, q.alg, q.opts, q.disk), nil)
	if res, err = RunPlanFor(context.Background(), p, nil, nil); err != nil {
		return nil, 0, 0, err
	}
	return res, res.Rows[rID], res.Rows[sID], nil
}

func TestRunAllAlgorithmsAgree(t *testing.T) {
	r, s := dataset(2000, 4, 1)
	var agg mergejoin.MaxAggregate
	mergejoin.ReferenceJoin(r.Tuples, s.Tuples, &agg)

	for _, alg := range []Algorithm{AlgorithmPMPSM, AlgorithmBMPSM, AlgorithmDMPSM, AlgorithmWisconsin, AlgorithmRadix} {
		res, rSel, sSel, err := oneJoin{
			r: r, s: s, alg: alg,
			opts: core.Options{Workers: 4},
			disk: core.DiskOptions{PageSize: 256, PageBudget: 8},
		}.run()
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if res.Matches != agg.Count || res.MaxSum != agg.Max {
			t.Fatalf("%v: got (%d, %d), want (%d, %d)", alg, res.Matches, res.MaxSum, agg.Count, agg.Max)
		}
		if rSel != r.Len() || sSel != s.Len() {
			t.Fatalf("%v: selection changed cardinalities without a filter", alg)
		}
		if alg == AlgorithmDMPSM && res.Joins[0].Disk == nil {
			t.Fatal("D-MPSM result missing disk statistics")
		}
	}
}

func TestRunWithSelection(t *testing.T) {
	r, s := dataset(3000, 2, 2)
	low, high := uint64(0), uint64(1)<<31 // roughly half the key domain

	// Reference: filter first, then join.
	filteredR, _ := applyScanFilter(context.Background(), r, nil, KeyRange{Low: low, High: high}.Predicate(), 4, nil)
	filteredS, _ := applyScanFilter(context.Background(), s, nil, KeyRange{Low: low, High: high}.Predicate(), 4, nil)
	var agg mergejoin.MaxAggregate
	mergejoin.ReferenceJoin(filteredR.Tuples, filteredS.Tuples, &agg)

	res, rSel, sSel, err := oneJoin{
		r: r, s: s,
		rFilter: KeyRange{Low: low, High: high}.Predicate(),
		sFilter: KeyRange{Low: low, High: high}.Predicate(),
		opts:    core.Options{Workers: 4},
	}.run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches != agg.Count || (agg.Count > 0 && res.MaxSum != agg.Max) {
		t.Fatalf("filtered query: got (%d, %d), want (%d, %d)", res.Matches, res.MaxSum, agg.Count, agg.Max)
	}
	if rSel >= r.Len() || sSel >= s.Len() {
		t.Fatal("selection did not reduce input cardinalities")
	}
	if rSel != filteredR.Len() || sSel != filteredS.Len() {
		t.Fatal("selected cardinalities do not match the reference filter")
	}
}

func TestRunErrors(t *testing.T) {
	r, s := dataset(10, 1, 3)
	if _, _, _, err := (oneJoin{r: nil, s: s}).run(); err == nil {
		t.Fatal("nil R accepted")
	}
	if _, _, _, err := (oneJoin{r: r, s: nil}).run(); err == nil {
		t.Fatal("nil S accepted")
	}
	if _, _, _, err := (oneJoin{r: r, s: s, alg: Algorithm(42)}).run(); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestRunJoinKinds(t *testing.T) {
	r, s := dataset(1500, 2, 9)
	for _, kind := range []mergejoin.Kind{mergejoin.LeftOuter, mergejoin.Semi, mergejoin.Anti} {
		var want mergejoin.MaxAggregate
		mergejoin.ReferenceJoinKind(kind, r.Tuples, s.Tuples, &want)
		res, _, _, err := oneJoin{r: r, s: s, opts: core.Options{Workers: 4, Kind: kind}}.run()
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
		if _, _, _, err := (oneJoin{r: r, s: s, alg: alg, opts: core.Options{Workers: 2, Kind: mergejoin.Semi}}).run(); err == nil {
			t.Fatalf("%v should reject non-inner join kinds", alg)
		}
	}
	if _, _, _, err := (oneJoin{r: r, s: s, opts: core.Options{Kind: mergejoin.Kind(9)}}).run(); err == nil {
		t.Fatal("invalid join kind accepted")
	}
}

func TestRunBandJoinValidation(t *testing.T) {
	r, s := dataset(200, 1, 12)
	// Valid: band join on P-MPSM.
	res, _, _, err := oneJoin{r: r, s: s, opts: core.Options{Workers: 2, Band: 10}}.run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches == 0 {
		t.Fatal("band join produced no matches on a foreign-key dataset")
	}
	// Invalid: band joins on hash joins or with non-inner kinds.
	if _, _, _, err := (oneJoin{r: r, s: s, alg: AlgorithmRadix, opts: core.Options{Band: 10}}).run(); err == nil {
		t.Fatal("band join on the radix hash join should be rejected")
	}
	if _, _, _, err := (oneJoin{r: r, s: s, opts: core.Options{Band: 10, Kind: mergejoin.Semi}}).run(); err == nil {
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
	p := KeyRange{Low: 10, High: 20}.Predicate()
	if p(relation.Tuple{Key: 9}) || !p(relation.Tuple{Key: 10}) || !p(relation.Tuple{Key: 19}) || p(relation.Tuple{Key: 20}) {
		t.Fatal("KeyRange.Predicate bounds wrong")
	}
}

func TestApplyFilterNilKeepsInput(t *testing.T) {
	r, _ := dataset(100, 1, 4)
	out, leased := applyScanFilter(context.Background(), r, nil, nil, 4, nil)
	if out != r || leased {
		t.Fatal("nil predicate should return the input relation unchanged")
	}
}
