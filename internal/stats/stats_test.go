package stats

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/relation"
	"repro/internal/workload"
)

// exactDistinct counts the distinct keys of a relation.
func exactDistinct(rel *relation.Relation) int {
	seen := make(map[uint64]struct{}, rel.Len())
	for _, t := range rel.Tuples {
		seen[t.Key] = struct{}{}
	}
	return len(seen)
}

// exactJoin counts the exact equi-join cardinality.
func exactJoin(a, b *relation.Relation) float64 {
	counts := make(map[uint64]int, a.Len())
	for _, t := range a.Tuples {
		counts[t.Key]++
	}
	total := 0.0
	for _, t := range b.Tuples {
		total += float64(counts[t.Key])
	}
	return total
}

// withinFactor asserts |estimate| and |exact| agree within the given factor.
func withinFactor(t *testing.T, what string, estimate, exact, factor float64) {
	t.Helper()
	if exact == 0 {
		if estimate > factor {
			t.Errorf("%s: estimate %.1f for exact 0", what, estimate)
		}
		return
	}
	ratio := estimate / exact
	if ratio < 1/factor || ratio > factor {
		t.Errorf("%s: estimate %.1f vs exact %.1f (ratio %.2f, want within %.1fx)",
			what, estimate, exact, ratio, factor)
	}
}

// skewCases enumerates every key distribution the workload generator offers.
var skewCases = []struct {
	name string
	skew workload.Skew
}{
	{"uniform", workload.SkewNone},
	{"low80", workload.SkewLow80},
	{"high80", workload.SkewHigh80},
}

// locationCases enumerates every physical arrangement.
var locationCases = []struct {
	name string
	loc  workload.LocationSkew
}{
	{"shuffled", workload.LocationNone},
	{"clustered", workload.LocationClustered},
}

// TestDistinctAccuracy checks the documented factor-2 bound of the Chao1
// distinct estimator across every skew × arrangement × duplication level.
func TestDistinctAccuracy(t *testing.T) {
	const n = 1 << 17
	for _, sk := range skewCases {
		for _, loc := range locationCases {
			for _, domain := range []uint64{0 /* 2^32: near-unique */, n / 2 /* heavy duplication */} {
				rel := workload.SkewedRelation("X", n, pickDomain(domain), sk.skew, 7)
				workload.ApplyLocationSkew(rel, 8, loc.loc, pickDomain(domain))
				p := Collect(rel)
				name := sk.name + "/" + loc.name
				if domain != 0 {
					name += "/dense"
				}
				withinFactor(t, "distinct "+name, p.DistinctKeys, float64(exactDistinct(rel)), 2)
			}
		}
	}
}

// pickDomain maps 0 to the default 2^32 domain.
func pickDomain(domain uint64) uint64 {
	if domain == 0 {
		return workload.DefaultKeyDomain
	}
	return domain
}

// TestSortednessProbe checks the presortedness probe: exactly 1.0 on sorted
// data, below 1.0 on shuffles and on clustered arrangements.
func TestSortednessProbe(t *testing.T) {
	const n = 1 << 16
	rel := workload.UniformRelation("X", n, workload.DefaultKeyDomain, 13)

	shuffled := Collect(rel)
	if shuffled.LikelySorted() {
		t.Errorf("shuffled input probed as sorted (fraction %.3f)", shuffled.SortedFraction)
	}

	sorted := rel.Clone()
	sort.Slice(sorted.Tuples, func(i, j int) bool { return sorted.Tuples[i].Key < sorted.Tuples[j].Key })
	sp := Collect(sorted)
	if !sp.LikelySorted() {
		t.Errorf("sorted input not probed as sorted (fraction %.3f)", sp.SortedFraction)
	}

	clustered := rel.Clone()
	workload.ApplyLocationSkew(clustered, 8, workload.LocationClustered, workload.DefaultKeyDomain)
	cp := Collect(clustered)
	if cp.LikelySorted() {
		t.Errorf("clustered-but-unsorted input probed as fully sorted")
	}
}

// TestJoinEstimateAccuracy checks EstimateJoin against exact join counts for
// the documented workload families and bounds: foreign-key (probe estimator,
// factor 1.5) across every skew and arrangement, independent skewed inputs
// over a dense domain (key-range fallback, factor 3), and a disjoint join
// (no large prediction).
func TestJoinEstimateAccuracy(t *testing.T) {
	const n = 1 << 16

	for _, sk := range skewCases {
		for _, loc := range locationCases {
			r := workload.SkewedRelation("R", n, workload.DefaultKeyDomain, sk.skew, 17)
			s := workload.ForeignKeyRelation("S", r, 4*n, 18)
			workload.ApplyLocationSkew(s, 8, loc.loc, workload.DefaultKeyDomain)
			est := EstimateJoin(Collect(r), Collect(s))
			withinFactor(t, "fk join "+sk.name+"/"+loc.name, est, exactJoin(r, s), 1.5)
		}
	}

	// Foreign keys at multiplicity 16, and both sides presorted by key (the
	// inputs a presorted declaration is made for): probe estimator, factor 1.5.
	parentR := workload.UniformRelation("R", n/4, workload.DefaultKeyDomain, 24)
	wide := workload.ForeignKeyRelation("S", parentR, 4*n, 25)
	withinFactor(t, "fk join x16", EstimateJoin(Collect(parentR), Collect(wide)), exactJoin(parentR, wide), 1.5)
	sortedR := workload.UniformRelation("R", n, workload.DefaultKeyDomain, 26)
	sortedS := workload.ForeignKeyRelation("S", sortedR, 4*n, 30)
	for _, rel := range []*relation.Relation{sortedR, sortedS} {
		sort.Slice(rel.Tuples, func(i, j int) bool { return rel.Tuples[i].Key < rel.Tuples[j].Key })
	}
	withinFactor(t, "fk join presorted", EstimateJoin(Collect(sortedR), Collect(sortedS)), exactJoin(sortedR, sortedS), 1.5)

	// Independent inputs over a dense domain (the negatively correlated
	// Section 5.6 shape): key-range fallback, factor 3.
	domain := uint64(4 * n)
	r := workload.SkewedRelation("R", n, domain, workload.SkewHigh80, 19)
	s := workload.SkewedRelation("S", 4*n, domain, workload.SkewLow80, 20)
	est := EstimateJoin(Collect(r), Collect(s))
	withinFactor(t, "independent negcorr join", est, exactJoin(r, s), 3)

	// Same-skew independent dense inputs.
	r2 := workload.SkewedRelation("R", n, domain, workload.SkewLow80, 21)
	s2 := workload.SkewedRelation("S", 4*n, domain, workload.SkewLow80, 22)
	est2 := EstimateJoin(Collect(r2), Collect(s2))
	withinFactor(t, "independent same-skew join", est2, exactJoin(r2, s2), 3)

	// Self-joins saturate the cross-sample probe; the containment fallback
	// must keep the estimate within the documented factor 3, for unique
	// keys (|J| ≈ n) and for duplicate-heavy keys (|J| ≈ n·duplication).
	selfUnique := workload.UniformRelation("SU", n, workload.DefaultKeyDomain, 27)
	pu := Collect(selfUnique)
	withinFactor(t, "self-join unique", EstimateJoin(pu, pu), exactJoin(selfUnique, selfUnique), 3)
	parent := workload.UniformRelation("P", n/16, workload.DefaultKeyDomain, 28)
	selfDup := workload.ForeignKeyRelation("SD", parent, n, 29)
	pd := Collect(selfDup)
	withinFactor(t, "self-join duplicated", EstimateJoin(pd, pd), exactJoin(selfDup, selfDup), 3)

	// Disjoint key ranges must not predict a large join.
	lo := workload.UniformRelation("L", n, 1<<20, 23)
	hiTuples := make([]relation.Tuple, n)
	for i := range hiTuples {
		hiTuples[i] = relation.Tuple{Key: uint64(1<<30) + uint64(i), Payload: 1}
	}
	hi := relation.New("H", hiTuples)
	if est := EstimateJoin(Collect(lo), Collect(hi)); est > 1 {
		t.Errorf("disjoint join estimated at %.1f, want ~0", est)
	}
}

// exactBandJoin counts the pairs with |r.key − s.key| <= band by brute force
// over s's sorted keys (the test keys stay clear of both ends of the domain).
func exactBandJoin(r, s *relation.Relation, band uint64) float64 {
	keys := make([]uint64, s.Len())
	for i, t := range s.Tuples {
		keys[i] = t.Key
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	pairs := 0
	for _, t := range r.Tuples {
		from := sort.Search(len(keys), func(i int) bool { return keys[i]+band >= t.Key })
		to := sort.Search(len(keys), func(i int) bool { return keys[i] > t.Key+band })
		pairs += to - from
	}
	return float64(pairs)
}

// TestBandJoinEstimate: the band width must reach the cardinality estimate.
// On query_mix's d/e shape — 32 768 independent keys below 2^18 on each side,
// where the equi-join estimate alone is ~29x too low at width 16 — the
// estimate stays within a factor 2 of the exact count for every width the
// template uses, foreign-key inputs keep their probe estimate as the floor,
// and width 0 is EstimateJoin.
func TestBandJoinEstimate(t *testing.T) {
	const n, domain = 32768, 1 << 18
	d := workload.UniformRelation("d", n, domain, 41)
	e := workload.UniformRelation("e", n, domain, 42)
	pd, pe := Collect(d), Collect(e)
	for _, width := range []uint64{2, 4, 8, 16, 32} {
		withinFactor(t, fmt.Sprintf("band join width %d", width), EstimateBandJoin(pd, pe, width), exactBandJoin(d, e, width), 2)
	}
	if band, equi := EstimateBandJoin(pd, pe, 0), EstimateJoin(pd, pe); band != equi {
		t.Errorf("width 0 estimated at %v, the equi-join at %v", band, equi)
	}

	// Sparse foreign keys: a band of 8 key values adds next to nothing to the
	// equi-join, which only the key probe sees.
	r := workload.UniformRelation("R", 1<<14, workload.DefaultKeyDomain, 43)
	s := workload.ForeignKeyRelation("S", r, 1<<16, 44)
	withinFactor(t, "foreign-key band join", EstimateBandJoin(Collect(r), Collect(s), 8), exactBandJoin(r, s, 8), 1.5)

	// Key ranges a band cannot bridge stay empty; ranges it can, do not.
	lo := relation.New("lo", []relation.Tuple{{Key: 10}, {Key: 11}})
	hi := relation.New("hi", []relation.Tuple{{Key: 20}, {Key: 21}})
	if est := EstimateBandJoin(Collect(lo), Collect(hi), 5); est != 0 {
		t.Errorf("unbridged band join estimated at %v, want 0", est)
	}
	if est := EstimateBandJoin(Collect(lo), Collect(hi), 10); est <= 0 || est > 4 {
		t.Errorf("bridged band join estimated at %v, want within (0, 4]", est)
	}

	// Keys past 2^53, where one float64 step spans many key values: the
	// estimate ends, inside the cross product.
	x, y := make([]relation.Tuple, 64), make([]relation.Tuple, 64)
	for i := range x {
		x[i].Key, y[i].Key = 1<<63|uint64(i), 1<<63|uint64(7*i)
	}
	if est := EstimateBandJoin(Collect(relation.New("x", x)), Collect(relation.New("y", y)), 3); !(est > 0 && est <= 64*64) {
		t.Errorf("band join past 2^53 estimated at %v, want within (0, 4096]", est)
	}
}

// TestFilteredProfile checks that Filtered narrows the key range and scales
// the cardinality.
func TestFilteredProfile(t *testing.T) {
	rel := workload.UniformRelation("X", 1<<16, workload.DefaultKeyDomain, 31)
	p := Collect(rel)
	f := p.Filtered(func(t relation.Tuple) bool { return t.Key < 1<<30 })
	wantTuples := float64(rel.Len()) / 4
	withinFactor(t, "filtered cardinality", float64(f.Tuples), wantTuples, 1.4)
	if f.MaxKey >= 1<<30 {
		t.Errorf("filtered profile kept MaxKey %d outside the predicate range", f.MaxKey)
	}
}

// inRange profiles a relation's keys in [low, high) as the planner profiles a
// scan's key range.
func inRange(rel *relation.Relation, low, high uint64) *Profile {
	return Collect(rel).InRange(low, high)
}

// countIn counts a relation's tuples with keys in [low, high).
func countIn(rel *relation.Relation, low, high uint64) (n float64) {
	for _, tup := range rel.Tuples {
		if tup.Key >= low && tup.Key < high {
			n++
		}
	}
	return n
}

// TestInRangeNarrowsTheProfile: a key range shrinks cardinality, distinct keys
// and key bounds to the share of the sample inside it, keeps the sampled
// tuples inside for join probes, and leaves the join estimate of two ranged
// foreign-key relations near the true one (query_mix's range template: 1/64th
// of the key domain, 4 234 pairs where the unranged profiles say 300 000).
// Order carries over from the relation. Over keys skewed 80:20 the share is
// the sample's, not the range's share of
// the key bounds: a range of a quarter of the domain in the sparse part holds
// a sixteenth of the relation.
func TestInRangeNarrowsTheProfile(t *testing.T) {
	a := workload.UniformRelation("a", 1<<16, 1<<32, 31)
	b := workload.ForeignKeyRelation("b", a, 1<<18, 32)
	const low, high = 0, 1 << 26
	pa, pb := inRange(a, low, high), inRange(b, low, high)
	count := func(rel *relation.Relation) float64 { return countIn(rel, low, high) }
	withinFactor(t, "ranged cardinality of a", float64(pa.Tuples), count(a), 1.4)
	withinFactor(t, "ranged cardinality of b", float64(pb.Tuples), count(b), 1.4)
	withinFactor(t, "ranged distinct keys of a", pa.DistinctKeys, count(a), 1.4)
	if pa.MinKey < low || pa.MaxKey >= high || pb.MaxKey >= high {
		t.Errorf("ranged bounds [%d, %d] and [%d, %d] leave [%d, %d)", pa.MinKey, pa.MaxKey, pb.MinKey, pb.MaxKey, low, high)
	}
	for _, tup := range pa.Sample {
		if tup.Key < low || tup.Key >= high {
			t.Fatalf("ranged sample holds key %d outside [%d, %d)", tup.Key, low, high)
		}
	}
	if len(pa.Sample) == 0 || len(pa.Sample) > 64 {
		t.Errorf("ranged sample of a holds %d tuples, want the few dozen inside the range", len(pa.Sample))
	}
	if est, actual := EstimateJoin(pa, pb), count(b); est > 1.5*actual {
		t.Errorf("ranged join estimate %.0f, actual about %.0f", est, actual)
	}
	// Nothing inside, and everything inside.
	if empty := inRange(a, 5, 5); empty.Tuples != 0 || !empty.LikelySorted() {
		t.Errorf("empty range: %+v", empty)
	}
	if all := inRange(a, 0, math.MaxUint64); all.Tuples != a.Len() {
		t.Errorf("a range over every key keeps %d of %d tuples", all.Tuples, a.Len())
	}
	// Order carries over: the one sampled tuple in a one-key range says
	// nothing of the order of the tuples it stands for, and a range of a
	// sorted relation is sorted.
	one := Collect(a).Sample[0].Key
	if p := inRange(a, one, one+1); p.Tuples == 0 || p.LikelySorted() {
		t.Errorf("one-key range of shuffled a: %d tuples, sorted %t, want some, unsorted", p.Tuples, p.LikelySorted())
	}
	sorted := a.Clone()
	sort.Slice(sorted.Tuples, func(i, j int) bool { return sorted.Tuples[i].Key < sorted.Tuples[j].Key })
	if p := inRange(sorted, low, high); !p.LikelySorted() {
		t.Errorf("ranged sorted a probed unsorted (fraction %.3f)", p.SortedFraction)
	}

	// Skewed keys: ranges in the dense fifth, in the sparse rest, and over
	// most of the relation, each holding at least 5 % of it.
	const domain, fifth = 1 << 32, (1 << 32) / 5
	for _, c := range []struct {
		name      string
		skew      workload.Skew
		low, high uint64
	}{
		{"low80 dense", workload.SkewLow80, 0, 1 << 26},
		{"low80 sparse", workload.SkewLow80, 1 << 31, 1<<31 + 1<<30},
		{"low80 most", workload.SkewLow80, 0, fifth + 1<<28},
		{"high80 dense", workload.SkewHigh80, domain - 1<<26, domain},
		{"high80 sparse", workload.SkewHigh80, 1 << 30, 1<<30 + 1<<30},
		{"high80 most", workload.SkewHigh80, domain - fifth - 1<<28, domain},
	} {
		rel := workload.SkewedRelation("x", 1<<16, domain, c.skew, 33)
		actual := countIn(rel, c.low, c.high)
		if actual < 0.05*float64(rel.Len()) {
			t.Fatalf("%s: [%d, %d) holds %.0f of %d tuples, under 5 %%", c.name, c.low, c.high, actual, rel.Len())
		}
		withinFactor(t, "ranged cardinality of "+c.name, float64(inRange(rel, c.low, c.high).Tuples), actual, 1.4)
	}
}

// TestFilterMissingTheSample: a selection no sampled tuple passes may still
// keep rows, so it is estimated at half a sampled tuple's share of the
// relation (16 of 2^16 tuples sampled 2 048 times), at least one row, each a
// distinct key within the relation's sampled bounds, in the relation's order
// — a shuffled relation's is no presorted scan. A range with High <= Low keeps
// provably nothing.
func TestFilterMissingTheSample(t *testing.T) {
	none := func(relation.Tuple) bool { return false }
	a := workload.UniformRelation("a", 1<<16, 1<<32, 31)
	p := Collect(a)
	f := p.Filtered(none)
	if f.Tuples != 16 || f.DistinctKeys != 16 || f.MinKey != p.MinKey || f.MaxKey != p.MaxKey || f.LikelySorted() {
		t.Errorf("a filter missing the sample of shuffled a: %d tuples, %g distinct keys in [%d, %d], sorted %t; want 16, 16 in [%d, %d], unsorted",
			f.Tuples, f.DistinctKeys, f.MinKey, f.MaxKey, f.LikelySorted(), p.MinKey, p.MaxKey)
	}
	sorted := a.Clone()
	sort.Slice(sorted.Tuples, func(i, j int) bool { return sorted.Tuples[i].Key < sorted.Tuples[j].Key })
	if f := Collect(sorted).Filtered(none); f.Tuples != 16 || !f.LikelySorted() {
		t.Errorf("a filter missing the sample of sorted a: %d tuples, sorted %t; want 16, sorted", f.Tuples, f.LikelySorted())
	}
	small := relation.New("small", a.Tuples[:100])
	if f := Collect(small).Filtered(none); f.Tuples != 1 {
		t.Errorf("a filter missing every tuple of a 100-tuple relation: %d tuples, want 1", f.Tuples)
	}
	for _, r := range [][2]uint64{{5, 5}, {6, 5}, {0, 0}} {
		if f := p.InRange(r[0], r[1]); f.Tuples != 0 || !f.LikelySorted() {
			t.Errorf("InRange(%d, %d): %d tuples, sorted %t; want 0, sorted", r[0], r[1], f.Tuples, f.LikelySorted())
		}
	}
}

// TestDeterminism checks that profiling is reproducible.
func TestDeterminism(t *testing.T) {
	rel := workload.UniformRelation("X", 1<<15, workload.DefaultKeyDomain, 37)
	a, b := Collect(rel), Collect(rel)
	if a.DistinctKeys != b.DistinctKeys || a.SortedFraction != b.SortedFraction || a.MinKey != b.MinKey || a.MaxKey != b.MaxKey {
		t.Errorf("profiles differ across runs: %+v vs %+v", a, b)
	}
}

// TestEmptyAndTiny covers degenerate relations.
func TestEmptyAndTiny(t *testing.T) {
	if p := Collect(relation.New("empty", nil)); p.Tuples != 0 || !p.LikelySorted() {
		t.Errorf("empty profile: %+v", p)
	}
	one := relation.New("one", []relation.Tuple{{Key: 5, Payload: 1}})
	p := Collect(one)
	if p.Tuples != 1 || p.DistinctKeys != 1 || !p.LikelySorted() {
		t.Errorf("singleton profile: %+v", p)
	}
	if est := EstimateJoin(p, Collect(relation.New("empty", nil))); est != 0 {
		t.Errorf("join with empty relation estimated at %v", est)
	}
}
