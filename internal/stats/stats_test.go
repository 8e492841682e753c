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

// TestSkewClassification checks that the skew coefficient separates uniform
// from 80:20 inputs with the documented thresholds, under both arrangements.
func TestSkewClassification(t *testing.T) {
	const n = 1 << 16
	for _, loc := range locationCases {
		for _, sk := range skewCases {
			rel := workload.SkewedRelation("X", n, workload.DefaultKeyDomain, sk.skew, 11)
			workload.ApplyLocationSkew(rel, 8, loc.loc, workload.DefaultKeyDomain)
			p := Collect(rel)
			if sk.skew == workload.SkewNone {
				if p.Skew > 2.5 {
					t.Errorf("%s/%s: uniform input classified as skewed (coefficient %.2f)", sk.name, loc.name, p.Skew)
				}
			} else if p.Skew < 3.0 {
				t.Errorf("%s/%s: 80:20 input classified as uniform (coefficient %.2f)", sk.name, loc.name, p.Skew)
			}
		}
	}
}

// TestSortednessProbe checks the presortedness probe: exactly 1.0 on sorted
// data, well below 1.0 on shuffles, and that clustered arrangements are
// recognized through the key/position correlation.
func TestSortednessProbe(t *testing.T) {
	const n = 1 << 16
	rel := workload.UniformRelation("X", n, workload.DefaultKeyDomain, 13)

	shuffled := Collect(rel)
	if shuffled.LikelySorted() {
		t.Errorf("shuffled input probed as sorted (fraction %.3f)", shuffled.SortedFraction)
	}
	if shuffled.Clustered() {
		t.Errorf("shuffled input probed as clustered (correlation %.3f)", shuffled.KeyPositionCorrelation)
	}

	sorted := rel.Clone()
	sort.Slice(sorted.Tuples, func(i, j int) bool { return sorted.Tuples[i].Key < sorted.Tuples[j].Key })
	sp := Collect(sorted)
	if !sp.LikelySorted() {
		t.Errorf("sorted input not probed as sorted (fraction %.3f)", sp.SortedFraction)
	}
	if !sp.Clustered() {
		t.Errorf("sorted input not probed as clustered (correlation %.3f)", sp.KeyPositionCorrelation)
	}

	clustered := rel.Clone()
	workload.ApplyLocationSkew(clustered, 8, workload.LocationClustered, workload.DefaultKeyDomain)
	cp := Collect(clustered)
	if cp.LikelySorted() {
		t.Errorf("clustered-but-unsorted input probed as fully sorted")
	}
	if !cp.Clustered() {
		t.Errorf("clustered input not recognized (correlation %.3f)", cp.KeyPositionCorrelation)
	}
}

// TestJoinEstimateAccuracy checks EstimateJoin against exact join counts for
// the documented workload families and bounds: foreign-key (probe estimator,
// factor 1.5) across every skew and arrangement, independent skewed inputs
// over a dense domain (histogram fallback, factor 3), and a disjoint join
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
	// Section 5.6 shape): histogram fallback, factor 3.
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
}

// TestSelectivity checks predicate selectivity estimation on the sample.
func TestSelectivity(t *testing.T) {
	rel := workload.UniformRelation("X", 1<<16, workload.DefaultKeyDomain, 29)
	p := Collect(rel)
	half := p.Selectivity(func(t relation.Tuple) bool { return t.Key < 1<<31 })
	if math.Abs(half-0.5) > 0.08 {
		t.Errorf("half-domain predicate selectivity %.3f, want ~0.5", half)
	}
	if got := p.Selectivity(nil); got != 1 {
		t.Errorf("nil predicate selectivity %v, want 1", got)
	}
	none := p.Selectivity(func(relation.Tuple) bool { return false })
	if none != 0 {
		t.Errorf("false predicate selectivity %v, want 0", none)
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

// TestInRangeNarrowsTheProfile: a key range shrinks cardinality, distinct keys
// and key bounds to its share of the histogram, keeps the sampled tuples
// inside for join probes, and leaves the join estimate of two ranged
// foreign-key relations near the true one (query_mix's range template: 1/64th
// of the key domain, 4 234 pairs where the unranged profiles say 300 000).
func TestInRangeNarrowsTheProfile(t *testing.T) {
	a := workload.UniformRelation("a", 1<<16, 1<<32, 31)
	b := workload.ForeignKeyRelation("b", a, 1<<18, 32)
	const low, high = 0, 1 << 26
	pa, pb := Collect(a).InRange(low, high), Collect(b).InRange(low, high)
	count := func(rel *relation.Relation) (n float64) {
		for _, tup := range rel.Tuples {
			if tup.Key >= low && tup.Key < high {
				n++
			}
		}
		return n
	}
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
	if pa.SampleSize != len(pa.Sample) || pa.SampleSize == 0 || pa.SampleSize > 64 {
		t.Errorf("ranged sample of a holds %d tuples (SampleSize %d), want the few dozen inside the range", len(pa.Sample), pa.SampleSize)
	}
	if est, actual := EstimateJoin(pa, pb), count(b); est > 1.5*actual {
		t.Errorf("ranged join estimate %.0f, actual about %.0f", est, actual)
	}
	// Nothing inside, and everything inside.
	if empty := Collect(a).InRange(5, 5); empty.Tuples != 0 || !empty.LikelySorted() {
		t.Errorf("empty range: %+v", empty)
	}
	if all := Collect(a).InRange(0, math.MaxUint64); all.Tuples != a.Len() {
		t.Errorf("a range over every key keeps %d of %d tuples", all.Tuples, a.Len())
	}
}

// TestInRangeSkewNeedsEvidence stands on both sides of the bound InRange puts
// on its sample's skew. Uniform keys cut to 1/64th of their domain leave some
// thirty sampled tuples, whose fullest bucket reads as a skew coefficient of 6
// to 10 by chance alone: the relation's coefficient carries over, for every
// seed. Keys with most of their mass in one narrow stretch stay skewed inside
// a range around it, and the ranged profile says so.
func TestInRangeSkewNeedsEvidence(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		p := Collect(workload.UniformRelation("u", 1<<16, 1<<32, seed))
		ranged := p.InRange(0, 1<<26)
		if ranged.Skew != p.Skew {
			t.Errorf("seed %d: uniform keys read skew %.1f inside a narrow range (%d sampled tuples), want the relation's %.1f carried over",
				seed, ranged.Skew, ranged.SampleSize, p.Skew)
		}
	}
	// Half the tuples in [2^20, 2^20 + 2^10), the rest uniform below 2^24:
	// inside [0, 2^22) the stretch is one of 64 buckets and holds most of it.
	rng := workload.NewRNG(7)
	tuples := make([]relation.Tuple, 1<<16)
	for i := range tuples {
		tuples[i].Key = rng.Uint64n(1 << 24)
		if i%2 == 0 {
			tuples[i].Key = 1<<20 + rng.Uint64n(1<<10)
		}
	}
	p := Collect(relation.New("hot", tuples))
	ranged := p.InRange(0, 1<<22)
	if ranged.Skew < 20 || ranged.Skew == p.Skew {
		t.Errorf("a range around the hot stretch reads skew %.1f (relation %.1f), want the sample's own, above 20", ranged.Skew, p.Skew)
	}
}

// TestDeterminism checks that profiling is reproducible.
func TestDeterminism(t *testing.T) {
	rel := workload.UniformRelation("X", 1<<15, workload.DefaultKeyDomain, 37)
	a, b := Collect(rel), Collect(rel)
	if a.DistinctKeys != b.DistinctKeys || a.SortedFraction != b.SortedFraction || a.Skew != b.Skew {
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
