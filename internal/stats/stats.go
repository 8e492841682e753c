// Package stats computes cheap, sampling-based statistics over relations:
// cardinality, a distinct-key estimate, the sampled key bounds and a
// presortedness probe. The planner turns these profiles into cost
// estimates and physical plan choices; nothing in this package looks at more
// than a fixed-size sample of the relation, so profiling a relation costs
// microseconds regardless of its size.
//
// # Estimators and their error bounds
//
// All bounds below are empirical, verified by the accuracy tests in this
// package over every combination of workload.Skew and workload.LocationSkew
// the generator produces (uniform, 80:20 low/high, foreign-key, clustered),
// at the default sample size of 2048:
//
//   - Distinct keys (bias-corrected Chao1 over the sample, capped at the
//     cardinality): within a factor of 2 of the exact count. When the sample
//     contains no duplicate at all the estimator returns the cardinality,
//     which is exact for unique-key relations and an upper bound otherwise.
//   - Sorted fraction: exactly 1.0 for sorted inputs; uniform shuffles land
//     near 0.5. The planner only declares an input presorted at 1.0, and the
//     join verifies the declaration per chunk, so a false positive costs one
//     linear check.
//   - Join cardinality (EstimateJoin): within a factor of 1.5 for key-probe
//     estimates (cross-sample hit count >= ProbeMinHits, the foreign-key
//     workloads), within a factor of 3 for the key-range fallback, which
//     takes the keys as spread evenly between the sampled bounds
//     (independent skewed workloads), and for self-joins (where the probe
//     saturates and the containment estimate takes over), and never
//     predicts a large result for an empty or near-empty join.
//
// Profiles are deterministic: the same relation always yields the same
// profile, so plans are reproducible.
package stats

import (
	"math"

	"repro/internal/relation"
	"repro/internal/workload"
)

const (
	// DefaultSampleSize is the number of tuples sampled per profile. 2048
	// keys are enough for the Chao1 collision counts and the cross-sample
	// join probes to resolve the decisions the planner takes, while keeping
	// profiling cost trivial next to any join.
	DefaultSampleSize = 2048

	// ProbeMinHits is the minimum cross-sample hit count at which
	// EstimateJoin trusts the unbiased key-probe estimate; below it the
	// Poisson noise exceeds the key-range fallback's error.
	ProbeMinHits = 10
)

// Profile is the sampled statistical summary of one relation.
type Profile struct {
	// Tuples is the exact cardinality.
	Tuples int

	// MinKey and MaxKey bound the keys observed in the sample. They are
	// approximate bounds of the true key range (tight for the tested
	// distributions: the sample spans the whole relation).
	MinKey, MaxKey uint64

	// DistinctKeys estimates the number of distinct join keys (Chao1).
	DistinctKeys float64

	// SortedFraction is the fraction of position-consecutive sample pairs in
	// non-decreasing key order: 1.0 for sorted data, ~0.5 for shuffles.
	SortedFraction float64

	// Sample holds the sampled tuples in position order; EstimateJoin
	// probes it. Derived profiles (join outputs) have no sample.
	Sample []relation.Tuple

	// Correlated marks a derived profile whose keys are known to be
	// contained in its ancestors' key sets (a join output); EstimateJoin
	// then prefers the containment estimate over the independence estimate.
	Correlated bool

	// KeyNormalized marks a relation whose uint64 keys are normalized-key
	// prefixes derived from a schema (relation.Meta != nil).
	KeyNormalized bool
	// KeyTieBreak marks a normalized relation whose prefixes are inexact:
	// joins verify prefix-equal pairs against the full keys.
	KeyTieBreak bool
	// PrefixCollisionRate estimates, for tie-break relations, the fraction
	// of distinct full keys that share their 8-byte prefix with another key
	// — the fraction of candidate pairs the tie-break comparator must
	// reject. Sampled as (distinct full keys − distinct prefixes) /
	// distinct full keys.
	PrefixCollisionRate float64

	// keySet is the sample's distinct keys, for join probes. It is built
	// eagerly with the profile so that profiles can be shared between
	// concurrent planning sessions without synchronization.
	keySet map[uint64]struct{}
}

// Collect profiles a relation from a deterministic sample of at most
// DefaultSampleSize tuples. Relations no larger than the sample are profiled
// exactly.
func Collect(rel *relation.Relation) *Profile {
	p := &Profile{}
	if rel != nil {
		p.Tuples = rel.Len()
	}
	if p.Tuples == 0 {
		p.SortedFraction = 1
		return p
	}
	tuples := rel.Tuples

	// Deterministic stride sample in position order: one tuple per stride
	// window, jittered (workload's stable splitmix64 RNG, seeded by the
	// cardinality) within the window so periodic arrangements do not alias
	// with the stride.
	n := len(tuples)
	sampleSize := min(n, DefaultSampleSize)
	sample := make([]relation.Tuple, 0, sampleSize)
	rng := workload.NewRNG(uint64(n)*0x9e3779b97f4a7c15 + 0x1234)
	for i := 0; i < sampleSize; i++ {
		lo := i * n / sampleSize
		hi := (i + 1) * n / sampleSize
		pos := lo
		if span := hi - lo; span > 1 {
			pos = lo + int(rng.Uint64n(uint64(span)))
		}
		sample = append(sample, tuples[pos])
	}
	p.Sample = sample

	p.fillFromSample()

	if rel.Meta != nil {
		p.KeyNormalized = true
		if !rel.Meta.Exact() {
			p.KeyTieBreak = true
			p.PrefixCollisionRate = prefixCollisionRate(sample, rel.Meta)
		}
	}
	return p
}

// prefixCollisionRate samples how often distinct full normalized keys
// collapse onto one 8-byte prefix. Tuple payloads of tie-break relations
// are row indices, so the sample reaches the full keys through the
// metadata.
func prefixCollisionRate(sample []relation.Tuple, meta relation.KeyMeta) float64 {
	prefixes := make(map[uint64]struct{}, len(sample))
	full := make(map[string]struct{}, len(sample))
	for _, t := range sample {
		prefixes[t.Key] = struct{}{}
		full[string(meta.FullKey(int(t.Payload)))] = struct{}{}
	}
	if len(full) == 0 {
		return 0
	}
	return float64(len(full)-len(prefixes)) / float64(len(full))
}

// fillFromSample computes every derived statistic from the stored sample.
func (p *Profile) fillFromSample() {
	sample := p.Sample
	s := len(sample)
	if s == 0 {
		return
	}

	p.MinKey, p.MaxKey = sample[0].Key, sample[0].Key
	sortedPairs := 0
	for i, t := range sample {
		if t.Key < p.MinKey {
			p.MinKey = t.Key
		}
		if t.Key > p.MaxKey {
			p.MaxKey = t.Key
		}
		if i > 0 && sample[i-1].Key <= t.Key {
			sortedPairs++
		}
	}
	if s > 1 {
		p.SortedFraction = float64(sortedPairs) / float64(s-1)
	} else {
		p.SortedFraction = 1
	}

	p.DistinctKeys = chao1(sample, p.Tuples, s)

	p.keySet = make(map[uint64]struct{}, len(sample))
	for _, t := range sample {
		p.keySet[t.Key] = struct{}{}
	}
}

// chao1 is the bias-corrected Chao1 distinct estimator over the sample:
// d + f1·(f1−1) / (2·(f2+1)), where f1/f2 count the keys seen exactly
// once/twice. A sample without any duplicate carries no duplication evidence,
// so the estimate is the cardinality itself (exact for unique keys, an upper
// bound otherwise). The result is clamped to [d, n].
func chao1(sample []relation.Tuple, n, s int) float64 {
	counts := make(map[uint64]int, s)
	for _, t := range sample {
		counts[t.Key]++
	}
	d := len(counts)
	f1, f2 := 0, 0
	for _, c := range counts {
		switch c {
		case 1:
			f1++
		case 2:
			f2++
		}
	}
	if d == f1 {
		// No key repeats in the sample: by the birthday bound a population
		// with fewer than ~s²/2 distinct keys would almost surely have
		// collided, so every key of the relation is treated as distinct.
		return float64(n)
	}
	est := float64(d) + float64(f1)*float64(f1-1)/(2*float64(f2+1))
	return math.Min(float64(n), math.Max(float64(d), est))
}

// LikelySorted reports whether every sampled position-consecutive pair was
// in key order. The join verifies a presorted declaration per chunk, so
// acting on this is safe even for the (rare) unsorted relation that passes
// the probe.
func (p *Profile) LikelySorted() bool { return p.Tuples == 0 || p.SortedFraction >= 1 }

// keys returns the sample's distinct-key set (nil for derived profiles
// without a sample).
func (p *Profile) keys() map[uint64]struct{} { return p.keySet }

// massIn returns the estimated fraction of the relation's tuples whose keys
// fall in [lo, hi]: the share of [MinKey, MaxKey] the range overlaps, the keys
// taken as spread evenly between the sampled bounds.
func (p *Profile) massIn(lo, hi float64) float64 {
	if p.Tuples == 0 || hi < lo {
		return 0
	}
	minK, maxK := float64(p.MinKey), float64(p.MaxKey)
	overlap := math.Min(hi, maxK) - math.Max(lo, minK) + 1
	return math.Max(0, math.Min(1, overlap/(maxK-minK+1)))
}

// EstimateJoin estimates the equi-join cardinality |a ⋈ b|.
//
// Three estimators combine:
//
//   - Key probe: each profile's sampled keys are looked up in the other
//     sample's key set. The hit count H is an unbiased estimate of
//     2·sA·sB·|J|/(|A|·|B|); with H >= ProbeMinHits its relative error is
//     ~1/sqrt(H) and it is used directly. This is the estimator that
//     recognizes foreign-key (contained) workloads.
//   - Key-range independence: over the overlap of the two key ranges,
//     |A_o|·|B_o| / width_o, where A_o and B_o are each side's tuples in the
//     overlap, each side's keys taken as spread evenly between its sampled
//     bounds — exact in expectation for keys drawn independently within the
//     overlap.
//   - Key-range containment: |A_o|·|B_o| / max(d_Ao, d_Bo) over the same
//     overlap — the System-R bound, an over-estimate for independent keys
//     but tight under containment. It caps the result, and replaces the
//     independence estimate when a profile is a derived (Correlated) join
//     output whose keys are contained in its ancestors' by construction.
func EstimateJoin(a, b *Profile) float64 {
	if a == nil || b == nil || a.Tuples == 0 || b.Tuples == 0 {
		return 0
	}
	lo := math.Max(float64(a.MinKey), float64(b.MinKey))
	hi := math.Min(float64(a.MaxKey), float64(b.MaxKey))
	if hi < lo {
		return 0
	}

	independence, containment := overlapEstimates(a, b, lo, hi)

	if h, na, nb := crossProbeHits(a, b); na > 0 && nb > 0 {
		if h >= (na+nb)/2 {
			// The samples largely coincide — a self-join, or two relations
			// over one key set. The probe's linearization (each hit is a
			// rare event) breaks down here; the containment estimate is the
			// right model and exact in expectation for a self-join
			// (sum over keys of multiplicity² = |A|·duplication).
			return math.Max(1, containment)
		}
		probe := float64(h) * float64(a.Tuples) * float64(b.Tuples) / (2 * float64(na) * float64(nb))
		if h >= ProbeMinHits {
			return math.Max(1, probe)
		}
		// Too few hits for the probe alone; it still vouches that the join
		// is not containment-dense, so fall back to independence, capped by
		// containment.
		return math.Min(containment, math.Max(independence, probe))
	}

	// No samples (derived profiles): trust the containment estimate when the
	// keys are known to be correlated, the independence estimate otherwise.
	if a.Correlated || b.Correlated {
		return containment
	}
	return math.Min(containment, independence)
}

// EstimateBandJoin estimates the cardinality of the band join of a and b,
// |a.key − b.key| <= band; band 0 is EstimateJoin. A band join's result
// contains the equi-join's, so the equi-join estimate is a floor (it is the
// one that recognises foreign-key inputs). Above it, every key of a meets the
// 2·band+1 key values around it. A_o is a's tuples where they can meet b's
// (a's key range cut to b's, widened by the band on both sides) and B_o is
// b's tuples in that range widened by the band again, span_o keys. Each
// offset is an equi-join of the two — |A_o|·|B_o| / span_o pairs for keys
// spread independently over the span, |A_o|·|B_o| / max(d_Ao, d_Bo) when a
// profile's keys are known to be contained in the other's — and the cross
// product |A_o|·|B_o| bounds their sum.
func EstimateBandJoin(a, b *Profile, band uint64) float64 {
	equi := EstimateJoin(a, b)
	if band == 0 || a == nil || b == nil || a.Tuples == 0 || b.Tuples == 0 {
		return equi
	}
	w := float64(band)
	lo := math.Max(float64(a.MinKey), float64(b.MinKey)-w)
	hi := math.Min(float64(a.MaxKey), float64(b.MaxKey)+w)
	if hi < lo {
		return equi
	}
	width := hi - lo + 1
	span := width + 2*w // keys one offset's equi-join spreads its pairs over
	fa, fb := a.massIn(lo, hi), b.massIn(lo-w, hi+w)
	perOffset := span
	if a.Correlated || b.Correlated {
		da := math.Min(math.Max(1, fa*a.DistinctKeys), width)
		db := math.Min(math.Max(1, fb*b.DistinctKeys), span)
		perOffset = math.Max(da, db)
	}
	cross := fa * float64(a.Tuples) * fb * float64(b.Tuples)
	return math.Max(equi, cross*math.Min(1, (2*w+1)/perOffset))
}

// overlapEstimates computes the independence and containment estimates over
// the key-range overlap [lo, hi].
func overlapEstimates(a, b *Profile, lo, hi float64) (independence, containment float64) {
	width := hi - lo + 1
	fa, fb := a.massIn(lo, hi), b.massIn(lo, hi)
	cross := fa * float64(a.Tuples) * fb * float64(b.Tuples)
	// Distinct keys in the overlap can never exceed its key width.
	da := math.Min(math.Max(1, fa*a.DistinctKeys), width)
	db := math.Min(math.Max(1, fb*b.DistinctKeys), width)
	return cross / width, cross / math.Max(da, db)
}

// crossProbeHits counts sampled keys of each profile found in the other
// profile's sampled key set; na/nb are the participating sample sizes (0
// when a profile has no sample).
func crossProbeHits(a, b *Profile) (hits, na, nb int) {
	ka, kb := a.keys(), b.keys()
	if ka == nil || kb == nil {
		return 0, 0, 0
	}
	for _, t := range a.Sample {
		if _, ok := kb[t.Key]; ok {
			hits++
		}
	}
	for _, t := range b.Sample {
		if _, ok := ka[t.Key]; ok {
			hits++
		}
	}
	return hits, len(a.Sample), len(b.Sample)
}

// JoinOutput derives the profile of a join's (materialized) output from its
// input profiles and the estimated cardinality: key range restricted to the
// overlap, distinct keys bounded by the smaller overlapping side, no sample,
// and Correlated set — the output's keys are contained in both inputs' key
// sets.
func JoinOutput(a, b *Profile, estRows float64) *Profile {
	out := &Profile{
		Tuples:         int(math.Ceil(estRows)),
		SortedFraction: 0.5, // concatenated per-worker segments: unknown order
		Correlated:     true,
	}
	if a == nil || b == nil || estRows <= 0 {
		out.Tuples = 0
		out.SortedFraction = 1
		return out
	}
	lo := math.Max(float64(a.MinKey), float64(b.MinKey))
	hi := math.Min(float64(a.MaxKey), float64(b.MaxKey))
	if hi < lo {
		out.Tuples = 0
		return out
	}
	out.MinKey, out.MaxKey = uint64(lo), uint64(hi)

	overlapA := a.massIn(lo, hi) * a.DistinctKeys
	overlapB := b.massIn(lo, hi) * b.DistinctKeys
	out.DistinctKeys = math.Max(1, math.Min(overlapA, overlapB))
	out.DistinctKeys = math.Min(out.DistinctKeys, estRows)
	return out
}

// Filtered returns the profile of the relation after applying a selection
// predicate: the sample is filtered through the predicate and every derived
// statistic (key bounds, sortedness, distinct keys) is recomputed from the
// survivors, so a key-range predicate narrows the profile's range rather than
// merely scaling its counts, and a range over skewed keys keeps the share of
// the relation the sample holds inside it. Sortedness is at most the
// relation's: a selection leaves an arrangement's order what it was, and a
// handful of survivors that happen to lie in order say nothing of the rest. A
// predicate no sampled tuple passes may still keep rows of the relation —
// fewer than one sampled tuple's share of them, with no telling how many — so
// it is estimated at half that share, at least one row, keyed within the
// relation's sampled bounds, every row a distinct key. A nil predicate returns
// the profile unchanged.
func (p *Profile) Filtered(pred func(relation.Tuple) bool) *Profile {
	if pred == nil || len(p.Sample) == 0 {
		return p
	}
	kept := make([]relation.Tuple, 0, len(p.Sample))
	for _, t := range p.Sample {
		if pred(t) {
			kept = append(kept, t)
		}
	}
	cp := p.none()
	cp.Sample = kept
	if len(kept) == 0 {
		cp.Tuples = max(1, int(math.Round(float64(p.Tuples)/float64(2*len(p.Sample)))))
		cp.MinKey, cp.MaxKey = p.MinKey, p.MaxKey
		cp.DistinctKeys = float64(cp.Tuples)
	} else {
		cp.Tuples = int(math.Round(float64(p.Tuples) * float64(len(kept)) / float64(len(p.Sample))))
		cp.fillFromSample()
	}
	cp.SortedFraction = min(cp.SortedFraction, p.SortedFraction)
	return cp
}

// InRange is Filtered by the key range [low, high): a range with high <= low
// provably keeps no tuple, and is estimated so.
func (p *Profile) InRange(low, high uint64) *Profile {
	if high <= low {
		return p.none()
	}
	return p.Filtered(func(t relation.Tuple) bool { return low <= t.Key && t.Key < high })
}

// none is the profile of a selection from p that keeps no tuple. Selection
// copies tuples whole, so the key regime carries over.
func (p *Profile) none() *Profile {
	return &Profile{
		SortedFraction:      1,
		KeyNormalized:       p.KeyNormalized,
		KeyTieBreak:         p.KeyTieBreak,
		PrefixCollisionRate: p.PrefixCollisionRate,
	}
}

// Mapped returns the profile of the relation after a pure tuple-to-tuple
// transformation: the sample is pushed through the function and the shape
// statistics are recomputed, while the cardinality carries over. A profile
// without a sample (a derived join output) is returned unchanged — the
// cardinality is still right, the distribution becomes a guess.
func (p *Profile) Mapped(fn func(relation.Tuple) relation.Tuple) *Profile {
	if fn == nil || len(p.Sample) == 0 {
		return p
	}
	mapped := make([]relation.Tuple, len(p.Sample))
	for i, t := range p.Sample {
		mapped[i] = fn(t)
	}
	cp := &Profile{
		Tuples:     p.Tuples,
		Sample:     mapped,
		Correlated: false, // arbitrary key rewrites break containment
	}
	cp.fillFromSample()
	return cp
}
