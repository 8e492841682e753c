package workload

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/relation"
)

// EdgeInput is one named input of the differential tests: the private and
// public relations of a join, and a third relation for the plans and queries
// that join three ways.
type EdgeInput struct {
	Name    string
	R, S, T *relation.Relation
	// Large marks an input whose point is its size (a sorter boundary at one
	// worker): a differential test runs it in a few cells, not under every
	// kind and band.
	Large bool
}

// EdgeInputs returns the inputs every join configuration must survive,
// derived from seed: the paper's distributions at test scale, then one input
// per sharp edge the kernels have had. Keys are drawn so that every join kind
// has non-trivial output wherever the input allows it.
func EdgeInputs(seed uint64) []EdgeInput {
	const domain = 1 << 20
	rng := NewRNG(seed)
	// gen builds n tuples from a key and a payload function of the index.
	gen := func(name string, n int, key, pay func(i int) uint64) *relation.Relation {
		tuples := make([]relation.Tuple, n)
		for i := range tuples {
			tuples[i] = relation.Tuple{Key: key(i), Payload: pay(i)}
		}
		return relation.New(name, tuples)
	}
	random := func(int) uint64 { return rng.Next() }
	constant := func(k uint64) func(int) uint64 { return func(int) uint64 { return k } }
	// fk draws n foreign keys of parent with fresh payloads.
	fk := func(name string, parent *relation.Relation, n int) *relation.Relation {
		return ForeignKeyRelation(name, parent, n, rng.Next())
	}
	// keysOf draws keys from parent's.
	keysOf := func(parent *relation.Relation) func(int) uint64 {
		return func(int) uint64 { return parent.Tuples[rng.Uint64n(uint64(parent.Len()))].Key }
	}
	// three completes an input whose S and T draw their keys from R's.
	three := func(name string, r *relation.Relation, sn, tn int) EdgeInput {
		return EdgeInput{Name: name, R: r, S: fk("S", r, sn), T: fk("T", r, tn)}
	}
	// ends draws keys from the k smallest and the k largest of the domain.
	ends := func(k uint64) func(int) uint64 {
		return func(int) uint64 {
			if d := rng.Uint64n(2 * k); d < k {
				return d
			}
			return math.MaxUint64 - rng.Uint64n(k)
		}
	}
	// bits draws keys or payloads of exactly b bits.
	bits := func(b uint) func(int) uint64 {
		return func(int) uint64 { return 1<<(b-1) | rng.Uint64n(1<<(b-1)) }
	}
	// sorted sorts each relation of in by key.
	sorted := func(in EdgeInput) EdgeInput {
		for _, rel := range []*relation.Relation{in.R, in.S, in.T} {
			slices.SortFunc(rel.Tuples, func(a, b relation.Tuple) int { return cmp.Compare(a.Key, b.Key) })
		}
		return in
	}
	// sized is a uniform foreign-key input of n private and n public tuples.
	sized := func(name string, n int) EdgeInput {
		in := three(name, UniformRelation("R", n, DefaultKeyDomain, rng.Next()), n, 64)
		in.Large = true
		return in
	}

	uniform := UniformRelation("R", 600, domain, rng.Next())
	halfFK := relation.New("S", append(fk("S", uniform, 900).Tuples, UniformRelation("S", 900, domain, rng.Next()).Tuples...))
	skewR := SkewedRelation("R", 500, 1<<12, SkewHigh80, rng.Next())
	carrier64 := gen("R", 700, bits(40), bits(24))
	carrier65 := gen("R", 700, bits(40), bits(25))
	oneBucket := func(int) uint64 { return 1<<32 - 1 - rng.Uint64n(1<<10) }
	// wide draws sign-flipped int64 keys in [0, 2^12), the signed-integer
	// encoding of internal/keys: full-width keys whose top bits all agree.
	wide := func(int) uint64 { return 1<<63 | rng.Uint64n(1<<12) }
	position := func(i int) uint64 { return uint64(i) }
	return []EdgeInput{
		// The paper's uniform foreign-key workload at test scale, half of S
		// drawn from the domain instead, so that every kind has output.
		{"uniform-fk", uniform, halfFK, fk("T", uniform, 900), false},
		// Negatively correlated 80:20 skew over a narrow domain: duplicate
		// cross products, and splitters that must balance them.
		{"skew-negcorr", skewR, SkewedRelation("S", 1500, 1<<12, SkewLow80, rng.Next()), fk("T", skewR, 500), false},
		// Both sides sorted by key: an auto-planned join declares them
		// presorted, and run generation verifies the order instead of sorting.
		sorted(three("presorted", UniformRelation("R", 500, domain, rng.Next()), 1500, 300)),
		// An empty private input: every kind's output is empty.
		{"empty-R", relation.New("R", nil), UniformRelation("S", 100, domain, rng.Next()), UniformRelation("T", 50, domain, rng.Next()), false},
		// An empty public input: left-outer and anti keep every private tuple.
		{"empty-S", UniformRelation("R", 100, domain, rng.Next()), relation.New("S", nil), UniformRelation("T", 50, domain, rng.Next()), false},
		// One tuple a side.
		three("one-tuple", gen("R", 1, constant(3), random), 1, 1),
		// Every key equal: one key group, the whole cross product.
		{"all-duplicate", gen("R", 40, constant(77), random), gen("S", 90, constant(77), random), gen("T", 4, constant(77), random), false},
		// No key in common: an empty join, and an empty intermediate below a
		// second join.
		{"disjoint", gen("R", 200, func(i int) uint64 { return 2 * uint64(i) }, random), gen("S", 300, func(i int) uint64 { return 2*uint64(i) + 1 }, random), gen("T", 50, func(i int) uint64 { return 2 * uint64(i) }, random), false},
		// Fewer tuples than workers: most runs and partitions are empty.
		{"workers-over-tuples", gen("R", 3, func(i int) uint64 { return uint64(i) }, random), gen("S", 5, func(i int) uint64 { return uint64(i % 3) }, random), gen("T", 2, func(i int) uint64 { return uint64(i) }, random), false},
		// Keys at 0 and MaxUint64, payloads at MaxUint64: the domain ends,
		// and key 0 is the key of the null tuple the kinds pair with.
		three("keys-0-and-max", gen("R", 60, ends(2), func(i int) uint64 { return math.MaxUint64 - uint64(i%2) }), 120, 40),
		// Band windows clamped at 0 and at MaxUint64.
		three("band-clamp", gen("R", 80, ends(6), random), 160, 40),
		// Key bits plus payload bits equal to 64: the sort word carries the
		// payload (sorting.packedCarrier's widest payload carrier).
		{"carrier-64-bits", carrier64, gen("S", 1400, keysOf(carrier64), bits(24)), gen("T", 200, keysOf(carrier64), bits(24)), false},
		// Key bits plus payload bits equal to 65: one bit too many for the
		// payload, so the sort word carries positions.
		{"carrier-65-bits", carrier65, gen("S", 1400, keysOf(carrier65), bits(25)), gen("T", 200, keysOf(carrier65), bits(25)), false},
		// Full-width keys beside positions: too wide for a position beside
		// them, so run generation sorts their top 64 − w bits and breaks the
		// ties those leave on the bits below.
		{"wide-keys", gen("R", 500, wide, position), gen("S", 1500, wide, position), gen("T", 300, wide, position), false},
		// Payload sums that wrap inside a folded range: each key group pairs
		// payloads near MaxUint64 with small ones, so the largest sum is not
		// the sum of the largest payloads.
		{"wrapping-sums", gen("R", 400, func(i int) uint64 { return uint64(i / 8) }, func(i int) uint64 {
			if i%2 == 0 {
				return math.MaxUint64 - uint64(i%3)
			}
			return uint64(i % 7)
		}), gen("S", 600, func(i int) uint64 { return uint64(i % 50) }, func(i int) uint64 { return uint64(i % 4) }), gen("T", 100, func(i int) uint64 { return uint64(i % 60) }, random), false},
		// Private payloads of 2^63 and more beside public payloads below 2^4:
		// the public side fits key and payload in one sort word, so a
		// folding B- or P-MPSM join groups its runs, but in every key group
		// some pair sums wrap past 2^64 and others do not, so the largest
		// sum is not the sum of the largest payloads and the grouped runs
		// must be sorted again raw.
		{"wide-private-payloads", gen("R", 300, func(i int) uint64 { return uint64(i % 100) }, func(i int) uint64 {
			if i%3 == 0 {
				return math.MaxUint64 - uint64(i%5)
			}
			return 1<<63 + uint64(i)
		}), gen("S", 900, func(i int) uint64 { return uint64(i % 120) }, func(i int) uint64 { return uint64(i % 9) }), gen("T", 100, func(i int) uint64 { return uint64(i % 110) }, random), false},
		// Hash chains longer than batch.DefaultSize on either build side:
		// R holds key 0 1100 times and key 1000 twice, S key 1000 1100 times
		// and key 0 three times.
		{"long-chains", gen("R", 1102, func(i int) uint64 { return uint64(i / 1100 * 1000) }, random), gen("S", 1103, func(i int) uint64 { return uint64(min(i/3, 1) * 1000) }, random), gen("T", 6, func(i int) uint64 { return uint64(i % 3 * 1000) }, random), false},
		// Key groups of 40 equal keys: D-MPSM groups straddle small pages.
		{"page-straddle", gen("R", 400, func(i int) uint64 { return uint64(i / 40 * 1000) }, random), gen("S", 300, func(i int) uint64 { return uint64(i % 10 * 1000) }, random), gen("T", 10, func(i int) uint64 { return uint64(i % 5 * 1000) }, random), false},
		// Two narrow key clusters far apart: most P-MPSM partitions are empty.
		three("clustered", gen("R", 300, func(i int) uint64 { return uint64(i%2)*(domain-64) + uint64(i%17) }, random), 600, 40),
		// 99 % of the keys agree in their low 32 bits and differ above: under
		// a (low 32 bits, key) composite schema, 99 % of the 8-byte prefixes
		// collide and only the tie-break verifier tells the keys apart.
		three("prefix-collisions", gen("R", 200, func(i int) uint64 {
			if i%100 == 99 {
				return rng.Next()
			}
			return uint64(i)<<32 | 0xC0FFEE
		}, random), 400, 100),
		// One below, at and one above l2Values (2^15) tuples: the largest run
		// stage 1 of the packed sort leaves as one bucket, and the smallest it
		// scatters.
		sized("l2-minus-1", 1<<15-1),
		sized("l2", 1<<15),
		sized("l2-plus-1", 1<<15+1),
		// Every key in one stage-1 bucket of a run stage 1 scatters.
		{"one-bucket", gen("R", 1<<15+100, oneBucket, random), gen("S", 64, oneBucket, random), gen("T", 64, oneBucket, random), true},
	}
}

// Rotation spreads the values of a differential test's rotated axes over the
// cells of its enumerated ones, and records which enumerated coordinates each
// value met, so that the test can check that every value met every one.
type Rotation struct {
	met map[[2]string]bool // (axis value, coordinate) pairs met
}

// Pick returns which of n values axis takes in the cell at the enumerated
// indexes at: the first index steps the axis one value at a time, from an
// offset that a hash of the axis and the other indexes sets, so that no two
// axes move in step.
func (r *Rotation) Pick(axis string, n int, at ...int) int {
	var x uint64
	for _, b := range []byte(axis) {
		x = NewRNG(x + uint64(b)).Next()
	}
	for _, i := range at[1:] {
		x = NewRNG(x + uint64(i)).Next()
	}
	return (at[0] + int(x%uint64(n))) % n
}

// Meet records that the axis value a cell ran with met the cell's
// coordinates.
func (r *Rotation) Meet(value string, coords ...string) {
	if r.met == nil {
		r.met = map[[2]string]bool{}
	}
	for _, c := range coords {
		r.met[[2]string{value, c}] = true
	}
}

// Missed describes each value that missed a coordinate some cell met.
func (r *Rotation) Missed() []string {
	met, coords := map[string]int{}, map[string]bool{}
	for vc := range r.met {
		met[vc[0]]++
		coords[vc[1]] = true
	}
	var out []string
	for value, n := range met {
		if n != len(coords) {
			out = append(out, fmt.Sprintf("%s met %d of %d coordinates", value, n, len(coords)))
		}
	}
	slices.Sort(out)
	return out
}
