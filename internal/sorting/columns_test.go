package sorting

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/batch"
	"repro/internal/relation"
)

// stdlibOracle returns input in the order the stable stdlib sort gives it.
func stdlibOracle(input []relation.Tuple) []relation.Tuple {
	want := slices.Clone(input)
	slices.SortStableFunc(want, func(a, b relation.Tuple) int { return cmp.Compare(a.Key, b.Key) })
	return want
}

// checkColumnsAgainstStdlib verifies a columnar sort output against the
// stdlib oracle (want = stdlibOracle(input)): every sort is stable, so the
// output must equal the stable order pair for pair.
func checkColumnsAgainstStdlib(t *testing.T, name string, input, want []relation.Tuple, keys, pays []uint64) {
	t.Helper()
	if len(keys) != len(want) || len(pays) != len(want) {
		t.Fatalf("%s: length changed: %d -> keys %d, pays %d", name, len(want), len(keys), len(pays))
	}
	for i := range keys {
		if keys[i] != want[i].Key || pays[i] != want[i].Payload {
			t.Fatalf("%s: (%d, %d) at %d, the stable order has (%d, %d)", name, keys[i], pays[i], i, want[i].Key, want[i].Payload)
		}
	}
}

// sortBothWays runs the columnar entry points and SortInto over input and
// checks each against the stdlib oracle, and the grouped sort against a
// grouping of it (checkGrouped); SortColumnsInto must leave its source alone. A payload bound of math.MaxUint64 sorts the input once more
// under the position carrier (or the wide path), whichever carrier its own
// bounds choose.
func sortBothWays(t *testing.T, name string, input []relation.Tuple) {
	t.Helper()
	n := len(input)
	want := stdlibOracle(input)
	srcKeys, srcPays := make([]uint64, n), make([]uint64, n)
	batch.Deinterleave(input, srcKeys, srcPays)
	dstKeys, dstPays := make([]uint64, n), make([]uint64, n)
	SortColumnsInto(srcKeys, srcPays, dstKeys, dstPays, nil)
	checkColumnsAgainstStdlib(t, name+"/SortColumnsInto", input, want, dstKeys, dstPays)
	for i := range srcKeys {
		if srcKeys[i] != input[i].Key || srcPays[i] != input[i].Payload {
			t.Fatalf("%s: SortColumnsInto modified its source at %d", name, i)
		}
	}

	clear(dstKeys)
	clear(dstPays)
	SortTuplesIntoColumns(input, dstKeys, dstPays, nil)
	checkColumnsAgainstStdlib(t, name+"/SortTuplesIntoColumns", input, want, dstKeys, dstPays)
	checkAgainstStdlib(t, name+"/SortInto", input, sortedInto(input))
	checkGrouped(t, name+"/SortTuplesIntoGroups", input)

	// The position carrier, under the exact and a loose key bound, must sort
	// the same.
	maxKey, _ := bounds(input)
	for _, bound := range []uint64{maxKey, 2*maxKey + 1} {
		if bound < maxKey {
			continue
		}
		clear(dstKeys)
		clear(dstPays)
		SortTuplesIntoColumnsWithBounds(input, dstKeys, dstPays, bound, math.MaxUint64, nil, nil)
		checkColumnsAgainstStdlib(t, fmt.Sprintf("%s/position-carrier(maxKey=%d)", name, bound), input, want, dstKeys, dstPays)
	}
}

// TestSortColumnsDifferential runs the columnar sorts against the stdlib
// baseline over the adversarial distributions at sizes spanning the insertion
// cutoff and the stage-1 threshold.
func TestSortColumnsDifferential(t *testing.T) {
	sizes := []int{0, 1, 2, 3, 16, packedInsertionCutoff - 1, packedInsertionCutoff, packedInsertionCutoff + 1,
		2048, 20000, l2Values - 1, l2Values, l2Values + 1}
	for _, n := range sizes {
		for name, input := range adversarialDistributions(max(n, 1), int64(n)) {
			sortBothWays(t, fmt.Sprintf("%s/n=%d", name, n), input[:n])
		}
	}
}

// TestSortColumnsKeyWidths covers every remaining-key width stage 2 can see,
// below and above the stage 1 threshold, on uniform keys (one counting pass
// and the insertion fix-up) and on keys half of which repeat eight values
// (bins too full for the fix-up, so they are sorted one by one, to odd and
// even depths, and a bin's result ends in either ping-pong buffer).
func TestSortColumnsKeyWidths(t *testing.T) {
	for width := 1; width <= 44; width++ {
		for _, n := range []int{300, 5000, l2Values + 5000} {
			rng := rand.New(rand.NewSource(int64(width*n) + 1))
			uniform, clumped := make([]relation.Tuple, n), make([]relation.Tuple, n)
			var clumps [8]uint64
			for i := range clumps {
				clumps[i] = rng.Uint64() >> (64 - width)
			}
			for i := range uniform {
				uniform[i] = relation.Tuple{Key: rng.Uint64() >> (64 - width), Payload: uint64(i)}
				clumped[i] = uniform[i]
				if i%2 == 0 {
					clumped[i].Key = clumps[rng.Intn(len(clumps))]
				}
			}
			sortBothWays(t, fmt.Sprintf("clumped/width=%d/n=%d", width, n), clumped)
			if n <= l2Values { // past stage 1, uniform keys leave buckets that only need insertion
				sortBothWays(t, fmt.Sprintf("uniform/width=%d/n=%d", width, n), uniform)
			}
		}
	}
}

// TestSortColumnsRunGenerationShapes covers the distributions run generation
// meets at scale: clustered 80:20 skew (the join_large_skew shape, whose
// first-level buckets run from empty to many times the average), a dense
// cluster in a wide domain, a duplicate-heavy 2^10-key domain at 2^20 tuples,
// and the degenerate orders.
func TestSortColumnsRunGenerationShapes(t *testing.T) {
	const n, small = 1 << 20, 1 << 17 // the degenerate orders need no more than two stage 1 buckets' worth
	shapes := map[string][]relation.Tuple{
		"uniform-32":     makeTuples(n, 1, 1<<32),
		"clustered-skew": clusteredSkew(n, 2, 1<<20),
		"dense-cluster":  denseCluster(n, 5),
		"domain-2^10":    makeTuples(n, 3, 1<<10),
		"all-equal":      make([]relation.Tuple, small),
		"two-keys":       make([]relation.Tuple, small),
		"sorted":         make([]relation.Tuple, small),
		"descending":     make([]relation.Tuple, small),
	}
	for i := 0; i < small; i++ {
		p := uint64(i)
		shapes["all-equal"][i] = relation.Tuple{Key: 1 << 31, Payload: p}
		shapes["two-keys"][i] = relation.Tuple{Key: uint64(i*7%3%2) << 40, Payload: p}
		shapes["sorted"][i] = relation.Tuple{Key: p / 3, Payload: p}
		shapes["descending"][i] = relation.Tuple{Key: uint64(small-i) / 3, Payload: p}
	}
	for name, input := range shapes {
		sortBothWays(t, name, input)
	}
}

// TestSortColumnsOversizedBucket gives one first-level bucket far more values
// than the rest, uniform over the 24 key bits below the first digit: just past
// the largest input stage 2 is otherwise handed, and so many that even the
// widest counting pass leaves every bin too full for the insertion fix-up.
func TestSortColumnsOversizedBucket(t *testing.T) {
	for _, hot := range []int{l2Values + 1, 1 << 19} {
		rng := rand.New(rand.NewSource(int64(hot)))
		input := make([]relation.Tuple, hot+4000)
		for i := range input {
			k := rng.Uint64() >> 32 // cold: spread over every first digit
			if i%len(input) < hot {
				k = 0x80<<24 | k&(1<<24-1) // hot: one first digit, 24 free bits
			}
			input[i] = relation.Tuple{Key: k, Payload: uint64(i)}
		}
		input[len(input)-1].Key = 1<<32 - 1 // pins the first digit to the top key byte
		sortBothWays(t, fmt.Sprintf("hot=%d", hot), input)
	}
}

// TestSortColumnsPackBoundary pins both sides of the packedCarrier boundary
// for payloads that are positions — the widest keys that still pack whole,
// and the narrowest that the wide path cuts by one bit — plus full-width
// keys, cut by the whole position width. The cut path leases the parked keys
// beside the bucket scratch.
func TestSortColumnsPackBoundary(t *testing.T) {
	for _, n := range []int{100, 5000} {
		idxBits := bits.Len(uint(n - 1))
		for name, tc := range map[string]struct {
			top uint64
			cut int
		}{
			"packs":      {1<<(64-idxBits) - 1, 0},
			"falls-back": {1 << (64 - idxBits), 1},
			"max-uint64": {math.MaxUint64, idxBits},
		} {
			top := tc.top
			rng := rand.New(rand.NewSource(int64(n)))
			input := make([]relation.Tuple, n)
			for i := range input {
				input[i] = relation.Tuple{Key: rng.Uint64() % top, Payload: uint64(i)}
			}
			input[n/2].Key = top
			input[n/3].Key = top
			maxKey, payBound := bounds(input)
			w, _, ok := packedCarrier(n, maxKey, payBound)
			if ok != (tc.cut == 0) || !ok && bits.Len64(maxKey)+w-64 != tc.cut {
				t.Fatalf("%s/n=%d: packedCarrier = (%d, %v), want a cut of %d bits", name, n, w, ok, tc.cut)
			}
			keys, pays := make([]uint64, n), make([]uint64, n)
			var scratch countingScratch
			SortTuplesIntoColumns(input, keys, pays, &scratch)
			leases := []int{n} // the bucket scratch: n is one stage-1 bucket
			if tc.cut > 0 {
				leases = []int{n, n} // the parked keys, then the bucket scratch
			}
			if !slices.Equal(scratch.words, leases) || scratch.wordsBack != len(leases) {
				t.Fatalf("%s/n=%d: leased %v, returned %d, want %v", name, n, scratch.words, scratch.wordsBack, leases)
			}
			checkColumnsAgainstStdlib(t, name, input, stdlibOracle(input), keys, pays)
			sortBothWays(t, fmt.Sprintf("%s/n=%d", name, n), input)
		}
	}
}

// TestSortColumnsWideKeysRecurseInPlace drives the wide path's tie breaking
// from every entry point: full-width keys that vary in their low 24 bits only,
// so that words holding the top 64 − w bits tie in runs of tens to hundreds,
// which stage 2 re-sorts on the bits the words dropped — below and past the
// stage 1 threshold, in one stage-1 bucket (the keys share their top byte)
// and spread over all 256.
func TestSortColumnsWideKeysRecurseInPlace(t *testing.T) {
	for _, n := range []int{20000, l2Values + 5000} {
		rng := rand.New(rand.NewSource(int64(n)))
		clustered, spread := make([]relation.Tuple, n), make([]relation.Tuple, n)
		for i := range clustered {
			low := rng.Uint64() >> 40
			clustered[i] = relation.Tuple{Key: math.MaxUint64 - low, Payload: uint64(i)}
			spread[i] = relation.Tuple{Key: uint64(rng.Intn(256))<<56 | low, Payload: uint64(i)}
		}
		spread[0].Key = math.MaxUint64
		sortBothWays(t, fmt.Sprintf("wide-clustered/n=%d", n), clustered)
		sortBothWays(t, fmt.Sprintf("wide-spread/n=%d", n), spread)
	}
}

// TestSortWideKeysStable pins that keys too wide for a position beside them
// sort stably: full-width keys, each repeated about eight times, beside
// payloads that are their positions and beside random payloads.
func TestSortWideKeysStable(t *testing.T) {
	for _, n := range []int{2, 100, 5000, l2Values + 3000} {
		rng := rand.New(rand.NewSource(int64(n)))
		pool := make([]uint64, n/8+1)
		for i := range pool {
			pool[i] = rng.Uint64() | 1<<63
		}
		positions, random := make([]relation.Tuple, n), make([]relation.Tuple, n)
		for i := range positions {
			k := pool[rng.Intn(len(pool))]
			positions[i] = relation.Tuple{Key: k, Payload: uint64(i)}
			random[i] = relation.Tuple{Key: k, Payload: rng.Uint64()}
		}
		sortBothWays(t, fmt.Sprintf("positions/n=%d", n), positions)
		sortBothWays(t, fmt.Sprintf("random/n=%d", n), random)
	}
}

// samplePositions returns the indices of an n-tuple source whose keys the
// first pass guesses the key width from: 64 evenly spaced ones and the last.
func samplePositions(n int) map[int]bool {
	at := map[int]bool{n - 1: true}
	for i := range min(n, 64) {
		at[i*max(n/64, 1)] = true
	}
	return at
}

// TestSortGuessTooNarrow plants one key far wider than every other past
// l2Values, at an index the first pass's sample skips, so that the key width
// it guesses is too narrow and the first digit must be counted again at the
// exact one: beside payloads narrow enough for the payload carrier, beside
// 64-bit payloads (the position carrier), and as a full-width key (the wide
// path). Every entry point must sort as the stable stdlib sort does.
func TestSortGuessTooNarrow(t *testing.T) {
	const n = l2Values + 5000
	planted := n / 128 // halfway between the first two samples
	if samplePositions(n)[planted] {
		t.Fatalf("index %d is sampled", planted)
	}
	for name, tc := range map[string]struct{ key, pays uint64 }{
		"payload-carrier":  {1 << 40, 1<<20 - 1},
		"position-carrier": {1 << 40, math.MaxUint64},
		"wide":             {1<<63 | 12345, math.MaxUint64},
	} {
		rng := rand.New(rand.NewSource(int64(tc.key)))
		input := make([]relation.Tuple, n)
		for i := range input {
			input[i] = relation.Tuple{Key: rng.Uint64() >> 44, Payload: rng.Uint64() & tc.pays}
		}
		input[planted].Key = tc.key
		if guess := GuessMaxKey(input); DigitShift(guess) == DigitShift(tc.key) {
			t.Fatalf("%s: the sample guesses %d, wide enough for %d", name, guess, tc.key)
		}
		sortBothWays(t, name, input)
	}
}

// countingScratch is a Scratch that records what it hands out.
type countingScratch struct {
	words     []int // size of every Uint64s request
	wordsBack int   // PutUint64s calls
}

func (s *countingScratch) Uint64s(n int) []uint64 {
	s.words = append(s.words, n)
	buf := make([]uint64, n)
	for i := range buf {
		buf[i] = math.MaxUint64 // leased memory arrives dirty
	}
	return buf
}
func (s *countingScratch) PutUint64s([]uint64) { s.wordsBack++ }

func (s *countingScratch) Int32s(n int) []int32 { return make([]int32, n) }

// TestSortColumnsPayloadPairing pins that the payload column really is
// permuted in tandem with the keys (not merely a multiset of payloads): with
// unique keys the pairing is fully determined.
func TestSortColumnsPayloadPairing(t *testing.T) {
	const n = 10000
	input := make([]relation.Tuple, n)
	for i := range input {
		k := uint64(i)*2654435761 + 12345 // unique keys, scrambled order
		input[i] = relation.Tuple{Key: k, Payload: k ^ 0xABCDEF}
	}
	keys := make([]uint64, n)
	pays := make([]uint64, n)
	SortTuplesIntoColumns(input, keys, pays, nil)
	for i := range keys {
		if pays[i] != keys[i]^0xABCDEF {
			t.Fatalf("payload decoupled from key at %d: key %d, payload %d", i, keys[i], pays[i])
		}
	}
}

// fuzzShape decodes fuzz bytes into a sort input. Five header bytes choose
// the shape, the rest are 8-byte keys: every key is shifted right by
// data[0]%64 (so that the fuzzer reaches keys narrow enough to pack), and a
// non-zero data[1] tiles the decoded keys to l2Values + data[1] tuples — past
// the stage-1 threshold — repetition r adding r*data[2] to each key, so a
// handful of keys decides which stage-1 buckets fill, which stay empty and
// what stage 2 finds inside them. Payloads are scrambled positions shifted
// right by data[3]%65, so that key and payload fit one word together (the
// payload carrier) or do not (the position carrier). A non-zero data[4]
// plants a single key of 2^(data[4]%64) at index n−2, which the first pass's
// sample skips past l2Values: wider than the rest, it makes the guessed key
// width too narrow.
func fuzzShape(data []byte) []relation.Tuple {
	if len(data) < 5 {
		return nil
	}
	shift, extra, stride, payShift := uint(data[0])%64, int(data[1]), uint64(data[2]), uint(data[3])%65
	m := (len(data) - 5) / 8
	n := m
	if extra > 0 && m > 0 {
		n = l2Values + extra
	}
	input := make([]relation.Tuple, n)
	for i := range input {
		k := binary.LittleEndian.Uint64(data[5+i%m*8:]) + uint64(i/m)*stride
		input[i] = relation.Tuple{Key: k >> shift, Payload: ^uint64(i) * 0x9E3779B97F4A7C15 >> payShift}
	}
	if data[4] != 0 && n >= 2 {
		input[n-2].Key = 1 << (data[4] % 64)
	}
	return input
}

// FuzzSortColumnsDifferential fuzzes the columnar sorts against the stable
// stdlib sort, and the grouped sort against a grouping of the column sort,
// over the shapes fuzzShape decodes: the seeds put every tuple in
// one stage-1 bucket, repeat one key and two keys, leave exactly one of the
// 256 buckets empty, tile full-width duplicates past l2Values through the
// wide path, give it full-width keys that share their top 64 − w bits, below
// and past l2Values, pair 40-bit keys with 24-bit payloads (64 bits: the
// payload carrier) and 41-bit keys with them (65: the position carrier),
// plant a single widest key past l2Values where the first pass's sample
// misses it, under both carriers and the wide path, and give the grouped
// sort buckets whose counting pass covers every key bit left — dense keys
// below 2^12 past l2Values beside 20-bit payloads, and one bucket in which
// key 0 carries payload 0.
func FuzzSortColumnsDifferential(f *testing.F) {
	planted := func(plant, shift, extra, stride, payShift byte, keys ...uint64) []byte {
		data := []byte{shift, extra, stride, payShift, plant}
		for _, k := range keys {
			data = binary.LittleEndian.AppendUint64(data, k)
		}
		return data
	}
	shaped := func(shift, extra, stride, payShift byte, keys ...uint64) []byte {
		return planted(0, shift, extra, stride, payShift, keys...)
	}
	f.Add([]byte{})
	f.Add(shaped(0, 0, 0, 0, 0x0807060504030201))
	f.Add(shaped(0, 0, 0, 0, math.MaxUint64))
	f.Add(shaped(0, 0, 0, 64, math.MaxUint64, 5, math.MaxUint64, 1<<63)) // full-width keys beside zero payloads pack
	f.Add(shaped(0, 0, 0, 0, 1, 1<<8, 1<<16, 1<<24, 1<<32, 1<<40, 1<<48, 1<<56))
	f.Add(shaped(0, 1, 0, 0, 42))                                              // all equal
	f.Add(shaped(0, 200, 0, 0, 1<<40, 3))                                      // two keys, two buckets
	f.Add(shaped(32, 7, 5, 0, 0x80ffffff<<32, 0x80000000<<32, 0x80123456<<32)) // one bucket holds every tuple
	carriers := []uint64{1 << 63, 0x5a5a << 48, 0x5a5a << 48, 3 << 62, 1 << 60, 1 << 60}
	f.Add(shaped(24, 0, 0, 40, carriers...))   // 40 + 24 bits: the payload carrier
	f.Add(shaped(23, 0, 0, 40, carriers...))   // 41 + 24 bits: the position carrier
	f.Add(shaped(24, 150, 3, 40, carriers...)) // both past l2Values
	f.Add(shaped(23, 150, 3, 40, carriers...))
	allButOne := make([]uint64, 0, radixBuckets-1)
	for b := uint64(0); b < radixBuckets; b++ {
		if b != 7 {
			allButOne = append(allButOne, b<<8|b)
		}
	}
	f.Add(shaped(0, 255, 0, 0, allButOne...))                     // bucket 7 of 256 stays empty
	f.Add(shaped(0, 200, 1, 0, 1<<63|5, 1<<63|5, math.MaxUint64)) // full-width duplicates past l2Values
	f.Add(shaped(0, 0, 0, 0, 1<<63|9, 1<<63|3, 1<<63|7, 1<<63|3, 1<<63))
	f.Add(shaped(0, 90, 1, 0, 1<<63|5, 1<<63|100, 1<<63|37)) // keys under 2^63 + 2^14: every word ties
	narrow := []uint64{0x12345, 0xedcba, 0x5a5a5, 0x80000, 0x3c3c3}
	f.Add(planted(40, 0, 100, 7, 44, narrow...)) // keys near 2^20 and one of 2^40 beside 20-bit payloads: the payload carrier
	f.Add(planted(40, 0, 100, 7, 0, narrow...))  // the same beside 64-bit payloads: the position carrier
	f.Add(planted(63, 0, 100, 7, 0, narrow...))  // one key of 2^63: the wide path
	dense := make([]uint64, 64)
	for j := range dense {
		dense[j] = uint64(j) * 56
	}
	f.Add(shaped(0, 200, 1, 44, dense...))    // keys below 2^12, 20-bit payloads: every stage-1 bucket counted, not sorted
	f.Add(shaped(0, 0, 0, 64, 0, 3, 0, 7, 1)) // one bucket counted, key 0 beside payload 0: the word 0
	f.Fuzz(func(t *testing.T, data []byte) {
		sortBothWays(t, "fuzz", fuzzShape(data))
	})
}
