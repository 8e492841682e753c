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
// stdlib oracle (want = stdlibOracle(input)). When the input packs
// (packedIndexBits) the sort is stable by construction, so the output must
// equal the stable order pair for pair; on the tandem fallback equal keys may
// land in any order, so the keys must match position by position and the
// (key, payload) pairs be a multiset-permutation of the input.
func checkColumnsAgainstStdlib(t *testing.T, name string, input, want []relation.Tuple, keys, pays []uint64) {
	t.Helper()
	if len(keys) != len(want) || len(pays) != len(want) {
		t.Fatalf("%s: length changed: %d -> keys %d, pays %d", name, len(want), len(keys), len(pays))
	}
	_, stable := packedIndexBits(len(input), maxKeyOf(input))
	for i := range keys {
		if keys[i] != want[i].Key {
			t.Fatalf("%s: key mismatch at %d: got %d, stdlib %d", name, i, keys[i], want[i].Key)
		}
		if stable && pays[i] != want[i].Payload {
			t.Fatalf("%s: packed sort not stable at %d (key %d): payload %d, stable order has %d", name, i, keys[i], pays[i], want[i].Payload)
		}
	}
	if stable {
		return
	}
	got := make([]relation.Tuple, len(keys))
	batch.Interleave(keys, pays, got)
	if !relation.SameMultiset(input, got) {
		t.Fatalf("%s: output is not a permutation of input", name)
	}
}

// sortBothWays runs the columnar entry points over input and checks each
// against the stdlib oracle; SortColumnsInto must leave its source alone.
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

	// A loose bound must sort the same as the exact one.
	if maxKey := maxKeyOf(input); maxKey < math.MaxUint64/2 {
		clear(dstKeys)
		clear(dstPays)
		SortTuplesIntoColumnsWithMax(input, dstKeys, dstPays, 2*maxKey+1, nil)
		checkColumnsAgainstStdlib(t, name+"/SortTuplesIntoColumnsWithMax(loose)", input, want, dstKeys, dstPays)
	}
}

// TestSortColumnsDifferential runs the columnar sorts against the stdlib
// baseline over the adversarial distributions at sizes spanning the insertion
// cutoffs, the single-bucket threshold and multi-level recursion.
func TestSortColumnsDifferential(t *testing.T) {
	sizes := []int{0, 1, 2, 3, insertionCutoff, packedInsertionCutoff - 1, packedInsertionCutoff, packedInsertionCutoff + 1,
		minRadixSize - 1, minRadixSize, minRadixSize + 1, 3 * cacheLeafTuples, 20000, l2Values - 1, l2Values, l2Values + 1}
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

// TestSortColumnsPackBoundary pins both sides of the packedIndexBits
// boundary — the widest keys that still pack, and the narrowest that take the
// tandem fallback — plus full-width keys.
func TestSortColumnsPackBoundary(t *testing.T) {
	for _, n := range []int{100, 5000} {
		idxBits := bits.Len(uint(n - 1))
		for name, top := range map[string]uint64{
			"packs":      1<<(64-idxBits) - 1,
			"falls-back": 1 << (64 - idxBits),
			"max-uint64": math.MaxUint64,
		} {
			if _, ok := packedIndexBits(n, top); ok != (name == "packs") {
				t.Fatalf("%s/n=%d: packedIndexBits = %v", name, n, ok)
			}
			rng := rand.New(rand.NewSource(int64(n)))
			input := make([]relation.Tuple, n)
			for i := range input {
				input[i] = relation.Tuple{Key: rng.Uint64() % top, Payload: uint64(i)}
			}
			input[n/2].Key = top
			input[n/3].Key = top
			sortBothWays(t, fmt.Sprintf("%s/n=%d", name, n), input)
		}
	}
}

// TestSortColumnsTandemRecursion drives the tandem fallback through several
// in-place radix levels: full-width keys that agree on their top four bytes.
func TestSortColumnsTandemRecursion(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	input := make([]relation.Tuple, 20000)
	for i := range input {
		input[i] = relation.Tuple{Key: math.MaxUint64 - rng.Uint64()>>34, Payload: uint64(i)}
	}
	sortBothWays(t, "wide-clustered", input)
}

// countingScratch is a Scratch that records what it hands out.
type countingScratch struct {
	perms, permsBack int   // Int32s / PutInt32s calls
	words            []int // size of every Uint64s request
	wordsBack        int   // PutUint64s calls
}

func (s *countingScratch) Int32s(n int) []int32 { s.perms++; return make([]int32, n) }
func (s *countingScratch) PutInt32s([]int32)    { s.permsBack++ }
func (s *countingScratch) Uint64s(n int) []uint64 {
	s.words = append(s.words, n)
	buf := make([]uint64, n)
	for i := range buf {
		buf[i] = math.MaxUint64 // leased memory arrives dirty
	}
	return buf
}
func (s *countingScratch) PutUint64s([]uint64) { s.wordsBack++ }

// TestSortTuplesIntoColumnsLeasesPermLazily pins that the permutation scratch
// is acquired only by the tandem fallback and the bucket scratch only by the
// packed path, and that each returns what it took.
func TestSortTuplesIntoColumnsLeasesPermLazily(t *testing.T) {
	for _, n := range []int{100, 5000} {
		keys, pays := make([]uint64, n), make([]uint64, n)
		var scratch countingScratch
		SortTuplesIntoColumns(makeTuples(n, 1, 1<<32), keys, pays, &scratch)
		if scratch.perms != 0 {
			t.Fatalf("n=%d: packed path leased a permutation column", n)
		}
		if len(scratch.words) != 1 || scratch.wordsBack != 1 {
			t.Fatalf("n=%d: packed path leased %d bucket scratches, returned %d", n, len(scratch.words), scratch.wordsBack)
		}
		wide := makeTuples(n, 2, 0)
		SortTuplesIntoColumns(wide, keys, pays, &scratch)
		checkColumnsAgainstStdlib(t, "tandem", wide, stdlibOracle(wide), keys, pays)
		if scratch.perms != 1 || scratch.permsBack != 1 {
			t.Fatalf("n=%d: tandem fallback leased %d, returned %d permutation columns", n, scratch.perms, scratch.permsBack)
		}
		if len(scratch.words) != 1 {
			t.Fatalf("n=%d: tandem fallback leased a bucket scratch", n)
		}
	}
}

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

// fuzzShape decodes fuzz bytes into a sort input. Three header bytes choose
// the shape, the rest are 8-byte keys: every key is shifted right by
// data[0]%64 (so that the fuzzer reaches keys narrow enough to pack), and a
// non-zero data[1] tiles the decoded keys to l2Values + data[1] tuples — past
// the stage-1 threshold — repetition r adding r*data[2] to each key, so a
// handful of keys decides which stage-1 buckets fill, which stay empty and
// what stage 2 finds inside them. Payloads are distinct 64-bit values.
func fuzzShape(data []byte) []relation.Tuple {
	if len(data) < 3 {
		return nil
	}
	shift, extra, stride := uint(data[0])%64, int(data[1]), uint64(data[2])
	m := (len(data) - 3) / 8
	n := m
	if extra > 0 && m > 0 {
		n = l2Values + extra
	}
	input := make([]relation.Tuple, n)
	for i := range input {
		k := binary.LittleEndian.Uint64(data[3+i%m*8:]) + uint64(i/m)*stride
		input[i] = relation.Tuple{Key: k >> shift, Payload: ^uint64(i) * 0x9E3779B97F4A7C15}
	}
	return input
}

// FuzzSortColumnsDifferential fuzzes the columnar sorts against the stable
// stdlib sort over the shapes fuzzShape decodes: the seeds put every tuple in
// one stage-1 bucket, repeat one key and two keys, and leave exactly one of
// the 256 buckets empty.
func FuzzSortColumnsDifferential(f *testing.F) {
	shaped := func(shift, extra, stride byte, keys ...uint64) []byte {
		data := []byte{shift, extra, stride}
		for _, k := range keys {
			data = binary.LittleEndian.AppendUint64(data, k)
		}
		return data
	}
	f.Add([]byte{})
	f.Add(shaped(0, 0, 0, 0x0807060504030201))
	f.Add(shaped(0, 0, 0, math.MaxUint64))
	f.Add(shaped(0, 0, 0, 1, 1<<8, 1<<16, 1<<24, 1<<32, 1<<40, 1<<48, 1<<56))
	f.Add(shaped(0, 1, 0, 42))                                              // all equal
	f.Add(shaped(0, 200, 0, 1<<40, 3))                                      // two keys, two buckets
	f.Add(shaped(32, 7, 5, 0x80ffffff<<32, 0x80000000<<32, 0x80123456<<32)) // one bucket holds every tuple
	allButOne := make([]uint64, 0, radixBuckets-1)
	for b := uint64(0); b < radixBuckets; b++ {
		if b != 7 {
			allButOne = append(allButOne, b<<8|b)
		}
	}
	f.Add(shaped(0, 255, 0, allButOne...)) // bucket 7 of 256 stays empty
	f.Fuzz(func(t *testing.T, data []byte) {
		sortBothWays(t, "fuzz", fuzzShape(data))
	})
}
