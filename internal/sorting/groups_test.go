package sorting

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/relation"
)

// referenceGroups groups sorted columns by key: the distinct keys, each key's
// largest payload and its number of tuples.
func referenceGroups(keys, pays []uint64) (gKeys, gMaxes []uint64, gCounts []int32) {
	for i, k := range keys {
		if n := len(gKeys); n > 0 && gKeys[n-1] == k {
			gMaxes[n-1] = max(gMaxes[n-1], pays[i])
			gCounts[n-1]++
			continue
		}
		gKeys, gMaxes, gCounts = append(gKeys, k), append(gMaxes, pays[i]), append(gCounts, 1)
	}
	return gKeys, gMaxes, gCounts
}

// checkGrouped runs SortTuplesIntoGroups over input and requires what
// SortTuplesIntoColumns gives, grouped by referenceGroups, where key and
// payload fit one sort word, and SortTuplesIntoColumns' columns themselves,
// with nil counts, where they do not; the payload bound must be the
// payloads' OR either way.
func checkGrouped(t *testing.T, name string, input []relation.Tuple) {
	t.Helper()
	n := len(input)
	keys, pays := make([]uint64, n), make([]uint64, n)
	SortTuplesIntoColumns(input, keys, pays, nil)
	maxKey, payBound := bounds(input)
	gotKeys, gotPays := make([]uint64, n), make([]uint64, n)
	counts, gotBound := SortTuplesIntoGroups(input, gotKeys, gotPays, nil)
	if gotBound != payBound {
		t.Fatalf("%s: payload bound %#x, the payloads' OR is %#x", name, gotBound, payBound)
	}
	if _, inWord, _ := packedCarrier(n, maxKey, payBound); !inWord || n == 0 {
		if counts != nil {
			t.Fatalf("%s: %d groups where the sort word has no room for the payloads", name, len(counts))
		}
		for i := range keys {
			if gotKeys[i] != keys[i] || gotPays[i] != pays[i] {
				t.Fatalf("%s: raw (%d, %d) at %d, SortTuplesIntoColumns gives (%d, %d)", name, gotKeys[i], gotPays[i], i, keys[i], pays[i])
			}
		}
		return
	}
	wantKeys, wantMaxes, wantCounts := referenceGroups(keys, pays)
	if len(counts) != len(wantKeys) {
		t.Fatalf("%s: %d groups, the reference grouping has %d", name, len(counts), len(wantKeys))
	}
	for i := range wantKeys {
		if gotKeys[i] != wantKeys[i] || gotPays[i] != wantMaxes[i] || counts[i] != wantCounts[i] {
			t.Fatalf("%s: group %d is (%d, max %d, %d tuples), the reference has (%d, max %d, %d tuples)",
				name, i, gotKeys[i], gotPays[i], counts[i], wantKeys[i], wantMaxes[i], wantCounts[i])
		}
	}
}

// TestSortIntoGroupsMatchesReference checks the grouped sort against a
// reference grouping of the column sort at the insertion cutoff, the one-bucket
// threshold and past it, and at 2^18, on uniform keys, all-equal keys, 80:20
// skew and keys up to math.MaxUint64 (whose zero payloads fit the word beside
// them), with payloads that ride in the sort word; and once more with 64-bit
// payloads, which do not, so the chunk must come back raw.
func TestSortIntoGroupsMatchesReference(t *testing.T) {
	shapes := map[string]func(n int) []relation.Tuple{
		"uniform":   func(n int) []relation.Tuple { return makeTuples(n, int64(n), 1<<32) },
		"all-equal": func(n int) []relation.Tuple { return adversarialDistributions(n, 1)["all-equal"] },
		"skewed":    func(n int) []relation.Tuple { return clusteredSkew(n, uint64(n), 1<<20) },
		"max-keys": func(n int) []relation.Tuple {
			tuples := makeTuples(n, int64(n), 1<<10)
			for i := range tuples {
				tuples[i] = relation.Tuple{Key: math.MaxUint64 - tuples[i].Key}
			}
			return tuples
		},
	}
	for _, n := range []int{1, packedInsertionCutoff - 1, packedInsertionCutoff, l2Values, l2Values + 1, 1 << 18} {
		for name, shape := range shapes {
			input := shape(n)
			// Payloads of at most 64 − key bits, scrambled so that the largest
			// payload of a key sits anywhere in its group.
			room := 64 - bits.Len64(maxKeyOf(input))
			for i := range input {
				if room > 0 {
					input[i].Payload = uint64(i) * 0x9E3779B97F4A7C15 >> (64 - room)
				}
			}
			checkGrouped(t, fmt.Sprintf("%s/n=%d", name, n), input)
			wide := make([]relation.Tuple, n)
			for i, tup := range input {
				wide[i] = relation.Tuple{Key: tup.Key, Payload: ^uint64(i) * 0x9E3779B97F4A7C15}
			}
			checkGrouped(t, fmt.Sprintf("%s/n=%d/64-bit-payloads", name, n), wide)
		}
	}
}

// maxKeyOf returns the largest key of tuples.
func maxKeyOf(tuples []relation.Tuple) uint64 {
	maxKey, _ := bounds(tuples)
	return maxKey
}

// bucketed builds buckets·size tuples, keys b·2^low + a draw below 2^low for
// bucket b of 1 or 256: past l2Values every stage-1 bucket holds exactly size
// tuples and low key bits, so each one's counting pass covers them exactly
// where low <= min(bits.Len(size), spreadMaxDigit). Payloads are drawn below
// 2^20, so they ride in the sort word.
func bucketed(buckets, size, low int, seed int64) []relation.Tuple {
	rng := rand.New(rand.NewSource(seed))
	tuples := make([]relation.Tuple, buckets*size)
	for i := range tuples {
		b := uint64(i % buckets)
		tuples[i] = relation.Tuple{Key: b<<low | rng.Uint64()>>(64-low), Payload: rng.Uint64() >> 44}
	}
	return tuples
}

// countedBucket reports whether a grouped sort of input finishes its stage-2
// buckets by their counting pass alone (groupCounted) where a bucket holds
// size tuples: whether that pass covers every key bit the bucket has left.
func countedBucket(input []relation.Tuple, size int) bool {
	maxKey, _ := bounds(input)
	left := bits.Len64(maxKey)
	if len(input) > l2Values {
		left = max(left-radixBits, 0)
	}
	return left <= min(bits.Len(uint(size)), spreadMaxDigit)
}

// TestGroupedSortCountsDenseBuckets drives the grouped sort's counting path
// (groupCounted) on both sides of its trigger, against referenceGroups: key
// bits left equal to the counting pass's width (bits.Len of the bucket size,
// at most spreadMaxDigit) and one bit more, in the single bucket of l2Values
// tuples or fewer and in 256 stage-1 buckets; keys below 2^12 in one bucket;
// key 0 with payload 0, whose word is 0, alone and beside other payloads;
// buckets of one key each (no key bit left, one counter); and stage-1
// buckets of few keys and many duplicates, whose entries the cursor writes
// far below the bucket, over the words earlier buckets left.
func TestGroupedSortCountsDenseBuckets(t *testing.T) {
	type shape struct {
		name    string
		input   []relation.Tuple
		size    int // tuples a stage-2 bucket holds
		counted bool
	}
	var shapes []shape
	for _, c := range []struct{ buckets, size int }{{1, packedInsertionCutoff + 1}, {1, 1000}, {1, l2Values}, {radixBuckets, 200}, {radixBuckets, 1024}} {
		low := min(bits.Len(uint(c.size)), spreadMaxDigit)
		name := fmt.Sprintf("buckets=%d/size=%d/bits=%d", c.buckets, c.size, low)
		shapes = append(shapes,
			shape{name, bucketed(c.buckets, c.size, low, int64(c.size)), c.size, true},
			shape{name + "+1", bucketed(c.buckets, c.size, low+1, int64(c.size)), c.size, false})
	}
	below4096 := bucketed(1, l2Values, 12, 3)
	shapes = append(shapes, shape{"one-bucket/keys<2^12", below4096, l2Values, true})

	zero := bucketed(1, 3000, 12, 4)
	for i := range zero {
		if zero[i].Key == 0 {
			zero[i].Key = 1
		}
	}
	zero[1234] = relation.Tuple{}
	shapes = append(shapes, shape{"key-0-payload-0/alone", zero, len(zero), true})
	beside := slices.Clone(zero)
	beside[17], beside[2999] = relation.Tuple{Payload: 5}, relation.Tuple{}
	shapes = append(shapes, shape{"key-0-payload-0/beside-5", beside, len(beside), true})
	allZero := make([]relation.Tuple, 500)
	shapes = append(shapes, shape{"key-0-payload-0/every-tuple", allZero, len(allZero), true})

	equal := make([]relation.Tuple, 700)
	for i := range equal {
		equal[i] = relation.Tuple{Key: 0, Payload: uint64(i*7919) % 1000}
	}
	shapes = append(shapes, shape{"equal-keys/one-bucket", equal, len(equal), true})
	oneKeyEach := bucketed(radixBuckets, 150, 0, 5) // keys 0..255, 150 tuples a bucket
	shapes = append(shapes, shape{"equal-keys/256-buckets", oneKeyEach, 150, true})

	// Four keys and 2 048 tuples a bucket: bucket b's entries land at 4b,
	// 2 044·b words below its own range.
	few := bucketed(radixBuckets, 2048, 2, 6)
	shapes = append(shapes, shape{"cursor-behind/256-buckets", few, 2048, true})

	for _, s := range shapes {
		if got := countedBucket(s.input, s.size); got != s.counted {
			t.Fatalf("%s: the counting pass covers the bucket: %t, the shape is meant for %t", s.name, got, s.counted)
		}
		checkGrouped(t, s.name, s.input)
		maxKey, payBound := bounds(s.input)
		if _, inWord, _ := packedCarrier(len(s.input), maxKey, payBound); !inWord {
			t.Fatalf("%s: the payloads leave the sort word", s.name)
		}
	}
}

// TestGroupedSortLeasesScratchForSortedBucketsOnly: a grouped sort leases its
// bucket scratch at the fullest bucket it sorts, none where every bucket is
// grouped from its counting pass. Keys below 2^12 are counted whole, in one
// bucket and past stage 1 in 256; 18-bit keys leave 10 bits to the buckets of
// stage 2, which buckets of 600 tuples count and one of 300 sorts.
func TestGroupedSortLeasesScratchForSortedBucketsOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	below4096 := make([]relation.Tuple, 100_000)
	for i := range below4096 {
		below4096[i] = relation.Tuple{Key: rng.Uint64() >> 52, Payload: rng.Uint64() >> 44}
	}
	var oneSorted []relation.Tuple
	for b := uint64(0); b < radixBuckets; b++ {
		size := 600
		if b == 7 {
			size = 300
		}
		for range size {
			oneSorted = append(oneSorted, relation.Tuple{Key: b<<10 | rng.Uint64()>>54, Payload: rng.Uint64() >> 44})
		}
	}
	rng.Shuffle(len(oneSorted), func(i, j int) { oneSorted[i], oneSorted[j] = oneSorted[j], oneSorted[i] })
	for _, c := range []struct {
		name  string
		input []relation.Tuple
		words []int
	}{
		{"keys<2^12/one-bucket", bucketed(1, l2Values, 12, 3), nil},
		{"keys<2^12/256-buckets", below4096, nil},
		{"one-bucket-of-256-sorted", oneSorted, []int{300}},
	} {
		checkGrouped(t, c.name, c.input)
		n := len(c.input)
		keys, pays := make([]uint64, n), make([]uint64, n)
		wantCounts, _ := SortTuplesIntoGroups(c.input, keys, pays, nil)
		var scratch countingScratch
		counts, _ := SortTuplesIntoGroups(c.input, keys, pays, &scratch)
		if counts == nil || !slices.Equal(counts, wantCounts) {
			t.Fatalf("%s: %d groups with a scratch, %d without", c.name, len(counts), len(wantCounts))
		}
		if !slices.Equal(scratch.words, c.words) || scratch.wordsBack != len(c.words) {
			t.Errorf("%s: leased Uint64s %v and returned %d, want %v", c.name, scratch.words, scratch.wordsBack, c.words)
		}
	}
}
