package sorting

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/memory"
	"repro/internal/relation"
)

// fullestStage1Bucket returns the size of the bucket scratch the packed path
// needs for input: all of it up to l2Values, the fullest of the 256 buckets
// of the top key byte beyond.
func fullestStage1Bucket(input []relation.Tuple) int {
	if len(input) <= l2Values {
		return len(input)
	}
	maxKey, _ := bounds(input)
	shift := max(bits.Len64(maxKey)-radixBits, 0)
	var histogram [radixBuckets]int
	fullest := 0
	for _, t := range input {
		b := int(t.Key>>shift) & radixMask
		histogram[b]++
		fullest = max(fullest, histogram[b])
	}
	return fullest
}

// TestPackedBucketScratchSize pins what the packed path leases: one buffer
// the size of its fullest stage-1 bucket — the whole input when it is one
// bucket, by size or because every key shares its top byte (the other 255
// buckets then hold nothing) — handed back before the sort returns.
func TestPackedBucketScratchSize(t *testing.T) {
	oneBucket := makeTuples(l2Values+1000, 7, 1<<24)
	for i := range oneBucket {
		oneBucket[i].Key |= 0x80 << 24
	}
	for _, tc := range []struct {
		name  string
		input []relation.Tuple
		whole bool // the fullest bucket is the whole input
	}{
		{"single-bucket-by-size", makeTuples(l2Values, 6, 1<<32), true},
		{"one-bucket-holds-all", oneBucket, true},
		{"uniform", makeTuples(l2Values+1000, 8, 1<<32), false},
		{"clustered-skew", clusteredSkew(1<<17, 2, 1<<20), false},
	} {
		name, input, n := tc.name, tc.input, len(tc.input)
		want := fullestStage1Bucket(input)
		if tc.whole != (want == n) {
			t.Fatalf("%s: fullest bucket %d of %d tuples", name, want, n)
		}
		keys, pays := make([]uint64, n), make([]uint64, n)
		var scratch countingScratch
		SortTuplesIntoColumns(input, keys, pays, &scratch)
		checkColumnsAgainstStdlib(t, name, input, stdlibOracle(input), keys, pays)
		if len(scratch.words) != 1 || scratch.words[0] != want || scratch.wordsBack != 1 {
			t.Fatalf("%s: leased bucket scratches %v (returned %d), want one of %d", name, scratch.words, scratch.wordsBack, want)
		}
		sortBothWays(t, name, input)
	}
}

// TestPackedPayloadBits pins that no bit crosses between the packed words and
// the payloads that share dstKeys and dstPays with them through both stages:
// payloads of all ones, payloads that are themselves valid packed words of
// the same sort, and payloads that look like positions, on either side of the
// stage-1 threshold and with duplicate keys, so that stability shows.
func TestPackedPayloadBits(t *testing.T) {
	for _, n := range []int{100, l2Values - 1, l2Values + 1, l2Values + 3000} {
		rng := rand.New(rand.NewSource(int64(n)))
		input := make([]relation.Tuple, n)
		for i := range input {
			input[i].Key = rng.Uint64() >> 40 % uint64(n/2+1) << 12
		}
		maxKey, _ := bounds(input)
		idxBits, _, ok := packedCarrier(n, maxKey, math.MaxUint64)
		if !ok {
			t.Fatalf("n=%d: input does not pack", n)
		}
		for i := range input {
			switch i % 4 {
			case 0:
				input[i].Payload = math.MaxUint64
			case 1:
				input[i].Payload = input[rng.Intn(n)].Key<<idxBits | uint64(rng.Intn(n))
			case 2:
				input[i].Payload = uint64(n - 1 - i)
			default:
				input[i].Payload = rng.Uint64()
			}
		}
		sortBothWays(t, fmt.Sprintf("n=%d", n), input)
	}
}

// TestPackedBucketsLeftInPlace sends stage 2 buckets it does not move — empty
// ones, ones of at most packedInsertionCutoff values (insertion-sorted where
// they lie), ones that arrive sorted or all equal — next to ones it does, in
// one input: wherever a bucket's words end up, its payloads and keys must
// land in its own range.
func TestPackedBucketsLeftInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var input []relation.Tuple
	add := func(bucket, count int, low func(i int) uint64) {
		for i := 0; i < count; i++ {
			input = append(input, relation.Tuple{Key: uint64(bucket)<<24 | low(i)&(1<<24-1), Payload: rng.Uint64()})
		}
	}
	random := func(int) uint64 { return rng.Uint64() }
	for b := 0; b < radixBuckets; b++ {
		switch b % 6 {
		case 0: // empty
		case 1:
			add(b, 1+rng.Intn(packedInsertionCutoff), random)
		case 2:
			add(b, 700, func(i int) uint64 { return uint64(i / 3) }) // sorted, with duplicates
		case 3:
			add(b, 500, func(int) uint64 { return 99 }) // all equal
		case 4:
			add(b, 900, random)
		case 5:
			add(b, 900, func(int) uint64 { return uint64(rng.Intn(5)) << 20 }) // bins too full for the fix-up
		}
	}
	add(radixBuckets-1, 1, func(int) uint64 { return 1<<24 - 1 }) // pins the first digit to the top key byte
	// Interleave the buckets: the scatter, not the input order, must group them.
	rng.Shuffle(len(input), func(i, j int) { input[i], input[j] = input[j], input[i] })
	if len(input) <= l2Values {
		t.Fatalf("input of %d tuples does not reach stage 1", len(input))
	}
	sortBothWays(t, "mixed-buckets", input)
}

// TestPackedLeaseAccounting runs the packed path on a real lease whose
// uint64 buffers are dirty from earlier use: the result is right, the bucket
// scratch is back on the lease (the next request of its size is a reuse), and
// the lease handed out no more than the fullest bucket, rounded up to its
// size class.
func TestPackedLeaseAccounting(t *testing.T) {
	for name, input := range map[string][]relation.Tuple{
		"uniform":        makeTuples(1<<17, 3, 1<<32),
		"clustered-skew": clusteredSkew(1<<17, 2, 1<<20),
		"single-bucket":  makeTuples(5000, 4, 1<<32),
	} {
		n := len(input)
		fullest := fullestStage1Bucket(input)
		lease := memory.NewPool(1 << 30).Acquire()
		dirty := lease.Uint64s(fullest)
		for i := range dirty {
			dirty[i] = math.MaxUint64
		}
		lease.PutUint64s(dirty)
		keys, pays := make([]uint64, n), make([]uint64, n)
		before := lease.Stats()

		maxKey, _ := bounds(input)
		SortTuplesIntoColumnsWithBounds(input, keys, pays, maxKey, math.MaxUint64, nil, lease)
		checkColumnsAgainstStdlib(t, name, input, stdlibOracle(input), keys, pays)

		after := lease.Stats()
		class := int64(8) << bits.Len(uint(fullest-1))
		if after.Buffers != before.Buffers+1 || after.Reused != before.Reused+1 || after.Bytes != before.Bytes+class {
			t.Fatalf("%s: the sort took %+v beyond %+v, want one reused buffer of %d bytes", name, after, before, class)
		}
		lease.Uint64s(fullest)
		if again := lease.Stats(); again.Reused != after.Reused+1 {
			t.Fatalf("%s: the bucket scratch did not come back to the lease: %+v after %+v", name, again, after)
		}
		lease.Release()
	}
}

// TestPackedCarriers pins which carrier the low bits of the packed word take
// and that both give the stable order pair for pair: key and payload widths
// that sum to exactly 64 bits (the payload rides in the word) and to 65 (it
// cannot, so positions do), all payloads zero (a zero-width carrier), every
// key zero, and a MaxUint64 key beside zero payloads, which packs although
// the key fills the word. Runs of equal keys carry descending or random
// payloads, so a fix-up that compared whole words — payload bits included —
// would reorder them; the dense cases put 2^12 neighbouring keys, each
// repeated, into one stage-1 bucket, whose bins are too full for the fix-up
// and recurse.
func TestPackedCarriers(t *testing.T) {
	for _, n := range []int{3000, l2Values - 1, l2Values + 1, l2Values + 40000} {
		idxBits := bits.Len(uint(n - 1))
		for _, tc := range []struct {
			name             string
			keyBits, payBits int // widths of the largest key and payload; -1: none non-zero
			dense            bool
			inWord           bool
		}{
			{"sum-64", 40, 24, false, true},
			{"sum-64-dense", 40, 24, true, true},
			{"sum-65", 41, 24, false, false},
			{"sum-65-dense", 41, 24, true, false},
			{"zero-payloads", 32, -1, true, true},
			{"zero-keys", -1, 64, false, true},
			{"max-uint64-key", 64, -1, false, true},
		} {
			for _, order := range []string{"descending", "random"} {
				name := fmt.Sprintf("%s/%s/n=%d", tc.name, order, n)
				rng := rand.New(rand.NewSource(int64(n + tc.keyBits<<8 + tc.payBits<<16)))
				pool := make([]uint64, n/8) // every key repeats about eight times
				for i := range pool {
					pool[i] = rng.Uint64() >> (64 - max(tc.keyBits, 0))
				}
				input := make([]relation.Tuple, n)
				for i := range input {
					k := pool[rng.Intn(len(pool))]
					if tc.dense && i%2 == 0 {
						k = 0x5a<<(tc.keyBits-8) | uint64(rng.Intn(1<<12))
					}
					var p uint64
					if tc.payBits > 0 {
						p = uint64(n-i) << (tc.payBits - bits.Len(uint(n))) // descending
						if order == "random" {
							p = rng.Uint64() >> (64 - tc.payBits)
						}
					}
					input[i] = relation.Tuple{Key: k, Payload: p}
				}
				if tc.keyBits > 0 {
					input[n/3].Key = 1<<tc.keyBits - 1 // the key bound has exactly keyBits bits
				}
				if tc.payBits > 0 {
					input[n/2].Payload = 1 << (tc.payBits - 1)
				}
				maxKey, payBound := bounds(input)
				w, inWord, ok := packedCarrier(n, maxKey, payBound)
				if !ok || inWord != tc.inWord || inWord && w != max(tc.payBits, 0) || !inWord && w != idxBits {
					t.Fatalf("%s: packedCarrier = (%d, %v, %v), want the %s carrier", name, w, inWord, ok, map[bool]string{true: "payload", false: "position"}[tc.inWord])
				}
				want := stdlibOracle(input)
				keys, pays := make([]uint64, n), make([]uint64, n)
				SortTuplesIntoColumns(input, keys, pays, nil)
				for i := range want {
					if keys[i] != want[i].Key || pays[i] != want[i].Payload {
						t.Fatalf("%s: (%d, %d) at %d, the stable order has (%d, %d)", name, keys[i], pays[i], i, want[i].Key, want[i].Payload)
					}
				}
				sortBothWays(t, name, input)
			}
		}
	}
}
