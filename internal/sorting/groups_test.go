package sorting

import (
	"fmt"
	"math"
	"math/bits"
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
