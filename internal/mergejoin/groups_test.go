package mergejoin

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"repro/internal/batch"
	"repro/internal/relation"
	"repro/internal/sorting"
)

// groupColumns is the reference grouping of a key-sorted column pair: its
// distinct keys, each key's largest payload and its number of tuples, what
// run generation's grouped sort hands a folding join's public side.
func groupColumns(keys, pays []uint64) (gKeys, gMaxes []uint64, gCounts []int32) {
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

// TestFoldGroupsMatchesFoldColumns is the differential test of the grouped
// fold: over every kernel input, with and without the skip, and with each
// private run cut to its lower and upper half (windows the public run does not
// reach, or reaches in part), FoldGroups over the grouped public columns
// reports FoldColumns' pairs and largest sum over the raw ones, and scans one
// entry per distinct public key of the window FoldColumns scans. Payloads are
// halved on both sides, so no largest sum carries: that is FoldGroups'
// precondition, which the join checks before it groups.
func TestFoldGroupsMatchesFoldColumns(t *testing.T) {
	for _, in := range rangeKernelInputs() {
		_, rKeys, rPays := sortedColumns(in.r)
		_, sKeys, sPays := sortedColumns(in.s)
		for _, col := range [][]uint64{rPays, sPays} {
			for i := range col {
				col[i] >>= 1
			}
		}
		gKeys, gMaxes, gCounts := groupColumns(sKeys, sPays)
		half := len(rKeys) / 2
		privates := map[string][2][]uint64{
			"whole": {rKeys, rPays}, "lower": {rKeys[:half], rPays[:half]}, "upper": {rKeys[half:], rPays[half:]},
		}
		for name, priv := range privates {
			for _, skip := range []bool{false, true} {
				label := fmt.Sprintf("%s/%s/skip=%t", in.name, name, skip)
				wantPairs, wantMax, scanned := FoldColumns(priv[0], priv[1], sKeys, sPays, skip)
				start, end := enter(priv[0], sKeys, skip)
				wantEntries := 0
				if start < end {
					k, _, _ := groupColumns(sKeys[start:end], sPays[start:end])
					wantEntries = len(k)
				}
				if scanned != end-start {
					t.Fatalf("%s: FoldColumns scanned %d of a window of %d", label, scanned, end-start)
				}
				pairs, maxSum, entries := FoldGroups(priv[0], priv[1], gKeys, gMaxes, gCounts, skip)
				if pairs != wantPairs || maxSum != wantMax || entries != wantEntries {
					t.Fatalf("%s: FoldGroups = (%d, %d, scanned %d), FoldColumns gives (%d, %d) over %d entries", label, pairs, maxSum, entries, wantPairs, wantMax, wantEntries)
				}
			}
		}
	}
}

// foldTuples decodes four bytes per tuple — a 16-bit key and a 16-bit payload
// read little-endian, cut to their low keyBits and payBits — and tiles them
// to n tuples, repetition r adding r to every key mod 2^keyBits, so that a
// few fuzzed keys fill a narrow domain densely.
func foldTuples(data []byte, keyBits, payBits uint, n int) []relation.Tuple {
	m := len(data) / 4
	if m == 0 {
		return nil
	}
	n = max(n, m)
	keyMask, payMask := uint64(1)<<keyBits-1, uint64(1)<<payBits-1
	tuples := make([]relation.Tuple, n)
	for i := range tuples {
		word := data[i%m*4:]
		key := uint64(binary.LittleEndian.Uint16(word)) + uint64(i/m)
		tuples[i] = relation.Tuple{Key: key & keyMask, Payload: uint64(binary.LittleEndian.Uint16(word[2:])) & payMask}
	}
	return tuples
}

// FuzzFoldGroups is the fuzz form of TestFoldGroupsMatchesFoldColumns with
// run generation in front of the fold: the bytes decode a private and a
// public run over keys of 0 to 16 bits and payloads of 0 to 16 bits (sums
// that cannot carry) — the public run tiled past 2^15 tuples, sorting's
// single-bucket size, when tile is 128 or more — and the public run is grouped
// by sorting.SortTuplesIntoGroups, whose narrow keys take its counting pass
// (every key bit left covered) in the one bucket or in stage-1 buckets.
// FoldGroups over the grouped run must report FoldColumns' pairs and largest
// sum over the raw run, sorted by key by the standard library, with and without
// skip, and scan one entry per distinct key of FoldColumns' window.
func FuzzFoldGroups(f *testing.F) {
	f.Add([]byte{1, 0, 9, 0, 2, 0, 3, 0}, []byte{1, 0, 5, 0, 1, 0, 7, 0, 2, 0, 0, 0, 4, 0, 1, 0}, uint8(3), uint8(4), uint8(0))
	f.Add([]byte{0, 0, 0, 0}, []byte{0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 1, 0}, uint8(2), uint8(0), uint8(0))  // key 0 beside payload 0: the word 0
	f.Add([]byte{7, 0, 1, 0}, []byte{7, 0, 1, 0, 7, 0, 2, 0, 7, 0, 3, 0}, uint8(0), uint8(16), uint8(0)) // one key: no key bit left
	f.Add([]byte{1, 0, 1, 0, 200, 0, 1, 0}, []byte{1, 0, 9, 0, 44, 1, 3, 0, 200, 0, 5, 0}, uint8(12), uint8(16), uint8(128))
	f.Add([]byte{5, 1, 2, 0, 5, 1, 3, 0}, []byte{4, 1, 9, 0, 5, 1, 8, 0}, uint8(16), uint8(16), uint8(200))
	f.Add([]byte{}, []byte{1, 0, 1, 0}, uint8(4), uint8(4), uint8(0))
	f.Fuzz(func(t *testing.T, rData, sData []byte, keyBits, payBits, tile uint8) {
		kb, pb := uint(keyBits%17), uint(payBits%17)
		tiled := 0
		if tile >= 128 {
			tiled = 1<<15 + int(tile)
		}
		_, rKeys, rPays := sortedColumns(foldTuples(rData, kb, pb, 0))
		public := foldTuples(sData, kb, pb, tiled)
		n := len(public)
		gKeys, gMaxes := make([]uint64, n), make([]uint64, n)
		counts, _ := sorting.SortTuplesIntoGroups(public, gKeys, gMaxes, nil)
		if counts == nil && n > 0 {
			t.Fatalf("%d tuples of %d-bit keys and payloads did not group", n, max(kb, pb))
		}
		g := len(counts)
		raw := slices.Clone(public) // a fold reads no order inside a key group: any sort by key serves
		slices.SortFunc(raw, func(a, b relation.Tuple) int { return cmp.Compare(a.Key, b.Key) })
		sKeys, sPays := make([]uint64, n), make([]uint64, n)
		batch.Deinterleave(raw, sKeys, sPays)
		for _, skip := range []bool{false, true} {
			wantPairs, wantMax, _ := FoldColumns(rKeys, rPays, sKeys, sPays, skip)
			start, end := enter(rKeys, sKeys, skip)
			wantEntries := len(slices.Compact(slices.Clone(sKeys[start:end])))
			pairs, maxSum, entries := FoldGroups(rKeys, rPays, gKeys[:g], gMaxes[:g], counts, skip)
			if pairs != wantPairs || maxSum != wantMax || entries != wantEntries {
				t.Fatalf("skip=%t: FoldGroups = (%d, %d, scanned %d) over %d groups, FoldColumns gives (%d, %d) over %d entries of %d tuples",
					skip, pairs, maxSum, entries, g, wantPairs, wantMax, wantEntries, n)
			}
		}
	})
}
