package mergejoin

import (
	"fmt"
	"testing"
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
