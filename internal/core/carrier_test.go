package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/mergejoin"
	"repro/internal/relation"
	"repro/internal/result"
	"repro/internal/sched"
)

// carrierInputs returns a foreign-key join whose private side exceeds the
// packed sort's single-bucket size on one worker, with every payload below
// 2^20 — key and payload then fit one sort word, so run generation carries
// payloads in it — and the same join with one private payload raised to 2^63
// in the last tuple, which ends in the last worker's chunk at every worker
// count and leaves no room for the payload beside the key. That tuple's key
// has partners, so a payload mixed into its key loses matches.
func carrierInputs() map[string][2]*relation.Relation {
	r, s := uniformDataset(36000, 1, 97)
	for _, rel := range []*relation.Relation{r, s} {
		for i := range rel.Tuples {
			rel.Tuples[i].Payload %= 1 << 20
		}
	}
	wide := r.Clone()
	last := &wide.Tuples[wide.Len()-1]
	last.Key, last.Payload = s.Tuples[0].Key, 1<<63
	return map[string][2]*relation.Relation{"payloads<2^20": {r, s}, "one-payload-2^63": {wide, s}}
}

// TestCarrierParity runs B-, P- and D-MPSM on both carrier inputs at one, two
// and four workers under either scheduler: the counters of the default sink
// must be the reference join's, and the pairs materialized its multiset. P-MPSM sorts its private
// partitions with the payload bound its phase 2 combines across the workers'
// chunks, so a bound taken from fewer chunks than all of them shows here.
func TestCarrierParity(t *testing.T) {
	for name, in := range carrierInputs() {
		r, s := in[0], in[1]
		var oracle mergejoin.Materializer
		mergejoin.ReferenceJoin(r.Tuples, s.Tuples, &oracle)
		want := sortedJoined(oracle.Out)
		wantCount, wantMax := reference(r, s)
		for _, alg := range []string{"B", "P", "D"} {
			for _, workers := range []int{1, 2, 4} {
				for _, mode := range []sched.Mode{sched.Static, sched.Morsel} {
					label := fmt.Sprintf("%s/%s-MPSM/T=%d/%v", name, alg, workers, mode)
					opts := Options{Workers: workers, Scheduler: mode}
					var res *result.Result
					if alg == "D" {
						res, _ = dmpsm(r, s, opts, DiskOptions{PageSize: 256, PageBudget: 16})
					} else {
						res = mpsmByName(alg)(r, s, opts)
					}
					if res.Matches != wantCount || res.MaxSum != wantMax {
						t.Fatalf("%s: matches %d, max-sum %d; the reference join has %d, %d", label, res.Matches, res.MaxSum, wantCount, wantMax)
					}
					pairs, _, _ := runMaterialized(t, alg, r, s, opts)
					got := make([]mergejoin.JoinedTuple, len(pairs))
					for i, p := range pairs {
						got[i] = mergejoin.JoinedTuple{Key: p.R.Key, RPayload: p.R.Payload, SPayload: p.S.Payload}
					}
					if !slices.Equal(sortedJoined(got), want) {
						t.Fatalf("%s: the materialized pairs are not the reference join's", label)
					}
				}
			}
		}
	}
}
