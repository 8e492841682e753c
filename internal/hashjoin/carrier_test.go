package hashjoin

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/mergejoin"
	"repro/internal/relation"
	"repro/internal/sched"
	"repro/internal/sink"
)

// TestCarrierParityGroupJoin runs the groupjoin, whose build sorts the
// driver with the run-generation sort, over a foreign-key join with payloads
// below 2^20 (key and payload share the sort word) and over the same join
// with the driver's last payload raised to 2^63 (they cannot), at one, two
// and four workers under either scheduler: the pair count and the per-key
// sum and maximum of the driver's payloads must be the reference join's.
func TestCarrierParityGroupJoin(t *testing.T) {
	r, s := testDataset(36000, 1, 97)
	for _, rel := range []*relation.Relation{r, s} {
		for i := range rel.Tuples {
			rel.Tuples[i].Payload %= 1 << 20
		}
	}
	wide := r.Clone()
	last := &wide.Tuples[wide.Len()-1]
	last.Key, last.Payload = s.Tuples[0].Key, 1<<63
	for name, driver := range map[string]*relation.Relation{"payloads<2^20": r, "one-payload-2^63": wide} {
		var oracle mergejoin.Materializer
		mergejoin.ReferenceJoin(driver.Tuples, s.Tuples, &oracle)
		want := map[sink.Agg][]relation.Tuple{}
		for _, agg := range []sink.Agg{sink.AggSum, sink.AggMax} {
			byKey := map[uint64]uint64{}
			for _, j := range oracle.Out {
				if acc, ok := byKey[j.Key]; ok {
					byKey[j.Key] = agg.Merge(acc, j.RPayload)
				} else {
					byKey[j.Key] = j.RPayload
				}
			}
			for k, v := range byKey {
				want[agg] = append(want[agg], relation.Tuple{Key: k, Payload: v})
			}
			slices.SortFunc(want[agg], func(a, b relation.Tuple) int { return cmp.Compare(a.Key, b.Key) })
		}
		for agg, wantGroups := range want {
			for _, workers := range []int{1, 2, 4} {
				for _, mode := range []sched.Mode{sched.Static, sched.Morsel} {
					label := fmt.Sprintf("%s/%v/T=%d/%v", name, agg, workers, mode)
					spec := GroupJoinSpec{Leaves: []GroupJoinLeaf{{Rel: driver, Carries: true}, {Rel: s}}, Agg: agg}
					groups, res, err := GroupJoin(context.Background(), spec, Options{Workers: workers, Scheduler: mode}, nil)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if res.Matches != uint64(len(oracle.Out)) || !slices.Equal(groups, wantGroups) {
						t.Fatalf("%s: %d matches, %d groups; the reference join has %d pairs, %d groups", label, res.Matches, len(groups), len(oracle.Out), len(wantGroups))
					}
				}
			}
		}
	}
}
