//go:build !race

package exec

import (
	"context"
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/relation"
	"repro/internal/sink"
)

// measurePlanAllocBytes reports the heap bytes one execution of the plan
// allocates on a warmed pool: the least of three runs, because which worker
// steals which morsel — and so which buffer size classes a run asks the pool
// for — varies, and a class met for the first time is a one-off miss, not a
// property of the plan.
func measurePlanAllocBytes(t *testing.T, p *Plan, pool *memory.Pool) uint64 {
	t.Helper()
	least := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ { // the first two runs warm the pool's free lists
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := RunPlanFor(context.Background(), p, pool, nil); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if i >= 2 {
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
	}
	return least
}

// TestFusedAggregateAllocatesOnlyItsOutput pins the memory property of the
// fused group-by kernel: with the scratch pool warm, the heap bytes of an
// aggregate plan are the caller's fresh copy of the groups plus a fixed
// overhead (runtime, phases, histograms, result structs) — every entry,
// partition and intermediate buffer is leased — so quadrupling the match
// count over the same keys must not move them. It holds above an MPSM and a
// hash join, directly and through a Project.
func TestFusedAggregateAllocatesOnlyItsOutput(t *testing.T) {
	const fixed = 256 << 10
	probe := func(r, s relation.Tuple) relation.Tuple { return relation.Tuple{Key: r.Key, Payload: s.Payload} }
	for _, alg := range []Algorithm{AlgorithmPMPSM, AlgorithmWisconsin} {
		for _, project := range []sink.Projection{nil, probe} {
			var bytes [2]uint64
			for i, mult := range []int{2, 8} {
				r, s := dataset(20000, mult, 311) // ~20k distinct keys, 40k and 160k pairs
				groups := distinctKeys(r.Tuples)
				p := &Plan{}
				in := p.AddJoin(p.AddScan(r, nil), p.AddScan(s, nil), alg, core.Options{Workers: 4}, core.DiskOptions{})
				if project != nil {
					in = p.AddProject(in, project)
				}
				p.AddGroupAggregate(in, sink.AggSum)
				bytes[i] = measurePlanAllocBytes(t, p, memory.NewPool(0))
				if budget := uint64(groups)*16 + fixed; bytes[i] > budget {
					t.Errorf("%v, project=%t, multiplicity %d: aggregate plan allocated %d bytes for %d groups, budget %d: something per-pair or per-group lives outside the pool",
						alg, project != nil, mult, bytes[i], groups, budget)
				}
			}
			if diff := int64(bytes[1]) - int64(bytes[0]); diff > fixed/2 {
				t.Errorf("%v, project=%t: 4x the matches allocated %d more bytes (%d vs %d)", alg, project != nil, diff, bytes[1], bytes[0])
			}
		}
	}
}
