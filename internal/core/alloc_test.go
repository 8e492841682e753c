//go:build !race

package core

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/memory"
	"repro/internal/mergejoin"
	"repro/internal/sched"
	"repro/internal/sink"
)

// joinAllocBytes reports the heap bytes one execution of join allocates on a
// warmed pool: the least of three runs after two that fill the pool's free
// lists, because which worker steals which morsel — and so which buffer size
// classes a run asks for — varies.
func joinAllocBytes(join func()) uint64 {
	least := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		join()
		runtime.ReadMemStats(&after)
		if i >= 2 {
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
	}
	return least
}

// TestPooledKindsAllocateNoMarks pins the marking kinds' memory property on
// counts, not clocks: with the scratch pool warm, a semi join's match marks
// come from the join's lease — per task under the morsel scheduler — so an 8×
// larger private input must not move the join's heap bytes by anything like
// its size (a mark per private tuple on the heap would add 224 KiB here).
func TestPooledKindsAllocateNoMarks(t *testing.T) {
	const small, large = 1 << 15, 1 << 18
	for _, alg := range []string{"B", "P"} {
		for _, mode := range []sched.Mode{sched.Static, sched.Morsel} {
			var bytes [2]uint64
			for i, n := range []int{small, large} {
				r, s := uniformDataset(n, 1, 41)
				pool := memory.NewPool(0)
				opts := Options{Workers: 4, Kind: mergejoin.Semi, Scheduler: mode, Scratch: pool, Sink: sink.NewCount()}
				bytes[i] = joinAllocBytes(func() { mpsmByName(alg)(r, s, opts) })
			}
			if diff := int64(bytes[1]) - int64(bytes[0]); diff > (large-small)/8 {
				t.Errorf("%s-MPSM %v: a semi join over %d private tuples allocated %d bytes, over %d tuples %d: %d more — something per private tuple lives outside the pool",
					alg, mode, small, bytes[0], large, bytes[1], diff)
			}
		}
	}
}
