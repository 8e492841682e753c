package hashjoin

import (
	"testing"

	"repro/internal/sched"
)

// TestHashJoinsUnderMorselScheduling checks both baselines against the
// oracle with the morsel scheduler and a tiny morsel size, so that build and
// probe blocks (Wisconsin) and partition-pair tasks (radix) genuinely get
// split and stolen.
func TestHashJoinsUnderMorselScheduling(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		r, s := testDataset(3000, 4, uint64(workers*13))
		wantCount, wantMax := reference(r, s)

		wi := wisconsin(r, s, Options{Workers: workers, Scheduler: sched.Morsel, MorselSize: 128})
		if wi.Matches != wantCount || wi.MaxSum != wantMax {
			t.Fatalf("Wisconsin morsel T=%d: got (%d, %d), want (%d, %d)",
				workers, wi.Matches, wi.MaxSum, wantCount, wantMax)
		}

		ra := radix(r, s, RadixOptions{Options: Options{Workers: workers, Scheduler: sched.Morsel, MorselSize: 128}})
		if ra.Matches != wantCount || ra.MaxSum != wantMax {
			t.Fatalf("Radix morsel T=%d: got (%d, %d), want (%d, %d)",
				workers, ra.Matches, ra.MaxSum, wantCount, wantMax)
		}
	}
}

// TestWisconsinMorselNUMAAccountingStillSynchronizes makes sure the
// accounting that distinguishes the baselines from MPSM (sync ops on the
// shared table) survives the scheduler rewrite in both modes — for a build
// that workers share; one worker's build stores plainly and charges none.
func TestWisconsinMorselNUMAAccountingStillSynchronizes(t *testing.T) {
	r, s := testDataset(2000, 2, 91)
	for _, mode := range []sched.Mode{sched.Static, sched.Morsel} {
		res := wisconsin(r, s, Options{Workers: 4, TrackNUMA: true, Scheduler: mode, MorselSize: 256})
		if res.NUMA.SyncOps < uint64(r.Len()) {
			t.Fatalf("%v: Wisconsin recorded %d sync ops for %d shared inserts — the C3-violation accounting is gone", mode, res.NUMA.SyncOps, r.Len())
		}
		if solo := wisconsin(r, s, Options{Workers: 1, TrackNUMA: true, Scheduler: mode, MorselSize: 256}); solo.NUMA.SyncOps != 0 {
			t.Fatalf("%v: one-worker build recorded %d sync ops, want 0", mode, solo.NUMA.SyncOps)
		}
		if res.NUMA.TotalAccesses() == 0 || res.SimulatedNUMACost == 0 {
			t.Fatalf("%v: NUMA accounting missing: %+v", mode, res.NUMA)
		}
	}
}
