package planner

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/numa"
	"repro/internal/relation"
	"repro/internal/sink"
	"repro/internal/sorting"
	"repro/internal/workload"
)

// folded sums a join's tracked accesses over locality, as the model books
// them.
func folded(s numa.AccessStats) numa.AccessStats {
	return numa.AccessStats{
		LocalSeqRead: s.LocalSeqRead + s.RemoteSeqRead, LocalSeqWrite: s.LocalSeqWrite + s.RemoteSeqWrite,
		LocalRandRead: s.LocalRandRead + s.RemoteRandRead, LocalRandWrite: s.LocalRandWrite + s.RemoteRandWrite,
		SyncOps: s.SyncOps,
	}
}

// groupedEntries is what a folding join's public runs hold over the chunks
// of s on t workers: one entry per key group where the sort word carries the
// payloads (sorting.SortTuplesIntoGroups), a tuple each elsewhere.
func groupedEntries(s *relation.Relation, t int) float64 {
	entries := 0
	for _, chunk := range s.Split(t) {
		src := append([]relation.Tuple(nil), chunk.Tuples...)
		keys, pays := make([]uint64, len(src)), make([]uint64, len(src))
		counts, _ := sorting.SortTuplesIntoGroups(src, keys, pays, nil)
		if counts == nil {
			entries += len(src)
		} else {
			entries += len(counts)
		}
	}
	return float64(entries)
}

// TestPredictedAccessesMatchTheTrackers holds the cost model's access
// predictions to what a tracked join books, summed over locality: B-MPSM and
// P-MPSM with raw public runs (into Materialize) and grouped ones (into the
// count sink, which never sorts a grouped run again raw), D-MPSM's phases 1–2
// (its phase 3 reads pages through the buffer pool, which books nothing) and
// the radix join, over every workload.EdgeInputs shape at 1, 2, 3 and 8
// workers. P-MPSM's phase 4 enters every public run at its window by search:
// the public entries it scans (Result.PublicScanned) are at most the
// prediction, and every other count is exact. The no-partitioning join and
// the groupjoin are left out: the chain entries their probes walk, and the
// build's compare-and-swap retries, depend on the order the workers insert
// in. A run whose key width the sample guessed too narrow is counted again
// (partition.Count); no input here does.
func TestPredictedAccessesMatchTheTrackers(t *testing.T) {
	ctx := context.Background()
	for _, in := range workload.EdgeInputs(1) {
		presortedR, presortedS := relation.IsSortedByKey(in.R.Tuples), relation.IsSortedByKey(in.S.Tuples)
		for _, workers := range []int{1, 2, 3, 8} {
			for _, c := range []struct {
				alg     exec.Algorithm
				grouped bool
			}{
				{exec.AlgorithmBMPSM, false}, {exec.AlgorithmBMPSM, true},
				{exec.AlgorithmPMPSM, false}, {exec.AlgorithmPMPSM, true},
				{exec.AlgorithmDMPSM, false}, {exec.AlgorithmRadix, false},
			} {
				name := fmt.Sprintf("%s/%v/T=%d/grouped=%t", in.Name, c.alg, workers, c.grouped)
				var out sink.Sink = sink.NewMaterialize()
				entries := float64(in.S.Len())
				if c.grouped {
					out = sink.NewCount()
					entries = groupedEntries(in.S, workers)
				}
				opts := core.Options{Workers: workers, TrackNUMA: true, Sink: out, PresortedPrivate: presortedR, PresortedPublic: presortedS}
				res, _, err := exec.Join(ctx, c.alg, in.R, in.S, opts, core.DiskOptions{})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				ji := joinInputs{
					build: float64(in.R.Len()), probe: float64(in.S.Len()),
					presortedBuild: presortedR, presortedProbe: presortedS, workers: workers, static: true,
				}
				phases := DefaultCostModel().phasesOf(c.alg, ji)
				if c.alg == exec.AlgorithmDMPSM {
					phases = phases[:2]
				}
				if c.grouped {
					// The match phase scans the public runs' entries, not
					// their tuples; the planner, which cannot tell whether
					// they group, prices them raw.
					ji.probe = entries
					phases[len(phases)-1] = DefaultCostModel().phasesOf(c.alg, ji)[len(phases)-1]
				}
				var want numa.AccessStats
				for _, p := range phases {
					want.Add(p.AccessStats)
				}
				if c.alg == exec.AlgorithmPMPSM {
					if scanned := float64(res.PublicScanned); scanned > entries {
						t.Errorf("%s: phase 4 scanned %g public entries, predicted at most %g", name, scanned, entries)
					}
					want.LocalSeqRead -= uint64(entries) - uint64(res.PublicScanned)
				}
				got := folded(res.NUMA)
				if got != want {
					t.Errorf("%s: booked %+v, predicted %+v", name, got, want)
				}
			}
		}
	}
}
