package mergejoin

import (
	"fmt"
	"testing"

	"repro/internal/batch"
	"repro/internal/sorting"
	"repro/internal/workload"
)

// BenchmarkMergeJoinKernel measures the column merge kernel with and without
// the interpolation-search skip (Section 3.2.2): a private run covering 1/8
// of the key domain against a full public run, the case where the skip lets
// the kernel enter the public run at the private run's first key. FullScan
// and InterpolationSkip feed the range kernel into MaxAggregate, at the
// benchmark's foreign-key multiplicity 4; Fold and FoldSkip are FoldColumns,
// the loop B-, P- and D-MPSM run into the max-sum and count sinks over raw
// public runs, and Grouped and GroupedSkip are FoldGroups, the loop B- and
// P-MPSM run there over grouped public runs (one entry per key), at
// multiplicity 1, 4 and 16. The payloads are halved, so that no group's
// largest sum carries, as in the gated benchmark's joins (payloads below
// 10^6) and as a join requires before it groups its public runs.
func BenchmarkMergeJoinKernel(b *testing.B) {
	for _, mult := range []int{1, 4, 16} {
		r, s, err := workload.Generate(workload.Spec{RSize: 1 << 16, Multiplicity: mult, ForeignKey: true, Seed: 9004})
		if err != nil {
			b.Fatal(err)
		}
		sorting.SortInto(r.Tuples, r.Tuples)
		sorting.SortInto(s.Tuples, s.Tuples)
		narrow := r.Tuples[:r.Len()/8]
		rKeys, rPays := make([]uint64, len(narrow)), make([]uint64, len(narrow))
		sKeys, sPays := make([]uint64, s.Len()), make([]uint64, s.Len())
		batch.Deinterleave(narrow, rKeys, rPays)
		batch.Deinterleave(s.Tuples, sKeys, sPays)
		for _, col := range [][]uint64{rPays, sPays} {
			for i := range col {
				col[i] >>= 1
			}
		}
		gKeys, gMaxes, gCounts := groupColumns(sKeys, sPays)
		sc := batch.NewScratch(0, nil)

		if mult == 4 {
			b.Run("FullScan", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					var agg MaxAggregate
					JoinColumns(rKeys, rPays, sKeys, sPays, &agg, sc)
				}
			})
			b.Run("InterpolationSkip", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					var agg MaxAggregate
					JoinColumnsWithSkip(rKeys, rPays, sKeys, sPays, 0, &agg, sc)
				}
			})
		}
		for _, skip := range []bool{false, true} {
			name := map[bool]string{false: "Fold", true: "FoldSkip"}[skip]
			b.Run(fmt.Sprintf("%s/fk=%d", name, mult), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if pairs, _, _ := FoldColumns(rKeys, rPays, sKeys, sPays, skip); pairs == 0 {
						b.Fatal("no matches: the benchmark input is broken")
					}
				}
			})
			name = map[bool]string{false: "Grouped", true: "GroupedSkip"}[skip]
			b.Run(fmt.Sprintf("%s/fk=%d", name, mult), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if pairs, _, _ := FoldGroups(rKeys, rPays, gKeys, gMaxes, gCounts, skip); pairs == 0 {
						b.Fatal("no matches: the benchmark input is broken")
					}
				}
			})
		}
	}
}
