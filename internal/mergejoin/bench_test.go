package mergejoin

import (
	"testing"

	"repro/internal/batch"
	"repro/internal/sorting"
	"repro/internal/workload"
)

// BenchmarkMergeJoinKernel measures the column merge kernel with and without
// the interpolation-search skip (Section 3.2.2): a private run covering 1/8
// of the key domain against a full public run, the case where the skip lets
// the kernel enter the public run at the private run's first key.
func BenchmarkMergeJoinKernel(b *testing.B) {
	r, s, err := workload.Generate(workload.Spec{RSize: 1 << 16, Multiplicity: 4, ForeignKey: true, Seed: 9004})
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
	sc := batch.NewScratch(0, nil)

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
