package mpsm

// Benchmark harness: one testing.B benchmark (family) per table/figure of the
// paper's evaluation. The benchmarks run at a reduced scale controlled by
// benchRSize so that `go test -bench=.` completes in minutes; the mpsmbench
// command runs the same experiments at configurable scale and prints the
// paper-style tables.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/hashjoin"
	"repro/internal/mergejoin"
	"repro/internal/relation"
	"repro/internal/result"
	"repro/internal/sorting"
	"repro/internal/workload"
)

// The benchmarks run to completion on a background context, so the
// context-cancellation error paths cannot trigger; these wrappers keep the
// measurement loops free of error plumbing.

func benchPMPSM(r, s *relation.Relation, opts core.Options) *result.Result {
	res, err := core.PMPSM(context.Background(), r, s, opts)
	if err != nil {
		panic(err)
	}
	return res
}

func benchBMPSM(r, s *relation.Relation, opts core.Options) *result.Result {
	res, err := core.BMPSM(context.Background(), r, s, opts)
	if err != nil {
		panic(err)
	}
	return res
}

func benchDMPSM(r, s *relation.Relation, opts core.Options, diskOpts core.DiskOptions) *result.Result {
	res, _, err := core.DMPSM(context.Background(), r, s, opts, diskOpts)
	if err != nil {
		panic(err)
	}
	return res
}

func benchWisconsin(r, s *relation.Relation, opts hashjoin.Options) *result.Result {
	res, err := hashjoin.Wisconsin(context.Background(), r, s, opts)
	if err != nil {
		panic(err)
	}
	return res
}

func benchRadix(r, s *relation.Relation, opts hashjoin.RadixOptions) *result.Result {
	res, err := hashjoin.Radix(context.Background(), r, s, opts)
	if err != nil {
		panic(err)
	}
	return res
}

// benchRSize is the |R| cardinality used by the join benchmarks.
const benchRSize = 1 << 16

// benchWorkers is the default parallelism of the join benchmarks.
const benchWorkers = 8

// benchDataset memoizes generated datasets across benchmark iterations.
var benchDatasets = map[string][2]*relation.Relation{}

func benchDataset(mult int, rSkew, sSkew workload.Skew) (*relation.Relation, *relation.Relation) {
	key := fmt.Sprintf("%d-%v-%v", mult, rSkew, sSkew)
	if d, ok := benchDatasets[key]; ok {
		return d[0], d[1]
	}
	r, s, err := workload.Generate(workload.Spec{
		RSize:        benchRSize,
		Multiplicity: mult,
		RSkew:        rSkew,
		SSkew:        sSkew,
		ForeignKey:   rSkew == workload.SkewNone && sSkew == workload.SkewNone,
		Seed:         9000 + uint64(mult),
	})
	if err != nil {
		panic(err)
	}
	benchDatasets[key] = [2]*relation.Relation{r, s}
	return r, s
}

// BenchmarkSection23Sort compares the paper's three-phase Radix/IntroSort with
// the standard library sort (Section 2.3: "about 30% faster than the STL
// sort").
func BenchmarkSection23Sort(b *testing.B) {
	input := workload.UniformRelation("R", 1<<18, workload.DefaultKeyDomain, 77)
	b.Run("RadixIntroSort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			work := input.Clone().Tuples
			b.StartTimer()
			sorting.Sort(work)
		}
	})
	b.Run("StdlibSort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			work := input.Clone().Tuples
			b.StartTimer()
			sorting.SortStdlib(work)
		}
	})
}

// BenchmarkFigure1Partitioning benchmarks the Figure 1(2) micro-benchmark:
// synchronization-free scatter into precomputed sub-partitions (the design
// MPSM uses) versus the same scatter driven by shared atomic write cursors is
// covered by the bench package experiment; here we measure the
// histogram/prefix-sum/scatter pipeline that phase 2 of P-MPSM runs.
func BenchmarkFigure1Partitioning(b *testing.B) {
	r, _ := benchDataset(1, workload.SkewNone, workload.SkewNone)
	opts := core.Options{Workers: benchWorkers, Splitters: core.SplitterUniform}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := benchPMPSM(r, r, opts)
		if res.Matches == 0 {
			b.Fatal("unexpected empty join")
		}
	}
}

// BenchmarkFigure12 compares P-MPSM, the radix hash join (Vectorwise
// stand-in) and the Wisconsin hash join on uniform data for the paper's
// multiplicities (Figure 12).
func BenchmarkFigure12(b *testing.B) {
	for _, mult := range []int{1, 4, 8, 16} {
		r, s := benchDataset(mult, workload.SkewNone, workload.SkewNone)
		b.Run(fmt.Sprintf("PMPSM/mult=%d", mult), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchPMPSM(r, s, core.Options{Workers: benchWorkers})
			}
		})
		b.Run(fmt.Sprintf("RadixHJ/mult=%d", mult), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchRadix(r, s, hashjoin.RadixOptions{Options: hashjoin.Options{Workers: benchWorkers}})
			}
		})
		b.Run(fmt.Sprintf("Wisconsin/mult=%d", mult), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchWisconsin(r, s, hashjoin.Options{Workers: benchWorkers})
			}
		})
	}
}

// BenchmarkFigure13 measures P-MPSM's scalability in the number of workers
// (Figure 13) at multiplicity 4.
func BenchmarkFigure13(b *testing.B) {
	r, s := benchDataset(4, workload.SkewNone, workload.SkewNone)
	for _, workers := range []int{2, 4, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("PMPSM/T=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchPMPSM(r, s, core.Options{Workers: workers})
			}
		})
		b.Run(fmt.Sprintf("RadixHJ/T=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchRadix(r, s, hashjoin.RadixOptions{Options: hashjoin.Options{Workers: workers}})
			}
		})
	}
}

// BenchmarkFigure14 measures the effect of role reversal (Figure 14): the
// smaller relation R as private input versus the larger S as private input.
func BenchmarkFigure14(b *testing.B) {
	for _, mult := range []int{1, 4, 8, 16} {
		r, s := benchDataset(mult, workload.SkewNone, workload.SkewNone)
		b.Run(fmt.Sprintf("RPrivate/mult=%d", mult), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchPMPSM(r, s, core.Options{Workers: benchWorkers})
			}
		})
		b.Run(fmt.Sprintf("SPrivate/mult=%d", mult), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchPMPSM(s, r, core.Options{Workers: benchWorkers})
			}
		})
	}
}

// BenchmarkFigure15 measures the effect of location skew in S (Figure 15):
// uniformly shuffled S versus S arranged so that each private partition's join
// partners cluster in a single run.
func BenchmarkFigure15(b *testing.B) {
	r, s := benchDataset(4, workload.SkewNone, workload.SkewNone)
	clustered := s.Clone()
	workload.ApplyLocationSkew(clustered, benchWorkers, workload.LocationClustered, workload.DefaultKeyDomain)

	b.Run("NoLocationSkew", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchPMPSM(r, s, core.Options{Workers: benchWorkers})
		}
	})
	b.Run("ClusteredS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchPMPSM(r, clustered, core.Options{Workers: benchWorkers})
		}
	})
}

// BenchmarkFigure16 measures the negatively correlated skew workload
// (Figure 16) under equi-height R partitioning versus equi-cost splitters.
func BenchmarkFigure16(b *testing.B) {
	r, s := benchDataset(4, workload.SkewHigh80, workload.SkewLow80)
	b.Run("EquiHeight", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchPMPSM(r, s, core.Options{Workers: benchWorkers, Splitters: core.SplitterEquiHeight})
		}
	})
	b.Run("EquiCostSplitters", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchPMPSM(r, s, core.Options{Workers: benchWorkers, Splitters: core.SplitterEquiCost})
		}
	})
}

// BenchmarkFigure9Histograms measures the fine-grained histogram granularity
// sweep (Figure 9): the P-MPSM partitioning phase with 32 to 2048 radix
// clusters.
func BenchmarkFigure9Histograms(b *testing.B) {
	r, s := benchDataset(1, workload.SkewNone, workload.SkewNone)
	for _, bits := range []int{5, 6, 7, 8, 9, 10, 11} {
		b.Run(fmt.Sprintf("clusters=%d", 1<<bits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchPMPSM(r, s, core.Options{Workers: benchWorkers, HistogramBits: bits})
			}
		})
	}
}

// BenchmarkAblationBMPSMvsPMPSM quantifies the pay-off of range partitioning
// (Sections 2.2 / 3.2): B-MPSM scans T·|S| public tuples, P-MPSM only |S|.
func BenchmarkAblationBMPSMvsPMPSM(b *testing.B) {
	for _, mult := range []int{1, 4, 8} {
		r, s := benchDataset(mult, workload.SkewNone, workload.SkewNone)
		b.Run(fmt.Sprintf("BMPSM/mult=%d", mult), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchBMPSM(r, s, core.Options{Workers: benchWorkers})
			}
		})
		b.Run(fmt.Sprintf("PMPSM/mult=%d", mult), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchPMPSM(r, s, core.Options{Workers: benchWorkers})
			}
		})
	}
}

// BenchmarkDMPSM exercises the disk-enabled variant under different page
// budgets (Section 3.1, Figure 4).
func BenchmarkDMPSM(b *testing.B) {
	r, s := benchDataset(4, workload.SkewNone, workload.SkewNone)
	for _, budget := range []int{0, 64, 16} {
		b.Run(fmt.Sprintf("budget=%d", budget), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchDMPSM(r, s, core.Options{Workers: 4}, core.DiskOptions{PageSize: 1024, PageBudget: budget})
			}
		})
	}
}

// BenchmarkMergeJoinKernel measures the raw merge-join kernel with and without
// the interpolation-search skip (Section 3.2.2).
func BenchmarkMergeJoinKernel(b *testing.B) {
	r, s := benchDataset(4, workload.SkewNone, workload.SkewNone)
	priv := r.Clone().Tuples
	pub := s.Clone().Tuples
	sorting.Sort(priv)
	sorting.Sort(pub)
	// Narrow the private run to 1/8 of the key domain to expose the skip.
	narrow := priv[:len(priv)/8]
	rKeys, rPays := make([]uint64, len(narrow)), make([]uint64, len(narrow))
	sKeys, sPays := make([]uint64, len(pub)), make([]uint64, len(pub))
	batch.Deinterleave(narrow, rKeys, rPays)
	batch.Deinterleave(pub, sKeys, sPays)
	sc := batch.NewScratch(0, nil)

	b.Run("FullScan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var agg mergejoin.MaxAggregate
			mergejoin.JoinColumns(rKeys, rPays, sKeys, sPays, &agg, sc)
		}
	})
	b.Run("InterpolationSkip", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var agg mergejoin.MaxAggregate
			mergejoin.JoinColumnsWithSkip(rKeys, rPays, sKeys, sPays, 0, &agg, sc)
		}
	})
}

// BenchmarkWisconsinBuildProbe isolates the build and probe phases of the
// shared hash table (the Figure 12 "build"/"probe" bars).
func BenchmarkWisconsinBuildProbe(b *testing.B) {
	r, s := benchDataset(4, workload.SkewNone, workload.SkewNone)
	for _, workers := range []int{1, benchWorkers} {
		b.Run(fmt.Sprintf("T=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchWisconsin(r, s, hashjoin.Options{Workers: workers})
			}
		})
	}
}
