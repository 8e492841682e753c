package bench

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mergejoin"
	"repro/internal/numa"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/result"
	"repro/internal/sorting"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		Name:  "figure1",
		Title: "NUMA-affine vs NUMA-agnostic micro-benchmarks (sort, partition, merge join)",
		Run:   runFigure1,
	})
	register(Experiment{
		Name:  "figure9",
		Title: "Fine-grained radix histograms vs comparison-based partitioning",
		Run:   runFigure9,
	})
}

// runFigure1 reproduces the three micro-benchmarks of Figure 1.
//
// The synchronization comparison (2) is measured for real: contended atomic
// write cursors versus precomputed prefix-sum cursors are both expressible in
// Go. The NUMA placement comparisons (1) and (3) cannot be measured on
// hardware Go does not control, so they are priced with the calibrated NUMA
// cost model; the measured local wall-clock time is reported alongside for
// reference.
func runFigure1(cfg Config, w io.Writer) error {
	workers := cfg.workers()
	n := cfg.RSize() * 2
	rel := workload.UniformRelation("R", n, workload.DefaultKeyDomain, 1001)
	topo := numa.DefaultTopology()
	model := numa.DefaultCostModel()
	perChunk := uint64(n / workers)

	tbl := newTable(w)
	tbl.row("step", "variant", "kind", "time [ms]")

	// (1) Chunked run sorting: local NUMA RAM vs globally allocated array.
	// Every MPSM variant sorts its chunk into preallocated key and payload
	// columns.
	chunks := rel.Clone().Split(workers)
	runKeys, runPays := make([][]uint64, len(chunks)), make([][]uint64, len(chunks))
	for i, c := range chunks {
		runKeys[i], runPays[i] = make([]uint64, len(c.Tuples)), make([]uint64, len(c.Tuples))
	}
	sortWall := result.StopwatchPhase(func() {
		var wg sync.WaitGroup
		for i, c := range chunks {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sorting.SortTuplesIntoColumns(c.Tuples, runKeys[i], runPays[i], nil)
			}()
		}
		wg.Wait()
	})
	sortAccesses := 4 * perChunk // ~2 read + 2 write passes of random accesses per tuple
	localSort := numa.AccessStats{LocalRandRead: sortAccesses / 2, LocalRandWrite: sortAccesses / 2}
	remoteSort := numa.AccessStats{RemoteRandRead: sortAccesses / 2, RemoteRandWrite: sortAccesses / 2}
	tbl.row("(1) sort runs", "local (parallel, per chunk)", "measured", ms(sortWall))
	tbl.row("(1) sort runs", "local NUMA partition", "simulated", ms(model.Estimate(localSort)))
	tbl.row("(1) sort runs", "global / remote array", "simulated", ms(model.Estimate(remoteSort)))

	// (2) Partitioning: synchronized write cursors vs precomputed prefix sums.
	syncTime, preTime := measurePartitionSynchronization(rel, workers)
	scatterSync := numa.AccessStats{RemoteRandWrite: uint64(n) / 2, LocalRandWrite: uint64(n) / 2, SyncOps: uint64(n)}
	scatterPre := numa.AccessStats{RemoteSeqWrite: uint64(n) / 2, LocalSeqWrite: uint64(n) / 2}
	tbl.row("(2) partition", "synchronized (atomic cursor)", "measured", ms(syncTime))
	tbl.row("(2) partition", "precomputed sub-partitions", "measured", ms(preTime))
	tbl.row("(2) partition", "synchronized (atomic cursor)", "simulated", ms(model.Estimate(scatterSync)))
	tbl.row("(2) partition", "precomputed sub-partitions", "simulated", ms(model.Estimate(scatterPre)))

	// (3) Merge join with the second run local vs remote.
	a := workload.UniformRelation("A", n/workers, workload.DefaultKeyDomain, 1002)
	b := workload.UniformRelation("B", n/workers, workload.DefaultKeyDomain, 1003)
	sorting.SortInto(a.Tuples, a.Tuples)
	sorting.SortInto(b.Tuples, b.Tuples)
	var agg mergejoin.MaxAggregate
	joinWall := result.StopwatchPhase(func() {
		mergejoin.Join(a.Tuples, b.Tuples, &agg)
	})
	localJoin := numa.AccessStats{LocalSeqRead: 2 * perChunk}
	remoteJoin := numa.AccessStats{LocalSeqRead: perChunk, RemoteSeqRead: perChunk}
	tbl.row("(3) merge join", "both runs local", "measured", ms(joinWall))
	tbl.row("(3) merge join", "both runs local", "simulated", ms(model.Estimate(localJoin)))
	tbl.row("(3) merge join", "second run remote (sequential)", "simulated", ms(model.Estimate(remoteJoin)))
	tbl.flush()

	fmt.Fprintf(w, "\nworkers=%d tuples=%d topology=%d nodes × %d cores\n", workers, n, topo.Nodes, topo.CoresPerNode)
	fmt.Fprintln(w, "expected shape: remote/global sorting ≈3x local; synchronized scatter ≫ precomputed; remote sequential scan ≈1.2x local")
	return nil
}

// measurePartitionSynchronization times the two scatter strategies of the
// Figure 1(2) micro-benchmark on real hardware: every worker distributes its
// chunk of the relation into `workers` partition arrays, once taking the next
// write position from a shared atomic counter per partition (the "red"
// test-and-set variant) and once writing sequentially into precomputed
// sub-partitions derived from histograms and prefix sums (the "green"
// variant). Histograms and prefix sums are computed outside both timers so
// that the comparison isolates the scatter itself, exactly as in the paper.
func measurePartitionSynchronization(rel *relation.Relation, workers int) (synchronized, precomputed time.Duration) {
	cfg := partition.NewRadixConfig(max(1, log2(workers)), workload.DefaultKeyDomain-1)
	sp := partition.UniformSplitters(cfg.Clusters(), workers)
	chunks := rel.Split(workers)

	histograms := make([]partition.Histogram, workers)
	for wi, c := range chunks {
		histograms[wi] = partition.BuildHistogram(c.Tuples, cfg)
	}
	ps := partition.ComputePrefixSums(histograms, sp, workers)

	// Variant A: synchronized. One shared atomic cursor per partition.
	targetsA := make([][]relation.Tuple, workers)
	for p := 0; p < workers; p++ {
		targetsA[p] = make([]relation.Tuple, ps.Sizes[p])
	}
	cursorsShared := make([]int64, workers)
	synchronized = result.StopwatchPhase(func() {
		var wg sync.WaitGroup
		for wi := range chunks {
			wg.Add(1)
			go func(wi int) {
				defer wg.Done()
				for _, t := range chunks[wi].Tuples {
					p := sp[cfg.Cluster(t.Key)]
					pos := atomic.AddInt64(&cursorsShared[p], 1) - 1
					targetsA[p][pos] = t
				}
			}(wi)
		}
		wg.Wait()
	})

	// Variant B: sequential writes into precomputed sub-partitions.
	targetsB := make([][]relation.Tuple, workers)
	for p := 0; p < workers; p++ {
		targetsB[p] = make([]relation.Tuple, ps.Sizes[p])
	}
	precomputed = result.StopwatchPhase(func() {
		var wg sync.WaitGroup
		for wi := range chunks {
			wg.Add(1)
			go func(wi int) {
				defer wg.Done()
				cursors := append([]int(nil), ps.Offsets[wi]...)
				partition.Scatter(chunks[wi].Tuples, cfg, sp, targetsB, cursors)
			}(wi)
		}
		wg.Wait()
	})
	return synchronized, precomputed
}

// runFigure9 reproduces Figure 9: the cost of building R histograms, prefix
// sums, and the partitioning pass at radix granularities from 32 to 2048
// clusters, compared against comparison-based partitioning with explicit
// bounds (binary search per tuple) at 32 partitions.
func runFigure9(cfg Config, w io.Writer) error {
	workers := cfg.workers()
	n := cfg.RSize() * 2
	rel := workload.UniformRelation("R", n, workload.DefaultKeyDomain, 1009)
	chunks := rel.Split(workers)

	tbl := newTable(w)
	tbl.row("granularity", "method", "histogram [ms]", "prefix sum [ms]", "partitioning [ms]", "total [ms]")

	for _, clusters := range []int{32, 64, 128, 256, 512, 1024, 2048} {
		bits := log2(clusters)
		rcfg := partition.NewRadixConfig(bits, workload.DefaultKeyDomain-1)
		sp := partition.UniformSplitters(rcfg.Clusters(), workers)

		histograms := make([]partition.Histogram, workers)
		histTime := result.StopwatchPhase(func() {
			var wg sync.WaitGroup
			for wi := range chunks {
				wg.Add(1)
				go func(wi int) {
					defer wg.Done()
					histograms[wi] = partition.BuildHistogram(chunks[wi].Tuples, rcfg)
				}(wi)
			}
			wg.Wait()
		})

		var ps partition.PrefixSums
		prefixTime := result.StopwatchPhase(func() {
			ps = partition.ComputePrefixSums(histograms, sp, workers)
		})

		targets := make([][]relation.Tuple, workers)
		for p := 0; p < workers; p++ {
			targets[p] = make([]relation.Tuple, ps.Sizes[p])
		}
		scatterTime := result.StopwatchPhase(func() {
			var wg sync.WaitGroup
			for wi := range chunks {
				wg.Add(1)
				go func(wi int) {
					defer wg.Done()
					cursors := append([]int(nil), ps.Offsets[wi]...)
					partition.Scatter(chunks[wi].Tuples, rcfg, sp, targets, cursors)
				}(wi)
			}
			wg.Wait()
		})
		total := histTime + prefixTime + scatterTime
		tbl.row(clusters, "radix", ms(histTime), ms(prefixTime), ms(scatterTime), ms(total))
	}

	// Comparison-based baseline: explicit bounds, 32 partitions.
	explicitTime := measureExplicitBoundsPartitioning(rel, chunks, workers)
	tbl.row(32, "explicit bounds", "-", "-", "-", ms(explicitTime))
	tbl.flush()

	fmt.Fprintln(w, "\nexpected shape: radix cost is nearly flat in granularity; explicit-bounds partitioning is clearly slower")
	return nil
}

// measureExplicitBoundsPartitioning times the comparison-based alternative:
// per tuple, the target partition is found by binary searching a vector of 32
// explicit key bounds.
func measureExplicitBoundsPartitioning(rel *relation.Relation, chunks []relation.Chunk, workers int) time.Duration {
	const parts = 32
	bounds := make([]uint64, parts)
	for i := 0; i < parts; i++ {
		bounds[i] = workload.DefaultKeyDomain / parts * uint64(i+1)
	}
	return result.StopwatchPhase(func() {
		histograms := make([]partition.Histogram, workers)
		var wg sync.WaitGroup
		for wi := range chunks {
			wg.Add(1)
			go func(wi int) {
				defer wg.Done()
				histograms[wi] = partition.BuildHistogramExplicitBounds(chunks[wi].Tuples, bounds)
			}(wi)
		}
		wg.Wait()

		// Prefix sums over the explicit-bounds histograms.
		offsets := make([][]int, workers)
		sizes := make([]int, parts)
		for p := 0; p < parts; p++ {
			running := 0
			for wi := 0; wi < workers; wi++ {
				if offsets[wi] == nil {
					offsets[wi] = make([]int, parts)
				}
				offsets[wi][p] = running
				running += histograms[wi][p]
			}
			sizes[p] = running
		}
		targets := make([][]relation.Tuple, parts)
		for p := 0; p < parts; p++ {
			targets[p] = make([]relation.Tuple, sizes[p])
		}
		for wi := range chunks {
			wg.Add(1)
			go func(wi int) {
				defer wg.Done()
				cursors := append([]int(nil), offsets[wi]...)
				partition.ScatterExplicitBounds(chunks[wi].Tuples, bounds, targets, cursors)
			}(wi)
		}
		wg.Wait()
	})
}

// log2 returns floor(log2(n)) for n >= 1.
func log2(n int) int {
	b := 0
	for n > 1 {
		n >>= 1
		b++
	}
	return b
}
