package partition

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/relation"
)

// skewedKeys produces n keys with an 80:20 skew: 80% of the keys fall into the
// high (or low) 20% of the domain, as in Section 5.6 of the paper.
func skewedKeys(n int, domain uint64, highEnd bool, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]uint64, n)
	cut := domain / 5 // 20% of the domain
	for i := range keys {
		if rng.Float64() < 0.8 {
			if highEnd {
				keys[i] = domain - cut + rng.Uint64()%cut
			} else {
				keys[i] = rng.Uint64() % cut
			}
		} else {
			if highEnd {
				keys[i] = rng.Uint64() % (domain - cut)
			} else {
				keys[i] = cut + rng.Uint64()%(domain-cut)
			}
		}
	}
	return keys
}

func buildTestCDF(keys []uint64, boundsPerRun, runs int) *CDF {
	tuples := make([]relation.Tuple, len(keys))
	for i, k := range keys {
		tuples[i].Key = k
	}
	sort.Slice(tuples, func(i, j int) bool { return tuples[i].Key < tuples[j].Key })
	// Split the sorted data round-robin into runs to mimic independent
	// per-worker runs, then re-sort each (round robin keeps them sorted).
	perRun := make([][]relation.Tuple, runs)
	for i, t := range tuples {
		perRun[i%runs] = append(perRun[i%runs], t)
	}
	var boundSets [][]uint64
	var lens []int
	for _, r := range perRun {
		boundSets = append(boundSets, EquiHeightBoundsKeys(keysOf(r), boundsPerRun))
		lens = append(lens, len(r))
	}
	return BuildCDF(boundSets, lens)
}

// TestPartitionCost: a partition is priced by what its phases 3 and 4 book,
// linearly — at T = 8, eight private tuples sort for 14 ns each while the
// private input's runs are cache-resident and are scanned once per public
// run, and the 100 public entries of their range once, at 2 ns a scan:
// 8·14 + 2·(8·8 + 100) = 440. Once an even share of the runs (2^30 tuples
// over 8 workers) is far out of cache, each of a tuple's four random
// accesses costs 2.2 ns more: 440 + 8·4·2.2 = 510.4.
func TestPartitionCost(t *testing.T) {
	if got := PartitionCost(0, 0, 8, 8); got != 0 {
		t.Fatalf("PartitionCost(0, 0, 8, 8) = %f, want 0", got)
	}
	if got := PartitionCost(8, 100, 8, 8); math.Abs(got-440) > 1e-9 {
		t.Fatalf("PartitionCost(8, 100, 8, 8) = %f, want 440", got)
	}
	if got := PartitionCost(8, 100, 1<<30, 8); math.Abs(got-510.4) > 1e-9 {
		t.Fatalf("PartitionCost(8, 100, 1<<30, 8) = %f, want 510.4", got)
	}
	for _, total := range []uint64{8, 1 << 18, 1 << 30} {
		if sum, whole := PartitionCost(5, 70, total, 8)+PartitionCost(3, 30, total, 8), PartitionCost(8, 100, total, 8); math.Abs(sum-whole) > 1e-9*whole {
			t.Fatalf("two partitions cost %f, their union %f at %d tuples: the price is not linear", sum, whole, total)
		}
	}
}

func TestComputeSplittersUniformData(t *testing.T) {
	// With uniform R and S, the equi-cost splitters should give every
	// worker roughly 1/T of the R tuples.
	workers := 8
	n := 100000
	rng := rand.New(rand.NewSource(1))
	domain := uint64(1 << 32)
	rKeys := make([]uint64, n)
	for i := range rKeys {
		rKeys[i] = rng.Uint64() % domain
	}
	rTuples := make([]relation.Tuple, n)
	for i, k := range rKeys {
		rTuples[i].Key = k
	}
	cfg := NewRadixConfig(10, domain-1)
	globalR := BuildHistogram(rTuples, cfg)
	cdf := buildTestCDF(rKeys, 16, workers)

	sp := ComputeSplitters(globalR, cdf, cfg, workers)
	if err := sp.Validate(workers); err != nil {
		t.Fatalf("invalid splitters: %v", err)
	}
	sizes := ComputePrefixSums([]Histogram{globalR}, sp, workers).Sizes
	for p, s := range sizes {
		share := float64(s) / float64(n)
		if share < 0.5/float64(workers) || share > 2.0/float64(workers) {
			t.Fatalf("partition %d holds %.1f%% of R, expected near %.1f%%", p, share*100, 100.0/float64(workers))
		}
	}
}

// clusterMass is the S mass the CDF puts in a cluster's key range.
func clusterMass(cdf *CDF, cfg RadixConfig, cl int) float64 {
	low, high := cfg.ClusterLowKey(cl), cfg.ClusterHighKey(cl)
	if high <= low {
		return 0
	}
	below := 0.0
	if low > 0 {
		below = cdf.Estimate(low - 1)
	}
	return cdf.Estimate(high-1) - below
}

// clusterWeights prices every cluster's R tuples and S mass on the given
// number of workers.
func clusterWeights(globalR Histogram, cdf *CDF, cfg RadixConfig, workers int) []float64 {
	total := uint64(globalR.Total())
	perTuple, perEntry := PartitionCost(1, 0, total, workers), PartitionCost(0, 1, total, workers)
	weights := make([]float64, len(globalR))
	for cl := range weights {
		weights[cl] = perTuple*float64(globalR[cl]) + perEntry*clusterMass(cdf, cfg, cl)
	}
	return weights
}

// maxPartitionCost is the largest cost of a partition under sp: its R tuples
// against the S mass the CDF puts in its key range, priced.
func maxPartitionCost(globalR Histogram, cdf *CDF, cfg RadixConfig, workers int, sp SplitterVector) float64 {
	costs := make([]float64, workers)
	for cl, w := range clusterWeights(globalR, cdf, cfg, workers) {
		costs[sp[cl]] += w
	}
	return slices.Max(costs)
}

func TestComputeSplittersNegativelyCorrelatedSkew(t *testing.T) {
	// The Section 5.6 scenario: R skewed toward the high end, S toward the
	// low end. Equi-cost splitters must yield a lower maximum cost than
	// equi-height splitters.
	workers := 8
	n := 100000
	domain := uint64(1 << 32)
	rKeys := skewedKeys(n, domain, true, 2)
	sKeys := skewedKeys(4*n, domain, false, 3)

	rTuples := make([]relation.Tuple, n)
	for i, k := range rKeys {
		rTuples[i].Key = k
	}
	cfg := NewRadixConfig(10, domain-1)
	globalR := BuildHistogram(rTuples, cfg)
	cdf := buildTestCDF(sKeys, 16, workers)

	equiCost := ComputeSplitters(globalR, cdf, cfg, workers)
	if err := equiCost.Validate(workers); err != nil {
		t.Fatalf("invalid equi-cost splitters: %v", err)
	}
	equiHeight := EquiHeightSplitters(globalR, workers)
	if err := equiHeight.Validate(workers); err != nil {
		t.Fatalf("invalid equi-height splitters: %v", err)
	}

	maxEquiCost := maxPartitionCost(globalR, cdf, cfg, workers, equiCost)
	maxEquiHeight := maxPartitionCost(globalR, cdf, cfg, workers, equiHeight)
	if maxEquiCost > maxEquiHeight {
		t.Fatalf("equi-cost splitters (max %.0f) should not be worse than equi-height (max %.0f)", maxEquiCost, maxEquiHeight)
	}
	// The improvement should be substantial for this adversarial workload.
	if maxEquiCost > 0.9*maxEquiHeight {
		t.Fatalf("expected a clear balancing win: equi-cost %.0f vs equi-height %.0f", maxEquiCost, maxEquiHeight)
	}
}

func TestComputeSplittersSingleWorker(t *testing.T) {
	cfg := NewRadixConfig(4, 1000)
	globalR := make(Histogram, cfg.Clusters())
	globalR[3] = 10
	cdf := BuildCDF(nil, nil)
	sp := ComputeSplitters(globalR, cdf, cfg, 1)
	for _, p := range sp {
		if p != 0 {
			t.Fatal("single-worker splitters must all map to partition 0")
		}
	}
}

func TestComputeSplittersPanicsOnZeroWorkers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero workers")
		}
	}()
	cfg := NewRadixConfig(2, 100)
	ComputeSplitters(make(Histogram, 4), BuildCDF(nil, nil), cfg, 0)
}

func TestComputeSplittersMoreWorkersThanClusters(t *testing.T) {
	// Degenerate but legal: more workers than radix clusters. The splitter
	// vector must stay valid; some partitions simply stay empty.
	cfg := NewRadixConfig(1, 100)
	globalR := Histogram{5, 5}
	cdf := BuildCDF(nil, nil)
	sp := ComputeSplitters(globalR, cdf, cfg, 8)
	if err := sp.Validate(8); err != nil {
		t.Fatalf("invalid splitters: %v", err)
	}
}

func TestEquiHeightSplittersBalanceRCounts(t *testing.T) {
	workers := 4
	cfg := NewRadixConfig(8, 1<<20-1)
	tuples := makeTuples(40000, 21, 1<<20)
	globalR := BuildHistogram(tuples, cfg)
	sp := EquiHeightSplitters(globalR, workers)
	if err := sp.Validate(workers); err != nil {
		t.Fatalf("invalid splitters: %v", err)
	}
	sizes := ComputePrefixSums([]Histogram{globalR}, sp, workers).Sizes
	for p, s := range sizes {
		share := float64(s) / 40000.0
		if share < 0.1 || share > 0.5 {
			t.Fatalf("partition %d holds %.1f%% of R, expected near 25%%", p, share*100)
		}
	}
}

func TestEquiHeightSplittersSingleWorker(t *testing.T) {
	sp := EquiHeightSplitters(Histogram{1, 2, 3}, 1)
	for _, p := range sp {
		if p != 0 {
			t.Fatal("single-worker equi-height splitters must map to partition 0")
		}
	}
}

// computeSplittersGreedy is ComputeSplitters as it was before its packing
// rounds searched prefix sums: every round walks all clusters, accumulating a
// partition's cost cluster by cluster. It is kept as the oracle the search
// must reproduce vector for vector.
func computeSplittersGreedy(globalR Histogram, cdf *CDF, cfg RadixConfig, workers int) SplitterVector {
	sp := make(SplitterVector, len(globalR))
	if workers == 1 {
		return sp
	}
	weights := clusterWeights(globalR, cdf, cfg, workers)
	upper, lower := 0.0, 0.0
	for _, w := range weights {
		upper += w
		lower = max(lower, w)
	}
	feasible := func(limit float64, record bool) bool {
		part, acc := 0, 0.0
		for cl, w := range weights {
			next := acc + w
			if next > limit && acc > 0 {
				if part++; part >= workers {
					return false
				}
				next = w
			}
			acc = next
			if record {
				sp[cl] = part
			}
		}
		return true
	}
	for i := 0; i < 40 && upper-lower > 1e-6*math.Max(1, upper); i++ {
		if mid := (lower + upper) / 2; feasible(mid, false) {
			upper = mid
		} else {
			lower = mid
		}
	}
	feasible(upper, true)
	return sp
}

// TestComputeSplittersMatchesGreedyOracle: the prefix-sum search must return
// the identical splitter vector (golden PublicScanned counts depend on it)
// over uniform and 80:20-skewed inputs in both directions, everything in one
// cluster, an empty histogram, integral masses whose partition costs tie, and
// workers 1…64 at both ends of the histogram-bits range.
func TestComputeSplittersMatchesGreedyOracle(t *testing.T) {
	const domain = uint64(1) << 32
	uniformKeys := func(n int, seed int64) []uint64 {
		rng := rand.New(rand.NewSource(seed))
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = rng.Uint64() % domain
		}
		return keys
	}
	constant := func(n int, key uint64) []uint64 {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = key
		}
		return keys
	}
	every := func(n int, stride uint64) []uint64 {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(i) * stride % domain
		}
		return keys
	}
	corpus := []struct {
		name   string
		rKeys  []uint64
		sKeys  []uint64
		maxKey uint64
	}{
		{"uniform", uniformKeys(20000, 1), uniformKeys(80000, 2), domain - 1},
		{"skew R high, S low", skewedKeys(20000, domain, true, 3), skewedKeys(80000, domain, false, 4), domain - 1},
		{"skew R low, S high", skewedKeys(20000, domain, false, 5), skewedKeys(80000, domain, true, 6), domain - 1},
		{"one cluster", constant(5000, 12345), constant(20000, 12345), domain - 1},
		{"R in one cluster, S uniform", constant(5000, domain/3), uniformKeys(20000, 7), domain - 1},
		{"empty R", nil, uniformKeys(20000, 8), domain - 1},
		{"empty R and S", nil, nil, domain - 1},
		{"regular grid (tied costs)", every(1<<14, domain>>14), every(1<<16, domain>>16), domain - 1},
		{"keys 0 and MaxUint64", append(constant(100, 0), constant(100, ^uint64(0))...), append(constant(300, 0), constant(300, ^uint64(0))...), ^uint64(0)},
		{"tiny domain", every(1000, 1)[:37], every(1000, 1)[:90], 36},
	}
	for _, in := range corpus {
		tuples := make([]relation.Tuple, len(in.rKeys))
		for i, k := range in.rKeys {
			tuples[i].Key = k
		}
		sorted := append([]uint64(nil), in.sKeys...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, bits := range []int{10, 20} {
			// The greedy oracle takes a second per call over 2^20 clusters:
			// there, one worker count on the skewed and the one-cluster input.
			var counts []int
			switch {
			case bits == 10:
				for w := 1; w <= 64; w++ {
					counts = append(counts, w)
				}
			case in.name == "skew R high, S low":
				counts = []int{64}
			case in.name == "one cluster":
				counts = []int{3}
			}
			cfg := NewRadixConfig(bits, in.maxKey)
			globalR := BuildHistogram(tuples, cfg)
			for _, workers := range counts {
				// The S CDF of `workers` sorted runs dealt round-robin from the
				// sorted keys, 4·workers bounds each, as P-MPSM builds it.
				bounds, lens := make([][]uint64, workers), make([]int, workers)
				for w := range bounds {
					var run []uint64
					for i := w; i < len(sorted); i += workers {
						run = append(run, sorted[i])
					}
					bounds[w], lens[w] = EquiHeightBoundsKeys(run, 4*workers), len(run)
				}
				cdf := BuildCDF(bounds, lens)
				got := ComputeSplitters(globalR, cdf, cfg, workers)
				want := computeSplittersGreedy(globalR, cdf, cfg, workers)
				for cl := range want {
					if got[cl] != want[cl] {
						t.Fatalf("input=%q bits=%d workers=%d: cluster %d goes to partition %d, the greedy oracle sends it to %d",
							in.name, bits, workers, cl, got[cl], want[cl])
					}
				}
			}
		}
	}
}
