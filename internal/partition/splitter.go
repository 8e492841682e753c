package partition

import (
	"math"
)

// SplitterCost models the per-worker cost the splitter computation balances
// (Section 4.3 of the paper):
//
//	split-relevant-cost_i = |Ri|·log2(|Ri|)        (sort chunk Ri)
//	                      + T·|Ri|                  (process run Ri for all S runs)
//	                      + CDF(Ri.high) − CDF(Ri.low)  (process relevant S data)
//
// The weights allow experiments (and ablation benches) to change the relative
// cost of sorting R versus scanning S without touching the algorithm.
type SplitterCost struct {
	// Workers is T, the number of parallel workers.
	Workers int
	// SortWeight scales the |Ri|·log2(|Ri|) term. 1 by default.
	SortWeight float64
	// ScanRWeight scales the T·|Ri| term. 1 by default.
	ScanRWeight float64
	// ScanSWeight scales the CDF range term. 1 by default.
	ScanSWeight float64
}

// DefaultSplitterCost returns the cost model with the paper's unit weights.
func DefaultSplitterCost(workers int) SplitterCost {
	return SplitterCost{Workers: workers, SortWeight: 1, ScanRWeight: 1, ScanSWeight: 1}
}

// PartitionCost evaluates the split-relevant cost of a candidate partition
// holding rCount private tuples and covering sMass public tuples.
func (c SplitterCost) PartitionCost(rCount int, sMass float64) float64 {
	sortCost := 0.0
	if rCount > 1 {
		sortCost = float64(rCount) * math.Log2(float64(rCount))
	}
	return c.SortWeight*sortCost +
		c.ScanRWeight*float64(c.Workers)*float64(rCount) +
		c.ScanSWeight*sMass
}

// ComputeSplitters determines the load-balancing splitter vector for P-MPSM's
// skew-resilient partitioning. It takes the global fine-grained radix
// histogram of R (Section 4.2), the global CDF of S (Section 4.1), the radix
// configuration that produced the histogram, and the cost model, and returns
// a splitter vector assigning each radix cluster to one of cost.Workers
// contiguous partitions such that the maximum per-partition cost is
// (approximately) minimized.
//
// The optimization is the classic "minimize the largest block sum" contiguous
// partitioning problem (the paper refers to Ross & Cieslewicz for exact
// two-table splitters); we solve it by binary searching the optimal maximum
// cost and greedily packing clusters, which is optimal for monotone cost
// functions of contiguous cluster ranges (the weights must not be negative).
// A packing round does not walk the clusters: the R counts and S masses are
// prefix-summed once, and because a partition's cost only grows with its
// extent, the furthest cluster a partition can take under a limit is found by
// binary search — O(workers · log clusters) cost evaluations per round
// instead of one per cluster.
func ComputeSplitters(globalR Histogram, cdf *CDF, cfg RadixConfig, cost SplitterCost) SplitterVector {
	clusters := len(globalR)
	workers := cost.Workers
	if workers <= 0 {
		panic("partition: ComputeSplitters with non-positive worker count")
	}
	sp := make(SplitterVector, clusters)
	if workers == 1 {
		return sp
	}

	// Per cluster, the estimated S mass of its key range; consecutive
	// clusters share a bound, so each CDF probe serves two of them. rPre and
	// sPre are the prefix sums the packing rounds search, and massive[c] is
	// the first cluster at or after c that holds any R tuple or S mass.
	sMass := make([]float64, clusters)
	rPre := make([]int, clusters+1)
	sPre := make([]float64, clusters+1)
	massive := make([]int, clusters+1)
	below := 0.0 // estimated S tuples below the cluster's low key
	for cl := 0; cl < clusters; cl++ {
		if high := cfg.ClusterHighKey(cl); high > cfg.ClusterLowKey(cl) {
			upTo := cdf.Estimate(high - 1)
			sMass[cl] = upTo - below
			below = upTo
		}
		rPre[cl+1] = rPre[cl] + globalR[cl]
		sPre[cl+1] = sPre[cl] + sMass[cl]
	}
	massive[clusters] = clusters
	for cl := clusters - 1; cl >= 0; cl-- {
		massive[cl] = massive[cl+1]
		if globalR[cl] > 0 || sMass[cl] > 0 {
			massive[cl] = cl
		}
	}

	// An upper bound on the optimal maximum cost: everything in one
	// partition. A lower bound: the cost of the most expensive single
	// cluster (no partition can be cheaper than its priciest cluster).
	upper := cost.PartitionCost(rPre[clusters], cdf.Total())
	lower := 0.0
	for cl := 0; cl < clusters; cl++ {
		c := cost.PartitionCost(globalR[cl], sMass[cl])
		if c > lower {
			lower = c
		}
	}

	// A difference of two prefix sums is not bit for bit the sum a pass over
	// the partition's clusters accumulates. slack bounds what the two can
	// differ by in a partition's cost; a cost that close to the limit is
	// recomputed by accumulation, so the packing — and with it the splitter
	// vector — is exactly the cluster-by-cluster greedy pass's.
	const ulp = 1.0 / (1 << 52)
	slack := 4 * ulp * (math.Abs(cost.ScanSWeight)*float64(clusters+2)*sPre[clusters] + upper)

	// fits reports whether a partition holding clusters [from, to] costs at
	// most limit.
	fits := func(from, to int, limit float64) bool {
		r := rPre[to+1] - rPre[from]
		c := cost.PartitionCost(r, sPre[to+1]-sPre[from])
		if math.Abs(c-limit) > slack {
			return c <= limit
		}
		s := 0.0
		for cl := from; cl <= to; cl++ {
			s += sMass[cl]
		}
		return !(cost.PartitionCost(r, s) > limit)
	}

	// feasible reports whether the clusters can be packed into at most
	// `workers` contiguous partitions, each of cost <= limit, and fills sp
	// with the assignment when record is set. A partition always takes the
	// clusters up to its first one with any mass, then every further cluster
	// that keeps it within the limit.
	feasible := func(limit float64, record bool) bool {
		for part, from := 0, 0; ; part++ {
			if part >= workers {
				return false
			}
			// The partition reaches at least lo and at most hi (inclusive).
			lo, hi := min(massive[from], clusters-1), clusters-1
			for lo < hi {
				mid := (lo + hi + 1) / 2
				if fits(from, mid, limit) {
					lo = mid
				} else {
					hi = mid - 1
				}
			}
			if record {
				for cl := from; cl <= lo; cl++ {
					sp[cl] = part
				}
			}
			if from = lo + 1; from == clusters {
				return true
			}
		}
	}

	// Binary search the smallest feasible limit. 40 iterations reduce the
	// uncertainty below any practically relevant resolution.
	for i := 0; i < 40 && upper-lower > 1e-6*math.Max(1, upper); i++ {
		mid := (lower + upper) / 2
		if feasible(mid, false) {
			upper = mid
		} else {
			lower = mid
		}
	}
	if !feasible(upper, true) {
		// Should not happen (the all-in-one bound is always feasible),
		// but fall back to uniform splitters rather than returning an
		// invalid vector.
		return UniformSplitters(clusters, workers)
	}
	return sp
}

// EquiHeightSplitters builds the non-skew-aware alternative used as the
// baseline in Figure 16(b): clusters are packed so that every partition holds
// (approximately) the same number of R tuples, ignoring the S distribution.
func EquiHeightSplitters(globalR Histogram, workers int) SplitterVector {
	clusters := len(globalR)
	sp := make(SplitterVector, clusters)
	if workers <= 1 {
		return sp
	}
	total := globalR.Total()
	target := float64(total) / float64(workers)
	part := 0
	acc := 0
	for cl := 0; cl < clusters; cl++ {
		sp[cl] = part
		acc += globalR[cl]
		// Move to the next partition once the current one has reached its
		// share, leaving enough partitions for the remaining clusters.
		if float64(acc) >= target*float64(part+1) && part < workers-1 {
			part++
		}
	}
	return sp
}
