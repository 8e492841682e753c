package partition

import (
	"math"

	"repro/internal/numa"
)

// Accesses returns what a P-MPSM worker books for a range partition of r
// private tuples whose key range covers s public entries, on the given
// number of workers: phase 3 reads the partition once into its run and sorts
// it in two random read and write passes, and phase 4 scans the run once per
// public run and the public entries in its key range once. Both are linear
// in r and s, so a join's phases 3 and 4 are Accesses of |R| and |S|.
func Accesses(r, s uint64, workers int) (sort, match numa.AccessStats) {
	return numa.AccessStats{LocalSeqRead: r, LocalRandRead: 2 * r, LocalRandWrite: 2 * r},
		numa.AccessStats{LocalSeqRead: uint64(workers)*r + s}
}

// RunBytes is what a tuple of a sorted run occupies: its key and payload
// columns.
const RunBytes = 16

// PartitionCost prices a range partition of r private tuples covering s
// public entries, of a private input of total tuples on the given number of
// workers: its Accesses at the host's prices (numa.HostNanos), in nanoseconds
// — the cost the equi-cost splitters balance (Section 4.3 of the paper, with
// the sort priced as the linear radix sort it is here rather than as a
// comparison sort). The sort's random accesses pay the cache ramp of an even
// share of the private input's runs, so the price stays linear in r and s
// and the partitions of a join sum to the planner's phases 3 and 4.
func PartitionCost(r, s, total uint64, workers int) float64 {
	sort, match := Accesses(r, s, workers)
	sort.Add(match)
	return numa.HostNanos(sort, RunBytes*float64(total)/float64(workers))
}

// ComputeSplitters determines the load-balancing splitter vector for P-MPSM's
// skew-resilient partitioning. It takes the global fine-grained radix
// histogram of R (Section 4.2), the global CDF of S (Section 4.1), the radix
// configuration that produced the histogram, and the worker count, and
// returns a splitter vector assigning each radix cluster to one of workers
// contiguous partitions such that the maximum PartitionCost of a partition —
// its R tuples against the S mass the CDF puts in its key range — is
// (approximately) minimized.
//
// The optimization is the classic "minimize the largest block sum" contiguous
// partitioning problem (the paper refers to Ross & Cieslewicz for exact
// two-table splitters); we solve it by binary searching the optimal maximum
// cost and greedily packing clusters. The cost is linear, so every cluster
// has one weight and a partition costs the sum of its clusters' weights. A
// packing round does not walk the clusters: the weights are prefix-summed
// once, and the furthest cluster a partition can take under a limit is found
// by binary search — O(workers · log clusters) per round instead of one step
// per cluster.
func ComputeSplitters(globalR Histogram, cdf *CDF, cfg RadixConfig, workers int) SplitterVector {
	clusters := len(globalR)
	if workers <= 0 {
		panic("partition: ComputeSplitters with non-positive worker count")
	}
	sp := make(SplitterVector, clusters)
	if workers == 1 {
		return sp
	}

	// Per cluster, its weight: its R tuples and the estimated S mass of its
	// key range, priced. Consecutive clusters share a bound, so each CDF
	// probe serves two of them. pre is the prefix sum the packing rounds
	// search, and massive[c] is the first cluster at or after c that weighs
	// anything.
	total := uint64(globalR.Total())
	perTuple, perEntry := PartitionCost(1, 0, total, workers), PartitionCost(0, 1, total, workers)
	weight := make([]float64, clusters)
	pre := make([]float64, clusters+1)
	massive := make([]int, clusters+1)
	below := 0.0 // estimated S tuples below the cluster's low key
	lower := 0.0 // no partition is cheaper than its priciest cluster
	for cl := 0; cl < clusters; cl++ {
		sMass := 0.0
		if high := cfg.ClusterHighKey(cl); high > cfg.ClusterLowKey(cl) {
			upTo := cdf.Estimate(high - 1)
			sMass = upTo - below
			below = upTo
		}
		weight[cl] = perTuple*float64(globalR[cl]) + perEntry*sMass
		pre[cl+1] = pre[cl] + weight[cl]
		lower = max(lower, weight[cl])
	}
	massive[clusters] = clusters
	for cl := clusters - 1; cl >= 0; cl-- {
		massive[cl] = massive[cl+1]
		if weight[cl] > 0 {
			massive[cl] = cl
		}
	}
	// Everything in one partition is always feasible.
	upper := pre[clusters]

	// A difference of two prefix sums is not bit for bit the sum a pass over
	// the partition's clusters accumulates; slack bounds what the two can
	// differ by. A cost that close to the limit is recomputed by
	// accumulation, so the packing — and with it the splitter vector — is
	// exactly the cluster-by-cluster greedy pass's.
	const ulp = 1.0 / (1 << 52)
	slack := 4 * ulp * float64(clusters+2) * upper

	// fits reports whether a partition holding clusters [from, to] costs at
	// most limit.
	fits := func(from, to int, limit float64) bool {
		if c := pre[to+1] - pre[from]; math.Abs(c-limit) > slack {
			return c <= limit
		}
		c := 0.0
		for cl := from; cl <= to; cl++ {
			c += weight[cl]
		}
		return !(c > limit)
	}

	// feasible reports whether the clusters can be packed into at most
	// `workers` contiguous partitions, each of cost <= limit, and fills sp
	// with the assignment when record is set. A partition always takes the
	// clusters up to its first one that weighs anything, then every further
	// cluster that keeps it within the limit.
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
	feasible(upper, true)
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
