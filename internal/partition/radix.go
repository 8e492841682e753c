// Package partition implements the histogram-based, synchronization-free
// partitioning machinery of the range-partitioned MPSM join (P-MPSM):
//
//   - radix clustering of join keys on their B most significant bits
//     (branch-free and comparison-free, Section 3.2.1 of the paper),
//   - one parallel count and scatter (Count, Counted.Scatter): per-worker
//     radix histograms (Section 4.2), counted in the read that finds the key
//     domain, combined into prefix sums so that every worker scatters its
//     chunk sequentially into precomputed sub-partitions without any latching
//     (adapting He et al.'s technique) — P-MPSM's phase 2, the radix hash
//     join and the group-by kernel all partition through it,
//   - equi-height histograms over the sorted public input and their merge
//     into a global cumulative distribution function (CDF, Section 4.1), and
//   - splitter computation that balances per-worker sort + join cost
//     (Section 4.3, in the spirit of Ross & Cieslewicz).
package partition

import (
	"fmt"
	"math/bits"

	"repro/internal/relation"
)

// RadixConfig describes how join keys map to radix clusters: the cluster of a
// key is (key >> Shift), clamped to [0, 1<<Bits). Shift is chosen so that the
// B most significant bits of the observed key domain select the cluster, which
// is the preprocessing the paper prescribes for key domains smaller than 2^64.
type RadixConfig struct {
	// Bits is the number of leading key bits used for clustering; the
	// histogram and splitter vector have 1<<Bits entries.
	Bits int
	// Shift is the right-shift applied to keys before clustering.
	Shift uint
}

// NewRadixConfig derives a radix configuration for the given number of bits
// and the maximum key value expected in the data. It panics if bits is not in
// [1, 32]; 32 bits (4 billion clusters) is far beyond any sensible histogram
// granularity and would indicate a unit error at the call site.
func NewRadixConfig(bitsWanted int, maxKey uint64) RadixConfig {
	if bitsWanted < 1 || bitsWanted > 32 {
		panic(fmt.Sprintf("partition: radix bits %d out of range [1, 32]", bitsWanted))
	}
	width := bits.Len64(maxKey)
	shift := 0
	if width > bitsWanted {
		shift = width - bitsWanted
	}
	return RadixConfig{Bits: bitsWanted, Shift: uint(shift)}
}

// Clusters returns the number of radix clusters (2^Bits).
func (c RadixConfig) Clusters() int { return 1 << c.Bits }

// Cluster maps a key to its radix cluster. Keys larger than the configured
// domain clamp into the last cluster so that histogram indices stay in range;
// the clamp is a min, which compiles to a conditional move, so the mapping is
// branch-free as the paper's Section 3.2.1 prescribes.
func (c RadixConfig) Cluster(key uint64) int {
	return int(min(key>>c.Shift, uint64(1)<<c.Bits-1))
}

// ClusterLowKey returns the smallest key value that maps to the given cluster.
func (c RadixConfig) ClusterLowKey(cluster int) uint64 {
	return uint64(cluster) << c.Shift
}

// ClusterHighKey returns the exclusive upper key bound of the given cluster,
// i.e. the smallest key belonging to the next cluster. For the last cluster it
// returns the maximum representable bound without overflowing.
func (c RadixConfig) ClusterHighKey(cluster int) uint64 {
	if cluster >= c.Clusters()-1 {
		high := uint64(c.Clusters()) << c.Shift
		if high == 0 { // overflowed 2^64
			return ^uint64(0)
		}
		return high
	}
	return uint64(cluster+1) << c.Shift
}

// Histogram counts tuples per radix cluster.
type Histogram []int

// BuildHistogram scans tuples once and counts how many fall into each radix
// cluster of cfg. The scan is branch-free in the sense of the paper: the
// cluster index is computed with a shift, not with key comparisons.
func BuildHistogram(tuples []relation.Tuple, cfg RadixConfig) Histogram {
	return BuildHistogramInto(make(Histogram, cfg.Clusters()), tuples, cfg)
}

// BuildHistogramInto is BuildHistogram counting into a caller-provided
// (typically pool-leased) histogram, which must be zeroed and of length
// cfg.Clusters().
func BuildHistogramInto(h Histogram, tuples []relation.Tuple, cfg RadixConfig) Histogram {
	if len(h) != cfg.Clusters() {
		panic(fmt.Sprintf("partition: histogram length %d does not match %d clusters", len(h), cfg.Clusters()))
	}
	// Shift and clamp limit are hoisted out of the loop, and the clamp is a
	// min (conditional move): the per-tuple work is shift, min, increment —
	// no comparisons, no calls, no branches beyond the loop's own.
	shift, limit := cfg.Shift, uint64(1)<<cfg.Bits-1
	for _, t := range tuples {
		h[min(t.Key>>shift, limit)]++
	}
	return h
}

// Total returns the number of tuples counted by the histogram.
func (h Histogram) Total() int {
	total := 0
	for _, c := range h {
		total += c
	}
	return total
}

// Add accumulates other into h. Both histograms must have the same length.
func (h Histogram) Add(other Histogram) {
	if len(h) != len(other) {
		panic(fmt.Sprintf("partition: histogram length mismatch %d vs %d", len(h), len(other)))
	}
	for i, c := range other {
		h[i] += c
	}
}

// CombineHistograms sums per-worker histograms into a single global histogram.
func CombineHistograms(histograms []Histogram) Histogram {
	if len(histograms) == 0 {
		return nil
	}
	global := make(Histogram, len(histograms[0]))
	for _, h := range histograms {
		global.Add(h)
	}
	return global
}

// SplitterVector maps every radix cluster to the index of the target range
// partition it belongs to. Entries must be non-decreasing (clusters are
// ordered by key, so partitions cover contiguous key ranges).
type SplitterVector []int

// Validate checks that the splitter vector is monotone and that all entries
// lie in [0, numPartitions).
func (sp SplitterVector) Validate(numPartitions int) error {
	prev := 0
	for i, p := range sp {
		if p < 0 || p >= numPartitions {
			return fmt.Errorf("partition: splitter[%d] = %d out of range [0, %d)", i, p, numPartitions)
		}
		if p < prev {
			return fmt.Errorf("partition: splitter vector not monotone at cluster %d (%d after %d)", i, p, prev)
		}
		prev = p
	}
	return nil
}

// UniformSplitters builds the static splitter vector used by P-MPSM without
// skew handling: the 2^bits clusters are divided into numPartitions contiguous
// groups of (as close as possible) equal cluster count. With bits = log2(T)
// this is exactly the paper's "one cluster per worker" radix clustering.
func UniformSplitters(clusters, numPartitions int) SplitterVector {
	sp := make(SplitterVector, clusters)
	for i := range sp {
		p := i * numPartitions / clusters
		if p >= numPartitions {
			p = numPartitions - 1
		}
		sp[i] = p
	}
	return sp
}

// PrefixSums holds, for every (worker, partition) pair, the index within the
// target partition's array at which the worker starts writing its tuples. The
// offsets are exactly the paper's ps_i[j]: worker i writes its tuples for
// partition j to positions [Offsets[i][j], Offsets[i][j] + h_i maps to j).
//
// Because every worker owns a dedicated, precomputed index range in every
// target array, the subsequent scatter needs no synchronization at all.
type PrefixSums struct {
	// Offsets[worker][partition] is the start index of the worker's
	// sub-partition within the target partition array.
	Offsets [][]int
	// Sizes[partition] is the total size of each target partition.
	Sizes []int
}

// ComputePrefixSums combines per-worker histograms into the per-worker,
// per-partition write offsets. histograms[i] must be the radix histogram of
// worker i's chunk; sp maps clusters to partitions.
func ComputePrefixSums(histograms []Histogram, sp SplitterVector, numPartitions int) PrefixSums {
	workers := len(histograms)
	// Per-worker tuple counts per partition.
	perWorker := make([][]int, workers)
	for w, h := range histograms {
		counts := make([]int, numPartitions)
		for cluster, c := range h {
			counts[sp[cluster]] += c
		}
		perWorker[w] = counts
	}
	offsets := make([][]int, workers)
	sizes := make([]int, numPartitions)
	for p := 0; p < numPartitions; p++ {
		running := 0
		for w := 0; w < workers; w++ {
			if offsets[w] == nil {
				offsets[w] = make([]int, numPartitions)
			}
			offsets[w][p] = running
			running += perWorker[w][p]
		}
		sizes[p] = running
	}
	return PrefixSums{Offsets: offsets, Sizes: sizes}
}

// Scatter writes the tuples of one worker's chunk into the target partition
// arrays. targets[p] must have length PrefixSums.Sizes[p]; cursors is the
// worker's private copy of its offset row and is advanced in place. The writes
// are strictly sequential per (worker, partition) sub-range, which is the
// property that makes the phase latch-free and cache-coherency friendly.
func Scatter(chunk []relation.Tuple, cfg RadixConfig, sp SplitterVector, targets [][]relation.Tuple, cursors []int) {
	for _, t := range chunk {
		p := sp[cfg.Cluster(t.Key)]
		targets[p][cursors[p]] = t
		cursors[p]++
	}
}

// ScatterExplicitBounds is the comparison-based alternative to Scatter used as
// the right-hand baseline of Figure 9: instead of a radix shift, the partition
// of each tuple is found by binary searching a vector of explicit partition
// bound keys. bounds[p] is the exclusive upper key bound of partition p; the
// last partition absorbs everything above bounds[len(bounds)-2].
func ScatterExplicitBounds(chunk []relation.Tuple, bounds []uint64, targets [][]relation.Tuple, cursors []int) {
	for _, t := range chunk {
		p := searchBound(bounds, t.Key)
		targets[p][cursors[p]] = t
		cursors[p]++
	}
}

// BuildHistogramExplicitBounds counts tuples per partition using explicit
// bounds instead of a radix shift (comparison-based, Figure 9 baseline).
func BuildHistogramExplicitBounds(tuples []relation.Tuple, bounds []uint64) Histogram {
	h := make(Histogram, len(bounds))
	for _, t := range tuples {
		h[searchBound(bounds, t.Key)]++
	}
	return h
}

// searchBound returns the index of the first bound that is strictly greater
// than key; keys beyond all bounds fall into the last partition.
func searchBound(bounds []uint64, key uint64) int {
	lo, hi := 0, len(bounds)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if key < bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
