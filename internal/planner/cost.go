package planner

import (
	"math"

	"repro/internal/exec"
	"repro/internal/sched"
	"repro/internal/stats"
)

// CostModel prices one join execution per algorithm as
//
//	produce(algorithm, inputs) + deliver(the algorithm's output shape → consumer)
//
// because since the merge kernel emits ranges the second term decides more
// joins than the first. B- and P-MPSM hand their consumer one range entry per
// private key group and public run, key-ordered within every (private run,
// public run) pair; the hash joins hand over pairs in probe order. A consumer
// that folds range entries (the max-sum and count sinks, the group-by kernel
// over a projection it knows by name) therefore does no per-pair work behind
// an MPSM join and finalises one entry per key group and run instead of one
// per probe tuple.
//
// Constants are committed, not calibrated at start-up, so a template plans
// the same on every launch. All are nanoseconds of one worker unless they say
// otherwise, read on the reference sandbox (2 vCPUs) at commit 5c36d48 plus
// the prefix-sum splitter search, the hash-join constants again with the one
// chained table of internal/hashjoin: where one of the frozen benchmark's
// per-layer probes measures the quantity the comment names the probe and the
// workload it was read on; the others name the forced-plan driver, which runs
// query_mix's chain3 and agg2 plans under every algorithm combination
// (workers 1 and 2, pooled, interleaved; medians in CHANGES.md, PR 18).
type CostModel struct {
	// SortPerTuple prices run generation (the packed column sort) per tuple
	// of a run that stays cache-resident: sorting.columns_ns_per_tuple on
	// query_mix, a 131 072-tuple run, 14.2. Beyond SortCacheTuples per run
	// SortMissPerTuple phases in: the same probe on join_large's
	// 1 048 576-tuple run reads 26.8.
	SortPerTuple     float64
	SortMissPerTuple float64
	SortCacheTuples  float64
	// CopyPerTuple prices run generation when the chunk is verified
	// presorted: a linear check plus the split into columns. Forced-plan
	// driver, B-MPSM phases 1–2 over sorted 2^18 × 2^20 inputs, 3.1.
	CopyPerTuple float64
	// MergePerTuple prices one tuple scanned by the merge kernel, emitting
	// and folding its range entries included: mergejoin.columns_ns_per_tuple
	// on join_large, 8.7 (6.0 on query_mix, 5.4 on short_concurrent).
	MergePerTuple float64
	// HistogramPerTuple and ScatterPerTuple price P-MPSM's range partitioning
	// of the private input — and, per entry, the scatter of a group-by kernel
	// with more than one writer: partition.histogram_ns_per_tuple (1.1–1.9
	// over the four workloads) and partition.scatter_ns_per_tuple (4.5–5.5).
	HistogramPerTuple float64
	ScatterPerTuple   float64
	// SplitterFixed is P-MPSM's splitter search and prefix sums, independent
	// of the input size: core.pmpsm_phase2_ms on short_concurrent less the
	// histogram and scatter of its 4 096 tuples, 0.08 ms after this change's
	// prefix-sum search (0.55 ms before it).
	SplitterFixed float64
	// BarrierFixed is what one phase barrier costs a join that runs on more
	// than one worker, beyond the work of the phase: core.bmpsm_total_ms and
	// hashjoin.*_total_ms on short_concurrent (0.37, 0.27, 0.26 ms for three,
	// two and two barriers) against the same joins on one worker.
	BarrierFixed float64
	// ParallelEfficiency is the share of an added worker that shows as speed:
	// t workers run a parallel phase 1 + (t−1)·ParallelEfficiency times as
	// fast as one. core.pmpsm_speedup_nproc reads 1.51–1.85 at two workers on
	// an otherwise idle process and 0.59 on short_concurrent; whole plans in
	// the forced-plan driver, interleaved with others, gain 1.04–1.35. Read at
	// two workers on two vCPUs — as is B-MPSM's ×T/speedup merge term below —
	// and only extrapolated beyond: which algorithm the model ranks first at
	// more than two workers has not been measured on any host.
	ParallelEfficiency float64

	// HashOpPerTuple prices one operation on the chained table of the
	// no-partitioning join — an insert, a lookup, or walking the chain to one
	// match and appending it to the output columns of a folding sink — while
	// the table is cache-resident; HashMissPerTuple phases in beyond
	// HashCacheTuples build tuples (a build tuple takes 52 bytes of table:
	// itself, 8 bucket heads and a chain link). Read through this model's own
	// two-worker terms from hashjoin.wisconsin_total_ms: 0.22 ms on
	// short_concurrent (4 096 × 16 384, 5.0 per operation), 4.8 ms on
	// query_mix (65 536 × 262 144, 10.5), 39 ms on join_large (524 288 ×
	// 2 097 152, 10.8). The same joins on one worker take 0.15, 4.6–5.2 and
	// 68–73 ms (4.1, 8.3 and 15 per operation): the real ramp is longer than
	// three doublings, and the constants follow the two-worker readings,
	// which is how the gate runs.
	HashOpPerTuple   float64
	HashMissPerTuple float64
	HashCacheTuples  float64
	// RadixPerTuple prices one tuple through the radix join's partitioning
	// passes and the build or probe of its cluster; RadixMissPerTuple phases
	// in beyond RadixCacheTuples tuples on both sides together, and
	// RadixHitPerMatch is one match handed to a folding sink.
	// hashjoin.radix_total_ms: 0.33 ms on short_concurrent, 7.1 on query_mix,
	// 41.8 on join_large — 0.36, 7.9 and 41.7 with the private table this
	// join had to itself before, which is inside the probe's spread:
	// partitioning is most of this join, so the constants stand. A match
	// appended to the output columns and folded reads nearer 2 than 4 on its
	// own; no whole-join reading resolves that, and a Radix HJ 0.5 ms cheaper
	// takes chain3's first join from P-MPSM on two of three generator seeds
	// (see Resolution).
	RadixPerTuple     float64
	RadixMissPerTuple float64
	RadixCacheTuples  float64
	RadixHitPerMatch  float64
	// CacheGrowthLog2 is the number of size doublings over which the three
	// miss terms phase in.
	CacheGrowthLog2 float64

	// PairPerMatch prices forming one pair out of a range entry for a
	// consumer that takes none — Collect feeding the next join, a user sink,
	// the group-by kernel over an opaque projection. Forced-plan driver,
	// B-MPSM's match phase into Collect against the same join into max-sum,
	// 262 144 pairs, 8.
	PairPerMatch float64
	// RadixPairPerMatch and WisconsinPairPerMatch are what a hash join's match
	// costs beyond the hit when the consumer is not one of the folding sinks:
	// the projection, the consumer's buffer and — in the no-partitioning join —
	// that buffer competing with the shared table for the cache. They are
	// whole-plan residuals, not kernel readings: agg2 forced onto the join
	// (two workers, pooled, interleaved), join time less the group-by's
	// finalisation less the operations priced above, reads 28 per match for
	// Wisconsin, where the probe phase of the join alone into Collect or
	// Groups against the same join into max-sum reads 3–14 for either join.
	// The old reading (Radix HJ 13–16, Wisconsin 30–60) included a per-match
	// call into a probe batch, about 3, that no longer exists; the constants
	// stay, because at 27 agg2's join at eight workers goes to Wisconsin on
	// one of three generator seeds and to P-MPSM on the others.
	RadixPairPerMatch     float64
	WisconsinPairPerMatch float64
	// GroupFinalPerEntry prices sorting, folding and concatenating one
	// (key, partial) entry in the group-by kernel's finalisation; the entries
	// of more than one writer pay HistogramPerTuple + ScatterPerTuple on top.
	// Forced-plan driver, exec.AggTimes of agg2 and chain3 (pooled, two
	// workers): 22–33 per entry; sink.groupagg_ns_per_tuple, which folds,
	// scatters and finalises b unpooled, reads 36–81.
	GroupFinalPerEntry float64

	// Resolution is the relative cost difference the model does not resolve:
	// candidates within it of the cheapest are a tie, which goes to the first
	// in candidate order (P-MPSM, B-MPSM, Wisconsin, Radix HJ), so that a
	// template plans the same over every sample of its data instead of
	// following the cardinality estimate's noise. The case it is sized on is
	// chain3's first join, 65 536 × 262 144 into Collect, whose estimate reads
	// 203–305 k rows over generator seeds 1–3 (actual 262 k) and whose
	// P-MPSM and Radix HJ costs cross inside that range (−8 %…+5 %).
	// Forced-plan driver, two workers, 80 interleaved rounds, whole chain3
	// plan by (first, second) join: P/P 24.9, B/B 25.6, Radix/P 23.9, Radix/B
	// 22.0 ms, quartiles ±2.5 — a tie on the clock as well.
	Resolution float64

	// DiskPerTuple is D-MPSM's extra per-tuple cost for page management on
	// top of the B-MPSM data flow (excluding configured simulated
	// latencies). Carried over: D-MPSM is only ever the sole candidate.
	DiskPerTuple float64
	// TieBreakPerMatch prices verifying one candidate pair of a
	// normalized-key tie-break join: two metadata loads plus a full-key
	// bytes.Equal and the payload rewrite. It applies to every emitted
	// candidate, scaled up by the sampled prefix-collision rate (collisions
	// produce candidates that verify and then vanish). Carried over: the
	// surcharge is the same for every algorithm.
	TieBreakPerMatch float64
}

// DefaultCostModel returns the model measured on the reference sandbox.
func DefaultCostModel() CostModel {
	return CostModel{
		SortPerTuple:          14,
		SortMissPerTuple:      13,
		SortCacheTuples:       1 << 17,
		CopyPerTuple:          3,
		MergePerTuple:         8.7,
		HistogramPerTuple:     1.5,
		ScatterPerTuple:       5,
		SplitterFixed:         80e3,
		BarrierFixed:          40e3,
		ParallelEfficiency:    0.3,
		HashOpPerTuple:        5,
		HashMissPerTuple:      6,
		HashCacheTuples:       1 << 13,
		RadixPerTuple:         14,
		RadixMissPerTuple:     10,
		RadixCacheTuples:      1 << 17,
		RadixHitPerMatch:      4,
		CacheGrowthLog2:       3,
		PairPerMatch:          8,
		RadixPairPerMatch:     14,
		WisconsinPairPerMatch: 30,
		GroupFinalPerEntry:    24,
		Resolution:            0.1,
		DiskPerTuple:          6,
		TieBreakPerMatch:      18,
	}
}

// Consumer describes what takes a join's output, as far as delivering to it
// costs differently per output shape.
type Consumer struct {
	// Folds reports a consumer that takes merge output a range entry at a
	// time: the built-in max-sum and count sinks and the group-by kernel over
	// a projection it knows by name (sink.Value). Everything else — Collect
	// feeding the next operator, a user sink, a group-by over a closure —
	// has every pair formed.
	Folds bool
	// Groups reports a group-by kernel, which finalises one entry per run of
	// equal keys its writers saw.
	Groups bool
}

// missFraction is the cache-miss ramp of a structure of the given size
// against the size that still fits the fast cache levels.
func (c CostModel) missFraction(size, cached float64) float64 {
	if size <= cached {
		return 0
	}
	return math.Min(1, (math.Log2(size)-math.Log2(cached))/c.CacheGrowthLog2)
}

// speedup is how much faster t workers run a parallel phase than one.
func (c CostModel) speedup(t float64) float64 { return 1 + (t-1)*c.ParallelEfficiency }

// runGen prices sorting n tuples into t runs, or verifying+copying them when
// they are declared (and actually) presorted.
func (c CostModel) runGen(n, t float64, presorted bool) float64 {
	if presorted {
		return c.CopyPerTuple * n
	}
	return (c.SortPerTuple + c.SortMissPerTuple*c.missFraction(n/t, c.SortCacheTuples)) * n
}

// joinInputs captures the cost-relevant features of one join's inputs.
type joinInputs struct {
	build, probe     float64 // cardinalities (build = private, probe = public)
	matches          float64 // estimated join cardinality
	groups           float64 // estimated distinct keys of the join's output
	presortedBuild   bool    // build side passes the presortedness probe
	presortedProbe   bool
	workers          int
	static           bool    // the match phase runs under static scheduling
	simulatedLatency float64 // configured D-MPSM per-tuple latency, ns
	tieBreak         bool    // inputs carry inexact normalized keys
	collision        float64 // sampled prefix-collision rate of the inputs
}

// emitsRanges reports the algorithms whose output is range entries over
// key-ordered runs; the hash joins emit pairs in probe order.
func emitsRanges(alg exec.Algorithm) bool {
	return alg == exec.AlgorithmPMPSM || alg == exec.AlgorithmBMPSM
}

// Estimate returns the modelled wall-clock cost (in nanoseconds) of one join
// under the given algorithm, delivered to the given consumer. Parallel phases
// divide by the measured speedup of the worker count; B-MPSM's join phase
// deliberately does not divide the public scan, which is the
// O(|S|)-per-worker complexity the paper trades for skew immunity.
func (c CostModel) Estimate(alg exec.Algorithm, in joinInputs, to Consumer) float64 {
	cost := c.produce(alg, in) + c.deliver(alg, in, to)
	if in.tieBreak {
		// Every emitted candidate passes the full-key verifier, and prefix
		// collisions inflate the candidate stream beyond the true matches.
		// The surcharge is algorithm-independent (the verifier sits at the
		// sink boundary), so it shifts absolute costs without distorting the
		// ranking — exactly the behaviour the fast-path/tie-break split
		// needs.
		cost += c.TieBreakPerMatch * in.matches * (1 + in.collision) / c.speedup(float64(max(1, in.workers)))
	}
	return cost
}

// produce is the cost of running the join up to the point where a match is
// known: sorting, partitioning and scanning, or building and probing.
func (c CostModel) produce(alg exec.Algorithm, in joinInputs) float64 {
	t := float64(max(1, in.workers))
	par := c.speedup(t)
	n, m := in.build, in.probe
	barriers := func(phases float64) float64 {
		if t == 1 {
			return 0
		}
		return phases * c.BarrierFixed
	}
	switch alg {
	case exec.AlgorithmBMPSM:
		sort := (c.runGen(m, t, in.presortedProbe) + c.runGen(n, t, in.presortedBuild)) / par
		// Every worker re-scans its n/T private run once per public run (T
		// of them) and scans the whole public input, all T at once. Morsels
		// enter a public run by search instead, and the chunks of presorted
		// inputs cover one key range each: they find one public run's worth.
		merge := c.MergePerTuple * (n + m) * t / par
		if !in.static && in.presortedBuild && in.presortedProbe {
			merge /= t
		}
		return sort + merge + barriers(3)
	case exec.AlgorithmPMPSM:
		// The partitions of the private input are sorted whatever order it
		// arrived in; only the public side can skip its sort.
		sort := (c.runGen(m, t, in.presortedProbe) + c.runGen(n, t, false)) / par
		partition := (c.HistogramPerTuple+c.ScatterPerTuple)*n/par + c.SplitterFixed
		merge := c.MergePerTuple * (n + m) / par
		return sort + partition + merge + barriers(7)
	case exec.AlgorithmDMPSM:
		return c.produce(exec.AlgorithmBMPSM, in) + (c.DiskPerTuple+in.simulatedLatency)*(n+m)/par
	case exec.AlgorithmWisconsin:
		op := c.HashOpPerTuple + c.HashMissPerTuple*c.missFraction(n, c.HashCacheTuples)
		return op*(n+m+in.matches)/par + barriers(2)
	case exec.AlgorithmRadix:
		perTuple := c.RadixPerTuple + c.RadixMissPerTuple*c.missFraction(n+m, c.RadixCacheTuples)
		return (perTuple*(n+m)+c.RadixHitPerMatch*in.matches)/par + barriers(3)
	default:
		return math.Inf(1)
	}
}

// deliver is the cost of getting the algorithm's output shape into the
// consumer, the consumer's own finalisation included.
func (c CostModel) deliver(alg exec.Algorithm, in joinInputs, to Consumer) float64 {
	t := float64(max(1, in.workers))
	par := c.speedup(t)
	ranges := emitsRanges(alg)
	cost := 0.0
	switch {
	case ranges && !to.Folds:
		cost = c.PairPerMatch * in.matches / par
	case alg == exec.AlgorithmWisconsin && (to.Groups || !to.Folds):
		cost = c.WisconsinPairPerMatch * in.matches / par
	case alg == exec.AlgorithmRadix && (to.Groups || !to.Folds):
		cost = c.RadixPairPerMatch * in.matches / par
	}
	if to.Groups {
		// Entries: one per private key group and public run behind a range
		// kernel the group-by folds; one per probe tuple with a partner
		// behind a hash join, whose probe loop emits a key's matches back to
		// back; anything up to one per pair behind a closure.
		entries := in.matches
		switch {
		case ranges && to.Folds:
			entries = math.Min(entries, in.groups*t)
		case !ranges:
			entries = math.Min(entries, in.probe)
		}
		// One writer's buffer is the one partition; several writers' entries
		// are histogrammed and scattered first.
		perEntry := c.GroupFinalPerEntry
		if t > 1 {
			perEntry += c.HistogramPerTuple + c.ScatterPerTuple
			cost += 4 * c.BarrierFixed
		}
		cost += perEntry * entries / par
	}
	return cost
}

// AlgorithmCost is one algorithm's modelled cost, for Explain output.
type AlgorithmCost struct {
	Algorithm exec.Algorithm
	// Millis is the modelled wall-clock cost in milliseconds, delivery to the
	// join's consumer included.
	Millis float64
	// Eligible is false when constraints (join kind, band, disk budget)
	// exclude the algorithm regardless of cost.
	Eligible bool
}

// inputsFor assembles the cost-model features from the two input profiles.
func inputsFor(build, probe *stats.Profile, matches, groups float64, c Constraints, mode sched.Mode) joinInputs {
	return joinInputs{
		build:            float64(build.Tuples),
		probe:            float64(probe.Tuples),
		matches:          matches,
		groups:           groups,
		presortedBuild:   build.LikelySorted(),
		presortedProbe:   probe.LikelySorted(),
		workers:          normWorkers(c.Workers),
		static:           mode == sched.Static,
		simulatedLatency: c.LatencyNs,
		tieBreak:         build.KeyTieBreak || probe.KeyTieBreak,
		collision:        math.Max(build.PrefixCollisionRate, probe.PrefixCollisionRate),
	}
}
