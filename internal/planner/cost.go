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
// public run) pair; the hash joins hand over one entry per matching probe
// tuple (its build matches × the tuple) in probe order, except to the max-sum
// and count sinks, whose (count, max) their probe loop keeps itself. A consumer that folds range entries (the max-sum and count sinks,
// the group-by kernel over a projection it knows by name) therefore does no
// per-pair work behind an MPSM join and finalises one entry per key group and
// run instead of one per probe tuple.
//
// Constants are committed, not calibrated at start-up, so a template plans
// the same on every launch. All are nanoseconds of one worker unless they say
// otherwise, read on the reference sandbox (2 vCPUs): where one of the frozen
// benchmark's per-layer probes measures the quantity the comment names the
// probe and the workload it was read on; "the ladder" is
// TestWorkerLadderMeasured, every algorithm on |R| × 4|R| foreign-key joins at
// |R| = 4 096, 16 384, 65 536, 131 072, 262 144 and 524 288 into the max-sum
// sink, on one and on two workers (pooled, interleaved, medians of 15, the
// phase times from Result.Phases); the others name the forced-plan driver,
// which runs query_mix's chain3 and agg2 plans under every algorithm
// combination (workers 1 and 2, pooled, interleaved; medians in CHANGES.md,
// PR 18).
//
// The time of a join is priced per worker count, because the worker count is
// a decision (EfficiencyFloor): every phase divides its work by its own
// speed-up, 1 + (t−1)·share, the share of a worker that an added worker
// returns on that phase, and a join on more than one worker pays BarrierFixed
// per phase on top. Those shares were read at two workers on two vCPUs and
// are only extrapolated beyond: what the model says at more than two workers
// has not been measured on any host.
type CostModel struct {
	// SortPerTuple prices run generation (the packed column sort) per tuple
	// of a run that stays cache-resident: sorting.columns_ns_per_tuple on
	// query_mix, a 131 072-tuple run, 14.2. Beyond SortCacheTuples per run
	// SortMissPerTuple phases in: the same probe on join_large's
	// 1 048 576-tuple run reads 26.8. The ladder's phase 1 on one worker, one
	// run of the whole public input, agrees: 14.2–15.6 up to 262 144 tuples,
	// 20.4, 23.7 and 25.5 at 2^19, 2^20 and 2^21. Where key and payload fit
	// one sort word together the packed sort carries the payload and gathers
	// nothing: on join_large, whose payloads are below 2^20, the probe reads
	// 26.0 (32.6 carrying positions) and P-MPSM's phase 1, a 2^20-tuple run
	// per worker on two workers, 31.1 ns a tuple (34.7), medians of four
	// traced runs on a 2-vCPU Xeon. The ladder's 64-bit payloads still carry
	// positions, so the constants stay where the ladder put them.
	SortPerTuple     float64
	SortMissPerTuple float64
	SortCacheTuples  float64
	// CopyPerTuple prices run generation when the chunk is verified
	// presorted: a linear check plus the split into columns. Forced-plan
	// driver, B-MPSM phases 1–2 over sorted 2^18 × 2^20 inputs, 3.1.
	CopyPerTuple float64
	// MergePerTuple prices one tuple scanned by the merge kernel, emitting
	// and folding its range entries included: mergejoin.columns_ns_per_tuple
	// on join_large, 8.7 (6.0 on query_mix, 5.4 on short_concurrent); the
	// ladder's match phase on one worker, the max-sum fold included, reads
	// 9.8–10.4 at every rung.
	MergePerTuple float64
	// HistogramPerTuple and ScatterPerTuple price P-MPSM's range partitioning
	// of the private input — and, per entry, the scatter of a group-by kernel
	// with more than one writer: partition.histogram_ns_per_tuple (1.1–1.9
	// over the four workloads) and partition.scatter_ns_per_tuple (4.5–5.5).
	HistogramPerTuple float64
	ScatterPerTuple   float64
	// SplitterFixed is P-MPSM's splitter search and prefix sums over several
	// workers' histograms, independent of the input size:
	// core.pmpsm_phase2_ms on short_concurrent less the histogram and scatter
	// of its 4 096 tuples, 0.08 ms. One worker has nothing to search: the
	// ladder's first rung reads 0.04 ms for the whole phase on one worker and
	// 0.12–0.13 on two.
	SplitterFixed float64
	// BarrierFixed is what one phase costs a join that runs on more than one
	// worker, beyond the work of the phase — mostly waking the other worker:
	// core.bmpsm_total_ms and hashjoin.*_total_ms on short_concurrent (0.37,
	// 0.27, 0.26 ms for three, two and two barriers) against the same joins on
	// one worker. The ladder's first rung, where the work is smallest, reads
	// the same: P-MPSM 0.52–0.55 → 0.69–0.72 ms, B-MPSM 0.45–0.50 →
	// 0.54–0.57, Wisconsin 0.16 → 0.21–0.22 with seven, three and two of them.
	BarrierFixed float64

	// ParallelCached and ParallelMemory are the share of a worker that an
	// added worker returns on a phase with a cache ramp — run generation, the
	// no-partitioning join's build and probe, the radix join — while its
	// working set is cache-resident and once it waits for memory; in between
	// the share follows the phase's miss fraction. The sandbox's two vCPUs
	// behave like two threads of one core: work that keeps the core busy
	// gains little from the second, work that waits for memory nearly all of
	// it. The ladder: sorting the public input in two cache-resident runs
	// takes 0.78–0.83 of the time of one run twice as long (rungs 16 384 and
	// 65 536, a share of 0.2–0.3), in two 1 048 576-tuple runs 0.50–0.55
	// (rung 524 288, with the shorter runs' cheaper tuples 0.7–0.8 of it);
	// Wisconsin's probe goes 1.0–1.1× on two workers at the first two rungs
	// and 1.83–2.0× at the last two; the radix join 1.80–1.99× from rung
	// 131 072 up.
	ParallelCached, ParallelMemory float64
	// MergeParallel is the added worker's share on the match phase, whose
	// work is not the same at every worker count: a P-MPSM worker scans its
	// partition of the private input once per public run — the private input
	// is scanned T times over all — and its key range of the public input; a
	// B-MPSM worker all of the public input. Against that work the ladder's
	// B-MPSM match phase takes the same time on two workers as on one
	// (27.1–27.5 → 25.3–26.1 ms at the last rung: twice the work, both
	// workers at full speed) and P-MPSM's 27.2–27.5 → 19.2–19.7 (3/5 of the
	// scans per worker for 0.71 of the time). Delivering pairs (PairPerMatch)
	// and copying a presorted chunk stream the same way and share it: Collect
	// behind the 65 536 × 262 144 join costs 2.3–3.0 ms on one worker and
	// 1.2–1.5 on two.
	MergeParallel float64
	// PartitionParallel is the share on P-MPSM's histogram and scatter of the
	// private input: the ladder's phase 2 less SplitterFixed and its barriers,
	// 4.5–5.0 → 2.7–3.3 ms at the last rung and within 0.1 ms of no gain below
	// rung 262 144.
	PartitionParallel float64
	// GroupFinalParallel is the share on the group-by kernel's finalisation
	// with several writers (see GroupFinalPerEntry).
	GroupFinalParallel float64
	// HashSharedInsert is what an insert into the no-partitioning join's
	// table costs more when several workers build it: they insert with
	// compare-and-swap, which shows while the bucket heads they contend for
	// sit in a cache — a cache's worth of build tuples at most. The ladder's
	// build phase at rung 16 384: 0.036–0.042 ms on one worker, 0.18–0.19 on
	// two (less one barrier: 6 ns a tuple on the clock, 12 of a worker's
	// time); 0.30–0.39 → 0.63–0.68 at rung 65 536, and faster on two workers
	// than on one from rung 131 072 up.
	HashSharedInsert float64
	// EfficiencyFloor is the share of a worker every added worker must return
	// for a join to be given it: the planner prices a join on one worker and
	// at each doubling up to its bound and keeps a doubling only if the join's
	// speed, in units of its speed on one worker, rises by this much per
	// worker added. Policy, not measurement: a second worker that returns less
	// than half a worker is worth more to the next query — under nproc
	// closed-loop clients every core has one waiting. At one worker → two the
	// time must fall to 1/1.5. Not an Option, flag or environment variable.
	EfficiencyFloor float64

	// HashOpPerTuple prices one operation on the chained table of the
	// no-partitioning join — an insert, a lookup, or walking the chain to one
	// match and folding it into the probe loop's (count, max) behind a folding
	// sink — while the table is cache-resident; HashMissPerTuple phases in beyond
	// HashCacheTuples build tuples (a build tuple takes 52 bytes of table:
	// itself, 8 bucket heads and a chain link). Read on one worker, which is
	// how the gate's joins run since the worker count is planned: the
	// ladder's Wisconsin totals over |R| + |S| + matches operations, 4.4, 4.6,
	// 6.8–7.6, 9.3, 11.3 and 12.9 per operation from rung 4 096 to 524 288
	// (0.16, 0.68–0.73, 4.0–4.8, 10.4–13.1, 26.8–30.9 and 60.9–69.6 ms) — a
	// ramp of four doublings from 2^15 build tuples. Two workers follow from
	// the parallel terms: hashjoin.wisconsin_total_ms reads 0.22 ms on
	// short_concurrent (modelled 0.24), 4.8 on query_mix (3.1–3.6 in the
	// ladder, 3.2) and 39 on join_large (33–36, 34). These readings are of a
	// probe loop that still appended every match to three output columns; the
	// loop that folds is cheaper per match, and the constants were not refitted
	// to it: ExplainAnalyze of the 4 096 × 16 384 join into the max-sum sink,
	// one worker, pooled, reads est_ms 0.157 against a median ms of 0.132 with
	// the column loop and 0.089 with the fold (2-vCPU Xeon host). Over a build
	// whose keys are distinct, as that join's are, every probe walk now ends
	// at its first match: the same reading, three interleaved rounds of 1 000
	// joins on a day the host ran about half as fast, is est_ms 0.158 against
	// 0.194–0.211 ms walking every chain to its end and 0.172–0.175 with the
	// exit — 0.85 of the time, so the model over-prices that probe by more
	// than before. The constants stay as read, so no plan moves; re-pricing
	// the hash joins is left to a refit of the whole model.
	HashOpPerTuple   float64
	HashMissPerTuple float64
	HashCacheTuples  float64
	// RadixPerTuple prices one tuple through the radix join's partitioning
	// and the build or probe of its cluster; RadixMissPerTuple phases
	// in beyond RadixCacheTuples tuples on both sides together, and
	// RadixHitPerMatch is one match handed to a folding sink. Read on one
	// worker from the ladder's Radix HJ totals less the matches: 11.5, 11.1,
	// 17.6, 18.5, 19.4 and 19.6 per tuple (0.30, 1.17, 6.8–7.9, 14.2–16.3,
	// 29.7–32.9 and 59.8–65.1 ms). hashjoin.radix_total_ms, on two workers,
	// reads 0.33 ms on short_concurrent (modelled 0.35), 7.1 on query_mix
	// (4.1–4.8 in the ladder, 4.0) and 41.8 on join_large (30–36, 32). A match
	// appended to the output columns and folded read nearer 2 than 4 on its
	// own; no whole-join reading resolves that. All of it was read before the
	// probe loop kept (count, max) itself, which is cheaper per match and not
	// refitted (see HashOpPerTuple), and while the join still cut 2^4
	// partitions and more in two passes. One pass takes 0.71–0.98 of their
	// partition phase at 2^8–2^14 partitions; the constants stay as read, so
	// no plan moves, and re-pricing the radix join is left to a refit of the
	// whole model.
	RadixPerTuple     float64
	RadixMissPerTuple float64
	RadixCacheTuples  float64
	RadixHitPerMatch  float64
	// CacheGrowthLog2 is the number of size doublings over which the three
	// miss terms phase in: four, by the one-worker ladder of the
	// no-partitioning join above (three fitted its two-worker readings, which
	// are flatter because the parallel share rises with the misses).
	CacheGrowthLog2 float64

	// PairPerMatch prices handing one match to a consumer that folds no range
	// entries — Collect feeding the next join, a user sink, behind an MPSM
	// join also the group-by kernel over an opaque projection — whatever the
	// join: the pair is formed (out of a range entry, or out of the probe
	// loop's output columns) and written. The 65 536 × 262 144 join
	// into Collect against the same join into max-sum, one worker, 262 144
	// pairs: 11 per match behind P-MPSM, 9 behind B-MPSM and Wisconsin, 10.5
	// behind Radix HJ.
	PairPerMatch float64
	// RadixPairPerMatch and WisconsinPairPerMatch are what a hash join's match
	// costs beyond the hit when a group-by kernel consumes it: the projection,
	// the writer's fold and buffer and — in the no-partitioning join — that
	// buffer competing with the shared table for the cache. They are
	// whole-plan residuals, not kernel readings: agg2 forced onto the join
	// (two workers, pooled, interleaved), join time less the group-by's
	// finalisation less the operations priced above, reads 28 per match for
	// Wisconsin, where the probe phase of the join alone into Groups against
	// the same join into max-sum reads 3–14 for either join. The constants
	// stay, because at 27 agg2's join goes to Wisconsin on one of three
	// generator seeds and to P-MPSM on the others; on one worker the forced
	// agg2 plans take 8.3–8.8 ms on the MPSM variants, 10.0–10.2 on Wisconsin
	// and 12.7–12.9 on Radix HJ (modelled 8.0–8.3, 11.1, 11.6).
	RadixPairPerMatch     float64
	WisconsinPairPerMatch float64
	// GroupFinalPerEntry prices sorting, folding and concatenating one
	// (key, partial) entry in the group-by kernel's finalisation; the entries
	// of more than one writer pay HistogramPerTuple + ScatterPerTuple on top,
	// divide by GroupFinalParallel's speed-up and cost four barriers.
	// Forced-plan driver, exec.AggTimes of agg2, chain3 and band on two
	// workers (pooled): 1.27, 1.97 and 1.13 ms for 67 k, 131 k and 65 k
	// entries, 15–19 per entry on the clock, which is 30.5 of a worker's time
	// at a share of 0.8; sink.groupagg_ns_per_tuple, which folds, scatters and
	// finalises b unpooled, reads 36–81.
	GroupFinalPerEntry float64
	// GroupOrderedPerEntry is the same finalisation with one writer behind a
	// range kernel: the writer's buffer is the one partition and its entries
	// arrive in key order, so they are deinterleaved and folded, not sorted.
	// The same three plans on one worker: 0.41, 0.80 and 0.19 ms for 33 k,
	// 65 k and 33 k entries — 12, 12 and 6 per entry.
	GroupOrderedPerEntry float64

	// Resolution is the relative cost difference the model does not resolve:
	// candidates within it of the cheapest are a tie, which goes to the first
	// in candidate order (P-MPSM, B-MPSM, Wisconsin, Radix HJ), so that a
	// template plans the same over every sample of its data instead of
	// following the cardinality estimate's noise. The case it is sized on is
	// chain3's first join, 65 536 × 262 144 into Collect, whose estimate reads
	// 203–305 k rows over generator seeds 1–3 (actual 262 k): a tenth is what
	// that moves a cost by. On one worker every join under a folding consumer
	// is such a tie between B-MPSM and P-MPSM — the same phases plus the
	// partitioning of the private input, 4–10 % on the clock — and goes to
	// P-MPSM unless the partitioning is more of the join than that.
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
		ParallelCached:        0.25,
		ParallelMemory:        0.87,
		MergeParallel:         0.8,
		PartitionParallel:     0.3,
		GroupFinalParallel:    0.8,
		HashSharedInsert:      12,
		GroupOrderedPerEntry:  12,
		EfficiencyFloor:       0.5,
		HashOpPerTuple:        4.5,
		HashMissPerTuple:      9,
		HashCacheTuples:       1 << 15,
		RadixPerTuple:         11,
		RadixMissPerTuple:     8.5,
		RadixCacheTuples:      1 << 16,
		RadixHitPerMatch:      4,
		CacheGrowthLog2:       4,
		PairPerMatch:          10,
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
	// Folds reports a consumer that forms no pair: the built-in max-sum and
	// count sinks (sink.FoldsRanges; Folds without Groups), into which every
	// inner equi-join's merge or probe loop folds (Shape.Folded) and every
	// other join's range entries fold whole, and the group-by kernel over a
	// projection it knows by name (sink.Value), which folds range entries.
	// Everything else — Collect feeding the next operator, a user sink, a
	// group-by over a closure — has every pair formed.
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

// speedup is how much faster t workers run a phase than one, when an added
// worker returns the given share of a worker.
func speedup(t, share float64) float64 { return 1 + (t-1)*share }

// rampSpeedup is speedup for a phase with a cache ramp: the added worker's
// share moves from ParallelCached to ParallelMemory with the miss fraction.
func (c CostModel) rampSpeedup(t, miss float64) float64 {
	return speedup(t, c.ParallelCached+(c.ParallelMemory-c.ParallelCached)*miss)
}

// runGen prices sorting n tuples into t runs on t workers, or verifying and
// copying them when they are declared (and actually) presorted.
func (c CostModel) runGen(n, t float64, presorted bool) float64 {
	if presorted {
		return c.CopyPerTuple * n / speedup(t, c.MergeParallel)
	}
	miss := c.missFraction(n/t, c.SortCacheTuples)
	return (c.SortPerTuple + c.SortMissPerTuple*miss) * n / c.rampSpeedup(t, miss)
}

// groupJoin prices a groupjoin on t workers whose driver has n tuples and d
// distinct keys, probed by the other leaves' tuples: run generation of the
// driver on one worker, an insert per distinct key, a hash operation per probe
// tuple on the table of d entries with its cache ramp — divided among the
// workers as the no-partitioning join's probe is — and per group the
// finalisation of one writer whose entries arrive in key order, as the
// table's do. On more than one worker every phase (the build and one probe per
// other leaf) costs a barrier, and every added worker's accumulators are
// merged per entry and probing leaf in a linear pass, priced as copying a
// presorted chunk is.
func (c CostModel) groupJoin(n, d, probes, groups float64, leaves, t int) float64 {
	miss := c.missFraction(d, c.HashCacheTuples)
	op := c.HashOpPerTuple + c.HashMissPerTuple*miss
	cost := c.runGen(n, 1, false) + op*d + op*probes/c.rampSpeedup(float64(t), miss) + c.GroupOrderedPerEntry*groups
	if t > 1 {
		cost += float64(leaves)*c.BarrierFixed + float64((t-1)*(leaves-1))*c.CopyPerTuple*d
	}
	return cost
}

// joinInputs captures the cost-relevant features of one join's inputs.
type joinInputs struct {
	build, probe     float64 // cardinalities (build = private, probe = public)
	matches          float64 // estimated join cardinality
	groups           float64 // estimated distinct keys of the join's output
	presortedBuild   bool    // build side passes the presortedness probe
	presortedProbe   bool
	workers          int     // the worker count being priced
	static           bool    // the match phase runs under static scheduling
	simulatedLatency float64 // configured D-MPSM per-tuple latency, ns
	tieBreak         bool    // inputs carry inexact normalized keys
	collision        float64 // sampled prefix-collision rate of the inputs
}

// emitsRanges reports the algorithms whose output is range entries over
// key-ordered runs, one per key group: B-, P- and D-MPSM, whose page joins
// run the same range kernel; the hash joins emit one entry per matching
// probe tuple, in probe order, and are priced per pair.
func emitsRanges(alg exec.Algorithm) bool {
	return alg == exec.AlgorithmPMPSM || alg == exec.AlgorithmBMPSM || alg == exec.AlgorithmDMPSM
}

// Estimate returns the modelled wall-clock cost (in nanoseconds) of one join
// under the given algorithm on in.workers workers, delivered to the given
// consumer. Every phase divides by its own speed-up; B-MPSM's join phase
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
		cost += c.TieBreakPerMatch * in.matches * (1 + in.collision) / speedup(float64(max(1, in.workers)), c.MergeParallel)
	}
	return cost
}

// produce is the cost of running the join up to the point where a match is
// known: sorting, partitioning and scanning, or building and probing.
func (c CostModel) produce(alg exec.Algorithm, in joinInputs) float64 {
	t := float64(max(1, in.workers))
	n, m := in.build, in.probe
	// fixed is what a join on more than one worker pays beyond its work: a
	// barrier per phase and whatever else only coordination needs.
	fixed := func(phases, other float64) float64 {
		if t == 1 {
			return 0
		}
		return phases*c.BarrierFixed + other
	}
	switch alg {
	case exec.AlgorithmBMPSM:
		sort := c.runGen(m, t, in.presortedProbe) + c.runGen(n, t, in.presortedBuild)
		// Every worker scans its n/T private run once per public run (T of
		// them) and the whole public input, all T at once. Morsels enter a
		// public run by search instead, and the chunks of presorted inputs
		// cover one key range each: they find one public run's worth.
		merge := c.MergePerTuple * (n + m) * t / speedup(t, c.MergeParallel)
		if !in.static && in.presortedBuild && in.presortedProbe {
			merge /= t
		}
		return sort + merge + fixed(3, 0)
	case exec.AlgorithmPMPSM:
		// The partitions of the private input are sorted whatever order it
		// arrived in; only the public side can skip its sort.
		sort := c.runGen(m, t, in.presortedProbe) + c.runGen(n, t, false)
		partition := (c.HistogramPerTuple + c.ScatterPerTuple) * n / speedup(t, c.PartitionParallel)
		// A worker scans its partition of the private input once per public
		// run and, entering each by search, its key range of the public one.
		merge := c.MergePerTuple * (n*t + m) / speedup(t, c.MergeParallel)
		return sort + partition + merge + fixed(7, c.SplitterFixed)
	case exec.AlgorithmDMPSM:
		// B-MPSM's runs and merge, with every worker walking the whole page
		// index under either scheduler, plus the disk.
		walk := in
		walk.static = true
		return c.produce(exec.AlgorithmBMPSM, walk) + (c.DiskPerTuple+in.simulatedLatency)*(n+m)/speedup(t, c.MergeParallel)
	case exec.AlgorithmWisconsin:
		miss := c.missFraction(n, c.HashCacheTuples)
		op := c.HashOpPerTuple + c.HashMissPerTuple*miss
		// Several workers insert with compare-and-swap, which costs while the
		// bucket heads they contend for sit in a cache: a cache's worth of
		// inserts at most.
		return op*(n+m+in.matches)/c.rampSpeedup(t, miss) + fixed(2, c.HashSharedInsert*math.Min(n, c.HashCacheTuples)/t)
	case exec.AlgorithmRadix:
		miss := c.missFraction(n+m, c.RadixCacheTuples)
		perTuple := c.RadixPerTuple + c.RadixMissPerTuple*miss
		return (perTuple*(n+m)+c.RadixHitPerMatch*in.matches)/c.rampSpeedup(t, miss) + fixed(3, 0)
	default:
		return math.Inf(1)
	}
}

// deliver is the cost of getting the algorithm's output shape into the
// consumer, the consumer's own finalisation included.
func (c CostModel) deliver(alg exec.Algorithm, in joinInputs, to Consumer) float64 {
	t := float64(max(1, in.workers))
	par := speedup(t, c.MergeParallel)
	ranges := emitsRanges(alg)
	cost := 0.0
	switch {
	case alg == exec.AlgorithmWisconsin && to.Groups:
		cost = c.WisconsinPairPerMatch * in.matches / par
	case alg == exec.AlgorithmRadix && to.Groups:
		cost = c.RadixPairPerMatch * in.matches / par
	case !to.Folds:
		cost = c.PairPerMatch * in.matches / par
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
		switch {
		case t > 1:
			// Several writers' entries are histogrammed, scattered into one
			// partition per worker and sorted there.
			cost += (c.GroupFinalPerEntry+c.HistogramPerTuple+c.ScatterPerTuple)*entries/speedup(t, c.GroupFinalParallel) + 4*c.BarrierFixed
		case ranges:
			// One writer behind a range kernel: its buffer is the one
			// partition and already in key order.
			cost += c.GroupOrderedPerEntry * entries
		default:
			cost += c.GroupFinalPerEntry * entries
		}
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

// inputsFor assembles the cost-model features from the two input profiles,
// on the given worker count under the mode the join runs there.
func inputsFor(build, probe *stats.Profile, matches, groups float64, c Constraints, workers int) joinInputs {
	return joinInputs{
		build:            float64(build.Tuples),
		probe:            float64(probe.Tuples),
		matches:          matches,
		groups:           groups,
		presortedBuild:   build.LikelySorted(),
		presortedProbe:   probe.LikelySorted(),
		workers:          workers,
		static:           c.modeOn(workers) == sched.Static,
		simulatedLatency: c.LatencyNs,
		tieBreak:         build.KeyTieBreak || probe.KeyTieBreak,
		collision:        math.Max(build.PrefixCollisionRate, probe.PrefixCollisionRate),
	}
}
