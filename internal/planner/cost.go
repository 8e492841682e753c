package planner

import (
	"math"

	"repro/internal/exec"
	"repro/internal/numa"
	"repro/internal/partition"
	"repro/internal/sched"
	"repro/internal/stats"
)

// CostModel prices one join execution as
//
//	produce(the join's phases) + deliver(the algorithm's output shape → consumer)
//
// where a phase is priced by the memory accesses it makes: the sequential and
// random reads and writes and the synchronisation operations that the join's
// workers book in their numa.Tracker (internal/numa), summed over local and
// remote memory because this host has one node. One function per algorithm
// and phase predicts those counts from what the planner knows — |R|, |S|, the
// worker count T, the estimated matches and public entries, presortedness —
// and TestPredictedAccessesMatchTheTrackers holds every prediction to what a
// tracked join books. Each kind costs one host price, a random access more by
// the cache ramp of the phase's working set (numa.HostNanos, the prices
// P-MPSM's equi-cost splitters balance its partitions at); on top come only
// what counts cannot give: the barriers and the splitter search of a join on
// several workers, the share of a worker that an added worker returns per
// phase, and the delivery to the consumer.
//
// Delivery is priced by shape because since the merge kernel emits ranges it
// decides more joins than production does. B- and P-MPSM hand their consumer
// one range entry per private key group and public run, key-ordered within
// every (private run, public run) pair; the hash joins hand over one entry per
// matching probe tuple (its build matches × the tuple) in probe order, except
// to the max-sum and count sinks, whose (count, max) their probe loop keeps
// itself. A consumer that folds range entries (the max-sum and count sinks,
// the group-by kernel over a projection it knows by name) therefore does no
// per-pair work behind an MPSM join and finalises one entry per key group and
// run instead of one per probe tuple.
//
// Constants are committed, not calibrated at start-up, so a template plans
// the same on every launch. All are nanoseconds of one worker unless they say
// otherwise, read on the reference sandbox (2 vCPUs). "The ladder" is
// TestWorkerLadderMeasured: every algorithm on |R| × 4|R| foreign-key joins
// at |R| = 4 096, 16 384, 65 536, 131 072, 262 144 and 524 288 into the
// max-sum sink, on one and on two workers (pooled, interleaved, medians of
// 15, the phase times from Result.Phases). The per-access prices are
// fitted to it and to the choices the planner's tests pin: a count is a tuple
// moved, not a cache line, so a constant is what a tuple's access of that kind
// costs together with the work done on it — a sequential read in the merge
// kernel carries a comparison, a random write in the no-partitioning build a
// chain walk.
//
// The fit holds the pinned plans first, and one constant per kind cannot
// serve both the sort's cheap sequential passes and the merge's comparisons:
// a sequential read costs 2, where the match phase reads 9.8–10.4 a tuple,
// and the hash probes' random reads come out as cheap. So the model's costs
// order candidates and worker counts, and est_ms (Explain) is that price, not
// a forecast of the clock: over the ladder the model reads 0.30 (Wisconsin)
// to 0.67 (Radix HJ) of the measured time in the median on a host with slower
// memory, and TestWorkerLadderModelTimes keeps those medians within
// 0.25–1.25 and within 2.5× of each other.
//
// The time of a join is priced per worker count, because the worker count is
// a decision (EfficiencyFloor): every phase divides its work by its own
// speed-up, 1 + (t−1)·share, the share of a worker that an added worker
// returns on that phase, and a join on more than one worker pays BarrierFixed
// per barrier on top. Those shares were read at two workers on two vCPUs and
// are only extrapolated beyond: what the model says at more than two workers
// has not been measured on any host.
type CostModel struct {
	// SplitterFixed is P-MPSM's splitter search and prefix sums over several
	// workers' histograms, independent of the input size:
	// core.pmpsm_phase2_ms on short_concurrent less the histogram and scatter
	// of its 4 096 tuples, 0.08 ms. One worker has nothing to search: the
	// ladder's first rung reads 0.04 ms for the whole phase on one worker and
	// 0.12–0.13 on two.
	SplitterFixed float64
	// BarrierFixed is what one barrier costs a join that runs on more than
	// one worker, beyond the work of the phase — mostly waking the other
	// worker: core.bmpsm_total_ms and hashjoin.*_total_ms on short_concurrent
	// (0.37, 0.27, 0.26 ms for three, two and three barriers) against the same
	// joins on one worker. The ladder's first rung, where the work is
	// smallest, reads the same: P-MPSM 0.52–0.55 → 0.69–0.72 ms, B-MPSM
	// 0.45–0.50 → 0.54–0.57, Wisconsin 0.16 → 0.21–0.22 with six, three and
	// two of them.
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
	// 65 536), in two 1 048 576-tuple runs 0.50–0.55 (rung 524 288);
	// Wisconsin's probe goes 1.0–1.1× on two workers at the first two rungs
	// and 1.83–2.0× at the last two; the radix join 1.80–1.99× from rung
	// 131 072 up.
	ParallelCached, ParallelMemory float64
	// MergeParallel is the added worker's share on the streaming phases: the
	// match phase, whose work is not the same at every worker count (a
	// P-MPSM worker scans its partition of the private input once per public
	// run, a B-MPSM worker all of the public input), copying a presorted
	// chunk, delivering pairs (PairPerMatch) and the group-by kernel's
	// finalisation with several writers. Against that work the ladder's
	// B-MPSM match phase takes the same time on two workers as on one
	// (27.1–27.5 → 25.3–26.1 ms at the last rung: twice the work, both
	// workers at full speed) and P-MPSM's 27.2–27.5 → 19.2–19.7; Collect
	// behind the 65 536 × 262 144 join costs 2.3–3.0 ms on one worker and
	// 1.2–1.5 on two.
	MergeParallel float64
	// PartitionParallel is the share on P-MPSM's histogram and scatter of the
	// private input: the ladder's phase 2 less SplitterFixed and its barriers,
	// 4.5–5.0 → 2.7–3.3 ms at the last rung and within 0.1 ms of no gain below
	// rung 262 144.
	PartitionParallel float64
	// EfficiencyFloor is the share of a worker every added worker must return
	// for a join to be given it: the planner prices a join on one worker and
	// at each doubling up to its bound and keeps a doubling only if the join's
	// speed, in units of its speed on one worker, rises by this much per
	// worker added. Policy, not measurement: a second worker that returns less
	// than half a worker is worth more to the next query — under nproc
	// closed-loop clients every core has one waiting. At one worker → two the
	// time must fall to 1/1.5. Not an Option, flag or environment variable.
	EfficiencyFloor float64

	// PairPerMatch prices handing one match to a consumer that folds no range
	// entries — Collect feeding the next join, a user sink, the group-by
	// kernel — whatever the join: the pair is formed (out of a range entry,
	// or out of the probe loop's output columns) and written. The
	// 65 536 × 262 144 join into Collect against the same join into max-sum,
	// one worker, 262 144 pairs: 11 per match behind P-MPSM, 9 behind B-MPSM
	// and Wisconsin, 10.5 behind Radix HJ.
	PairPerMatch float64
	// GroupFinalPerEntry prices sorting, folding and concatenating one
	// (key, partial) entry in the group-by kernel's finalisation; the entries
	// of more than one writer are also histogrammed and scattered (priced by
	// their accesses, as P-MPSM's partitioning is), divide by MergeParallel's
	// speed-up and cost four barriers. Forced-plan driver, exec.AggTimes of
	// agg2, chain3 and band on two workers (pooled): 1.27, 1.97 and 1.13 ms
	// for 67 k, 131 k and 65 k entries, 15–19 per entry on the clock;
	// sink.groupagg_ns_per_tuple, which folds, scatters and finalises b
	// unpooled, reads 36–81.
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
	// template plans the same over every sample of its data. It is 4 %,
	// because by their accesses P-MPSM and B-MPSM differ by little on one
	// worker: P-MPSM's partitioning books one sequential read per private
	// tuple more than B-MPSM's run generation of the same input, 5.4 % of the
	// band template's 32 768 × 32 768 join, which the clock puts on B-MPSM
	// (TestGateShapesChosenPlanIsNearTheBest). That is narrower than the
	// noise of the cardinality estimate — chain3's first join, 65 536 ×
	// 262 144, estimates 203–305 k rows over generator seeds 1–3 (actual
	// 262 k) — so the ties do not absorb that noise; the gate plans hold
	// because their candidates move together with the estimate or sit
	// further apart than it moves them (TestGatePlansHoldUnderEstimateNoise
	// scales every join's estimate by 0.75 and 1.25).
	Resolution float64
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
		SplitterFixed:        80e3,
		BarrierFixed:         40e3,
		ParallelCached:       0.26,
		ParallelMemory:       0.85,
		MergeParallel:        0.6,
		PartitionParallel:    0.1,
		EfficiencyFloor:      0.5,
		PairPerMatch:         12,
		GroupFinalPerEntry:   34,
		GroupOrderedPerEntry: 8,
		Resolution:           0.04,
		TieBreakPerMatch:     18,
	}
}

// local books predicted accesses of a phase — sequential and random reads
// and writes and synchronisation operations, in tuples as the trackers count
// them — as local ones: this host has one node.
func local(seqRead, seqWrite, randRead, randWrite, sync float64) numa.AccessStats {
	return numa.AccessStats{LocalSeqRead: uint64(seqRead), LocalSeqWrite: uint64(seqWrite), LocalRandRead: uint64(randRead), LocalRandWrite: uint64(randWrite), SyncOps: uint64(sync)}
}

// Phase is one phase of a join as the model prices it: the accesses its
// workers book, the working set in bytes that sets the cache ramp of its
// random accesses, the share of a worker an added worker returns on it —
// zero for a phase whose share follows the cache ramp (ParallelCached →
// ParallelMemory with its miss fraction) — and the barriers it costs on more
// than one worker.
type Phase struct {
	numa.AccessStats
	Bytes    float64
	Share    float64
	Barriers int
}

// Bytes per tuple of the working sets: a run's key and payload columns; the
// radix join's input and its partitions; the chained table's build tuple,
// 8 four-byte bucket heads and its chain link.
const (
	runBytes   = partition.RunBytes
	radixBytes = 32
	tableBytes = 52
)

// runGeneration predicts sorting n tuples into runs on t workers: each source
// chunk is read twice and its run written once, and sorting adds two random
// read and write passes; a presorted chunk is verified and copied.
func (c CostModel) runGeneration(n, t float64, presorted bool) Phase {
	if presorted {
		return Phase{AccessStats: local(2*n, n, 0, 0, 0), Share: c.MergeParallel, Barriers: 1}
	}
	return Phase{AccessStats: local(2*n, n, 2*n, 2*n, 0), Bytes: runBytes * n / t, Barriers: 1}
}

// bmpsm predicts B-MPSM: both inputs' run generation, then the match phase,
// in which every worker scans its private run once per public run and every
// public run in full. Morsels enter a public run by search, and the chunks of
// presorted inputs cover one key range each, so there the public runs are
// scanned once over all.
func (c CostModel) bmpsm(in joinInputs) []Phase {
	t := float64(max(1, in.workers))
	public := in.probe * t
	if !in.static && in.presortedBuild && in.presortedProbe {
		public = in.probe
	}
	return []Phase{
		c.runGeneration(in.probe, t, in.presortedProbe),
		c.runGeneration(in.build, t, in.presortedBuild),
		{AccessStats: local(in.build*t+public, 0, 0, 0, 0), Share: c.MergeParallel, Barriers: 1},
	}
}

// pmpsm predicts P-MPSM: the public input's run generation; the range
// partitioning of the private input, whose histogram count and scatter each
// read it once and whose scatter writes it into its partitions, in three
// barriers (the public bounds, the count and the scatter); the sort of every
// partition, read once into its run whatever order it arrived in; and the
// match phase, in which a worker scans its partition once per public run and,
// entering each by search, the window of its key range. The last two are what
// the splitters price a partition by (partition.Accesses), which is linear, so
// the partitions of the whole inputs sum to it at |R| and |S|.
func (c CostModel) pmpsm(in joinInputs) []Phase {
	workers := max(1, in.workers)
	t := float64(workers)
	sort, match := partition.Accesses(uint64(in.build), uint64(in.probe), workers)
	return []Phase{
		c.runGeneration(in.probe, t, in.presortedProbe),
		{AccessStats: local(2*in.build, in.build, 0, 0, 0), Share: c.PartitionParallel, Barriers: 3},
		{AccessStats: sort, Bytes: runBytes * in.build / t, Barriers: 1},
		{AccessStats: match, Share: c.MergeParallel, Barriers: 1},
	}
}

// wisconsin predicts the no-partitioning join: an insert per build tuple,
// with a compare-and-swap where several workers share the table, and per
// probe tuple its read and a lookup plus one chain entry per match.
func (c CostModel) wisconsin(in joinInputs) []Phase {
	sync := 0.0
	if in.workers > 1 {
		sync = in.build
	}
	bytes := tableBytes * in.build
	return []Phase{
		{AccessStats: local(0, 0, 0, in.build, sync), Bytes: bytes, Barriers: 1},
		{AccessStats: local(in.probe, 0, in.probe+in.matches, 0, 0), Bytes: bytes, Barriers: 1},
	}
}

// radix predicts the radix join: one partitioning pass, whose count and
// scatter each read both inputs and whose scatter writes them across the
// partitions, then per partition pair a read of both, an insert per build
// tuple and a lookup per probe tuple.
func (c CostModel) radix(in joinInputs) []Phase {
	n := in.build + in.probe
	bytes := radixBytes * n
	return []Phase{
		{AccessStats: local(2*n, 0, 0, n, 0), Bytes: bytes, Barriers: 2},
		{AccessStats: local(n, 0, in.probe, in.build, 0), Bytes: bytes, Barriers: 1},
	}
}

// phasesOf predicts the phases of one join under the given algorithm. D-MPSM
// is B-MPSM's run generation and, through the buffer pool, which books
// nothing, its static match phase.
func (c CostModel) phasesOf(alg exec.Algorithm, in joinInputs) []Phase {
	switch alg {
	case exec.AlgorithmBMPSM:
		return c.bmpsm(in)
	case exec.AlgorithmPMPSM:
		return c.pmpsm(in)
	case exec.AlgorithmDMPSM:
		in.static = true
		return c.bmpsm(in)
	case exec.AlgorithmWisconsin:
		return c.wisconsin(in)
	case exec.AlgorithmRadix:
		return c.radix(in)
	}
	return nil
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

// speedup is how much faster t workers run a phase than one, when an added
// worker returns the given share of a worker.
func speedup(t, s float64) float64 { return 1 + (t-1)*s }

// price is the modelled time of a phase on t workers, its barriers left out.
func (c CostModel) price(p Phase, t float64) float64 {
	miss := numa.MissFraction(p.Bytes)
	ns := numa.HostNanos(p.AccessStats, p.Bytes)
	s := p.Share
	if s == 0 {
		s = c.ParallelCached + (c.ParallelMemory-c.ParallelCached)*miss
	}
	return ns / speedup(t, s)
}

// run prices phases on t workers, a barrier each included where t > 1.
func (c CostModel) run(t int, phases ...Phase) float64 {
	cost := 0.0
	for _, p := range phases {
		cost += c.price(p, float64(t))
		if t > 1 {
			cost += float64(p.Barriers) * c.BarrierFixed
		}
	}
	return cost
}

// groupJoin prices a groupjoin on t workers whose driver has n tuples and d
// distinct keys, probed by the other leaves' tuples: run generation of the
// driver on one worker, an insert per distinct key on one worker and a
// lookup per probe tuple, each finding its key's entry, on the table of d
// entries with its cache ramp — divided among the workers as the
// no-partitioning join's probe is — and per group the finalisation of one
// writer whose entries arrive in key order, as the table's do. On more than
// one worker every phase (the build and one probe per other leaf) costs a
// barrier, and every added worker's accumulators are merged per entry and
// probing leaf in a linear pass.
func (c CostModel) groupJoin(n, d, probes, groups float64, leaves, t int) float64 {
	bytes := tableBytes * d
	cost := c.run(1, c.runGeneration(n, 1, false), Phase{AccessStats: local(0, 0, 0, d, 0), Bytes: bytes}) +
		c.run(t, Phase{AccessStats: local(probes, 0, 2*probes, 0, 0), Bytes: bytes, Barriers: leaves - 1}) +
		c.GroupOrderedPerEntry*groups
	if t > 1 {
		merge := float64((t - 1) * (leaves - 1))
		cost += c.BarrierFixed + c.run(1, Phase{AccessStats: local(merge*d, merge*d, 0, 0, 0)})
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
// consumer.
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
// known: its phases, the barriers between them and whatever else only
// coordination needs.
func (c CostModel) produce(alg exec.Algorithm, in joinInputs) float64 {
	phases := c.phasesOf(alg, in)
	if phases == nil {
		return math.Inf(1)
	}
	t := max(1, in.workers)
	cost := c.run(t, phases...)
	switch {
	case alg == exec.AlgorithmPMPSM && t > 1:
		cost += c.SplitterFixed
	case alg == exec.AlgorithmDMPSM:
		cost += in.simulatedLatency * (in.build + in.probe) / speedup(float64(t), c.MergeParallel)
	}
	return cost
}

// deliver is the cost of getting the algorithm's output shape into the
// consumer, the consumer's own finalisation included.
func (c CostModel) deliver(alg exec.Algorithm, in joinInputs, to Consumer) float64 {
	t := float64(max(1, in.workers))
	ranges := emitsRanges(alg)
	cost := 0.0
	if !to.Folds || (to.Groups && !ranges) {
		// A pair is formed per match — or, behind a hash join, gathered into
		// its range batch's columns for every sink but the folding ones.
		cost = c.PairPerMatch * in.matches / speedup(t, c.MergeParallel)
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
			scatter := Phase{AccessStats: local(2*entries, entries, 0, 0, 0), Share: c.MergeParallel}
			cost += c.GroupFinalPerEntry*entries/speedup(t, c.MergeParallel) + c.price(scatter, t) + 4*c.BarrierFixed
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
