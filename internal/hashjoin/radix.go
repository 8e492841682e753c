package hashjoin

import (
	"context"
	"slices"

	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/mergejoin"
	"repro/internal/numa"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/result"
	"repro/internal/sched"
	"repro/internal/sink"
)

// RadixOptions configures the radix-partitioned hash join baseline. The
// partitioning is derived from the build side: choosePartitionBits and
// radixPasses.
type RadixOptions struct {
	Options
}

// choosePartitionBits picks the number of radix bits both inputs are
// partitioned on (2^bits partitions in total) so that each build-side
// partition holds around targetPartitionSize tuples, mimicking cache-sized
// fragments.
func choosePartitionBits(buildSize int) int {
	const targetPartitionSize = 2048
	bits := 1
	for (buildSize>>bits) > targetPartitionSize && bits < 14 {
		bits++
	}
	return bits
}

// radixPasses is the number of radix partitioning passes over the given
// number of bits. The MonetDB / Vectorwise lineage partitions repeatedly
// (rather than in one step) to preserve TLB locality; the first pass writes
// across NUMA partitions, the second refines locally. Two passes split
// partition counts of 16 and more, one pass the smaller ones.
func radixPasses(bits int) int {
	if bits >= 4 {
		return 2
	}
	return 1
}

// Radix executes a radix-partitioned parallel hash join in the
// MonetDB/Vectorwise lineage, the paper's second contender. Both inputs are
// radix partitioned on their join keys in parallel using per-worker
// histograms and prefix sums (one pass, writing across NUMA partitions), and
// every partition pair is then joined with a private hash table, streaming
// matches into the configured sink.
//
// The join phase claims partition pairs dynamically from the shared task
// queue under both scheduler modes — dynamic claiming is how this contender
// has always balanced its cache-sized partitions (it is not bound by the
// MPSM commandment C3), so the Scheduler option does not change its
// behaviour.
//
// Cancellation is checked at phase boundaries, per partition inside the join
// loop and every cancelBlock tuples of a probe; a canceled context aborts the
// join and returns ctx.Err().
func Radix(ctx context.Context, r, s *relation.Relation, opts RadixOptions) (*result.Result, error) {
	bits := choosePartitionBits(r.Len())
	return radixJoin(ctx, r, s, opts.Options, bits, radixPasses(bits))
}

// radixJoin is Radix on 2^bits partitions cut in the given number of passes.
func radixJoin(ctx context.Context, r, s *relation.Relation, opts Options, bits, passes int) (*result.Result, error) {
	if err := validate("the radix hash join", opts, r.Len()); err != nil {
		return nil, err
	}
	x, err := core.Begin(ctx, "Radix HJ", opts)
	if err != nil {
		return nil, err
	}
	defer x.Release()
	o, lease := x.Opts, x.Lease

	var rParts, sParts [][]relation.Tuple
	if err := x.Record("partition", result.StopwatchPhase(func() {
		maxKey := maxKeyOf(ctx, x.RT, r, s)
		rParts = partitionMultiPass(ctx, x.RT, r, bits, passes, maxKey, o.Topology, lease)
		sParts = partitionMultiPass(ctx, x.RT, s, bits, passes, maxKey, o.Topology, lease)
	})); err != nil {
		return nil, err
	}

	// Join phase: each partition pair is joined with a private hash table
	// over its R partition, probed with the matching S partition, streaming
	// matches into the executing worker's sink writer.
	out := x.Bind()
	folds := sink.FoldsRanges(o.Sink) && o.KeyCheck == nil
	tasks := make([]sched.Task, len(rParts))
	for p := range tasks {
		tasks[p] = sched.Task{Node: -1, Run: func(w *sched.Worker) {
			joinPartition(ctx, rParts[p], sParts[p], out.Writer(w.ID()), folds, lease)
			if tracker := w.Tracker(); tracker != nil {
				// Reading the partitions is sequential, but they live wherever
				// the partitioning phase placed them (interleaved across
				// nodes). Building the private hash table and probing it are
				// random accesses, albeit node-local thanks to the cache-sized
				// fragments.
				chargeInterleaved(tracker, o.Topology, uint64(len(rParts[p])+len(sParts[p])), (*numa.Tracker).SeqRead)
				tracker.RandWrite(tracker.Node(), uint64(len(rParts[p])))
				tracker.RandRead(tracker.Node(), uint64(len(sParts[p])))
			}
		}}
	}
	if err := x.Record("build+probe", x.RT.RunTasks(ctx, "build+probe", tasks)); err != nil {
		return nil, err
	}
	return x.Finish(nil, nil)
}

// partitionMultiPass radix partitions a relation into 2^bits partitions using
// one or two passes. The first pass distributes the data over 2^b1 coarse
// partitions with the synchronization-free histogram/prefix-sum/scatter scheme
// — this is the pass that writes across NUMA partitions and that the paper
// criticizes. The optional second pass refines every coarse partition locally
// on the next b2 = bits - b1 key bits, preserving TLB/cache locality exactly
// like the MonetDB/Vectorwise radix join.
func partitionMultiPass(ctx context.Context, rt *sched.Runtime, rel *relation.Relation, bits, passes int,
	maxKey uint64, topo numa.Topology, lease *memory.Lease) [][]relation.Tuple {

	if passes <= 1 || bits < 2 {
		cfg := partition.NewRadixConfig(bits, maxKey)
		sp := identitySplitters(cfg.Clusters())
		return partitionParallel(ctx, rt, rel, cfg, sp, cfg.Clusters(), topo, lease)
	}

	b1 := (bits + 1) / 2
	b2 := bits - b1
	cfg1 := partition.NewRadixConfig(b1, maxKey)
	coarse := partitionParallel(ctx, rt, rel, cfg1, identitySplitters(cfg1.Clusters()), cfg1.Clusters(), topo, lease)

	// Second pass: refine every coarse partition on the next b2 bits. The
	// refinements are independent, so workers claim coarse partitions
	// dynamically from the task queue; all reads and writes are node-local.
	refineShift := uint(0)
	if cfg1.Shift > uint(b2) {
		refineShift = cfg1.Shift - uint(b2)
	}
	subCount := 1 << b2
	out := make([][]relation.Tuple, len(coarse)*subCount)
	tasks := make([]sched.Task, len(coarse))
	for p := range coarse {
		p := p
		tasks[p] = sched.Task{Node: -1, Run: func(w *sched.Worker) {
			refined := refinePartition(coarse[p], refineShift, b2, lease)
			copy(out[p*subCount:(p+1)*subCount], refined)
			if tracker := w.Tracker(); tracker != nil {
				n := uint64(len(coarse[p]))
				tracker.SeqRead(tracker.Node(), n)
				tracker.SeqWrite(tracker.Node(), n)
			}
		}}
	}
	rt.RunTasks(ctx, "partition", tasks)
	return out
}

// identitySplitters returns the splitter vector that maps every radix cluster
// to its own partition.
func identitySplitters(clusters int) partition.SplitterVector {
	sp := make(partition.SplitterVector, clusters)
	for i := range sp {
		sp[i] = i
	}
	return sp
}

// refinePartition splits one coarse partition into 2^b2 sub-partitions on the
// key bits selected by shift, preserving the coarse partition's key range.
// The histogram/cursor scratch and the sub-partition buffers come from the
// lease; the histogram is handed back immediately, the sub-partitions live
// until the join releases its lease.
func refinePartition(tuples []relation.Tuple, shift uint, b2 int, lease *memory.Lease) [][]relation.Tuple {
	buckets := 1 << b2
	mask := uint64(buckets - 1)
	hist := lease.Ints(buckets)
	for _, t := range tuples {
		hist[int((t.Key>>shift)&mask)]++
	}
	out := make([][]relation.Tuple, buckets)
	for b := 0; b < buckets; b++ {
		out[b] = lease.Tuples(hist[b])
	}
	cursors := hist
	clear(cursors)
	for _, t := range tuples {
		b := int((t.Key >> shift) & mask)
		out[b][cursors[b]] = t
		cursors[b]++
	}
	lease.PutInts(hist)
	return out
}

// partitionParallel radix partitions a relation into parts target partitions
// using the synchronization-free histogram/prefix-sum/scatter scheme. Unlike
// P-MPSM's private-input partitioning, the radix join partitions both inputs,
// which is the cross-NUMA traffic the paper criticizes.
func partitionParallel(ctx context.Context, rt *sched.Runtime, rel *relation.Relation, cfg partition.RadixConfig,
	sp partition.SplitterVector, parts int, topo numa.Topology, lease *memory.Lease) [][]relation.Tuple {

	workers := rt.Workers()
	chunks := rel.Split(workers)
	histograms := make([]partition.Histogram, workers)

	rt.Phase(ctx, "partition", func(ctx context.Context, w *sched.Worker) {
		histograms[w.ID()] = partition.BuildHistogramInto(lease.Ints(cfg.Clusters()), chunks[w.ID()].Tuples, cfg)
		if tracker := w.Tracker(); tracker != nil {
			tracker.SeqRead(tracker.Node(), uint64(len(chunks[w.ID()].Tuples)))
		}
	})
	for w := 0; w < workers; w++ {
		// A worker skipped by cancellation leaves a nil histogram; the
		// prefix sums still need a well-formed (empty) one.
		if histograms[w] == nil {
			histograms[w] = partition.BuildHistogram(nil, cfg)
		}
	}

	ps := partition.ComputePrefixSums(histograms, sp, parts)
	targets := make([][]relation.Tuple, parts)
	for p := 0; p < parts; p++ {
		targets[p] = lease.Tuples(ps.Sizes[p])
	}

	rt.Phase(ctx, "partition", func(ctx context.Context, w *sched.Worker) {
		cursors := lease.Ints(parts)
		copy(cursors, ps.Offsets[w.ID()])
		partition.Scatter(chunks[w.ID()].Tuples, cfg, sp, targets, cursors)
		if tracker := w.Tracker(); tracker != nil {
			// Scattering writes across all target partitions, which are
			// spread over the NUMA nodes: random-ish writes, mostly remote.
			chargeInterleaved(tracker, topo, uint64(len(chunks[w.ID()].Tuples)), (*numa.Tracker).RandWrite)
		}
		lease.PutInts(cursors)
	})
	return targets
}

// joinPartition joins one partition pair with a private table over its build
// side: no other worker sees it, so the inserts are plain stores. The head and
// chain arrays are handed back as soon as the pair is joined, so concurrent
// partition tasks recycle a handful of cache-sized buffers instead of
// allocating one table per partition.
func joinPartition(ctx context.Context, build, probe []relation.Tuple, out mergejoin.RangeConsumer, folds bool, lease *memory.Lease) {
	if len(build) == 0 || len(probe) == 0 {
		return
	}
	table := newChainTable(build, lease)
	var dup bool
	table.insert(0, len(build), false, &dup)
	table.distinct = !dup
	table.probe(ctx, probe, out, folds, lease)
	table.release(lease)
}

// maxKeyOf returns the maximum join key across both relations (0 for empty
// inputs), each worker scanning its chunk of both.
func maxKeyOf(ctx context.Context, rt *sched.Runtime, r, s *relation.Relation) uint64 {
	rChunks, sChunks := r.Split(rt.Workers()), s.Split(rt.Workers())
	maxima := make([]uint64, rt.Workers())
	rt.Phase(ctx, "partition", func(ctx context.Context, w *sched.Worker) {
		var m uint64
		for _, chunk := range [2][]relation.Tuple{rChunks[w.ID()].Tuples, sChunks[w.ID()].Tuples} {
			for _, t := range chunk {
				m = max(m, t.Key)
			}
		}
		maxima[w.ID()] = m
	})
	return slices.Max(maxima)
}
