package hashjoin

import (
	"context"

	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/mergejoin"
	"repro/internal/numa"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/result"
	"repro/internal/sched"
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
// histograms and prefix sums (a first pass that writes across NUMA
// partitions, then a local refinement), and every partition pair is then
// joined with a private hash table, streaming matches into the configured
// sink.
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

	var parts [][][]relation.Tuple
	if err := x.Record("partition", result.StopwatchPhase(func() {
		parts = partitionMultiPass(ctx, x.RT, [][]relation.Chunk{r.Split(o.Workers), s.Split(o.Workers)}, bits, passes, o.Topology, lease)
	})); err != nil {
		return nil, err
	}
	rParts, sParts := parts[0], parts[1]

	// Join phase: each partition pair is joined with a private hash table
	// over its R partition, probed with the matching S partition, streaming
	// matches into the executing worker's sink writer.
	out := x.Bind()
	folds := x.Folds()
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

// partitionMultiPass radix partitions the inputs — R's and S's chunks, one a
// worker — into 2^bits partitions each, using one or two passes. The first
// pass counts both inputs in one barrier on one shared key domain, so that
// partition p of R and partition p of S cover the same keys, and distributes
// them over 2^b1 coarse partitions with the synchronization-free
// histogram/prefix-sum/scatter scheme (partition.Count) — this is the pass
// that writes across NUMA partitions and that the paper criticizes. The
// optional second pass refines every coarse partition locally on the next
// b2 = bits - b1 key bits, preserving TLB/cache locality exactly like the
// MonetDB/Vectorwise radix join. On cancellation it returns nil.
func partitionMultiPass(ctx context.Context, rt *sched.Runtime, chunks [][]relation.Chunk, bits, passes int, topo numa.Topology, lease *memory.Lease) [][][]relation.Tuple {
	b1 := bits
	if passes > 1 && bits >= 2 {
		b1 = (bits + 1) / 2
	}
	// Every count and every scatter reads the worker's chunk sequentially; a
	// scatter writes across all target partitions, which are spread over the
	// NUMA nodes: random-ish writes, mostly remote.
	counted := partition.Count(ctx, rt, "partition", b1, chunks, lease, func(t *numa.Tracker, w, i int, written []int) {
		n := uint64(chunks[i][w].Len())
		t.SeqRead(t.Node(), n)
		if written != nil {
			chargeInterleaved(t, topo, n, (*numa.Tracker).RandWrite)
		}
	})
	if counted == nil {
		return nil
	}
	clusters := counted.Config.Clusters()
	coarse := counted.Scatter(ctx, partition.UniformSplitters(clusters, clusters), clusters)
	if b1 == bits {
		return coarse
	}

	// Second pass: refine every coarse partition on the next b2 bits. The
	// refinements are independent, so workers claim coarse partitions
	// dynamically from the task queue; all reads and writes are node-local,
	// and a refinement reads its partition twice.
	b2 := bits - b1
	refineShift := uint(max(int(counted.Config.Shift)-b2, 0))
	subCount := 1 << b2
	out := make([][][]relation.Tuple, len(coarse))
	var tasks []sched.Task
	for i, parts := range coarse {
		out[i] = make([][]relation.Tuple, len(parts)*subCount)
		for p, part := range parts {
			tasks = append(tasks, sched.Task{Node: -1, Run: func(w *sched.Worker) {
				copy(out[i][p*subCount:], refinePartition(part, refineShift, b2, lease))
				n := uint64(len(part)) // a nil tracker charges nothing
				w.Tracker().SeqRead(w.Node(), 2*n)
				w.Tracker().SeqWrite(w.Node(), n)
			}})
		}
	}
	rt.RunTasks(ctx, "partition", tasks)
	return out
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
