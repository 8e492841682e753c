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
// partitioning is derived from the build side: choosePartitionBits.
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

// Radix executes a radix-partitioned parallel hash join in the
// MonetDB/Vectorwise lineage, the paper's second contender. Both inputs are
// radix partitioned on their join keys in one parallel pass using per-worker
// histograms and prefix sums, which writes across NUMA partitions, and every
// partition pair is then joined with a private hash table, streaming matches
// into the configured sink. The lineage partitions in two passes to save TLB
// entries at large fan-outs; at the 2^14 partitions this join cuts at most,
// one pass is as fast or faster.
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
	return radixJoin(ctx, r, s, opts.Options, choosePartitionBits(r.Len()))
}

// radixJoin is Radix on 2^bits partitions.
func radixJoin(ctx context.Context, r, s *relation.Relation, opts Options, bits int) (*result.Result, error) {
	if err := validate("the radix hash join", opts, r.Len()); err != nil {
		return nil, err
	}
	x, err := core.Begin(ctx, "Radix HJ", opts)
	if err != nil {
		return nil, err
	}
	defer x.Release()
	o, lease := x.Opts, x.Lease

	// Partition phase: R's and S's chunks, one a worker, are counted in one
	// barrier on one shared key domain, so that partition p of R and
	// partition p of S cover the same keys, and scattered into their 2^bits
	// partitions with the synchronization-free histogram/prefix-sum/scatter
	// scheme (partition.Count) — the pass that writes across NUMA partitions
	// and that the paper criticizes. Every count and every scatter reads the
	// worker's chunk sequentially; a scatter writes across all target
	// partitions, which are spread over the NUMA nodes: random-ish writes,
	// mostly remote.
	chunks := [][]relation.Chunk{r.Split(o.Workers), s.Split(o.Workers)}
	var parts [][][]relation.Tuple
	if err := x.Record("partition", result.StopwatchPhase(func() {
		counted := partition.Count(ctx, x.RT, "partition", bits, chunks, lease, func(t *numa.Tracker, w, i int, written []int) {
			n := uint64(chunks[i][w].Len())
			t.SeqRead(t.Node(), n)
			if written != nil {
				chargeInterleaved(t, o.Topology, n, (*numa.Tracker).RandWrite)
			}
		})
		if counted != nil {
			clusters := counted.Config.Clusters()
			parts = counted.Scatter(ctx, partition.UniformSplitters(clusters, clusters), clusters)
		}
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
