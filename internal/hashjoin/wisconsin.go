// Package hashjoin implements the two hash-join baselines the MPSM paper
// compares against:
//
//   - the "Wisconsin" no-partitioning hash join (Blanas et al., SIGMOD 2011):
//     a single shared hash table built concurrently by all workers and probed
//     concurrently; build-side inserts synchronize on the shared bucket heads
//     and probes read the table randomly across NUMA partitions, violating
//     commandments C2 and C3;
//   - a radix-partitioned hash join in the MonetDB/Vectorwise lineage: both
//     inputs are radix partitioned in parallel (writing across NUMA
//     partitions once), after which each partition pair is joined with a
//     private, cache-sized hash table.
//
// Both joins build and probe one table type, chainTable, with one probe loop.
// The table is two int32 arrays over the build tuples where they lie: heads
// holds the first entry of every bucket's chain, next links entry i — which is
// build[i] itself, no copy — to the entry behind it. A bucket is the top bits
// of a Fibonacci hash of the key. There are 8 heads per build tuple (rounded
// up to a power of two), a constant: against 2 per tuple, 88 % instead of 61 %
// of foreign-key probes meet a chain of one entry, so the chain-exit branch
// predicts, and the whole join at 1:4 on one worker takes 0.18–0.23 instead of
// 0.36–0.39 ms at 4 096 build tuples and 1.1–1.2 instead of 1.5–1.6 ms at
// 16 384; the prototype's build+probe micro-benchmark read 13.2 instead of
// 23.0 ns/tuple at 65 536 and 23.2 instead of 36.0 at 524 288. 16 per tuple
// (95 %) is no faster at either end and twice the memory. Inserts swap a head in
// with compare-and-swap while more than one worker builds the table — the
// algorithm the paper describes — and with plain stores when one does: the
// no-partitioning join on one worker and every private table of the radix
// join. The probe loop appends each match to three leased output columns and
// hands them to the sink a batch at a time.
//
// Both implementations report the same result and phase-timing structure as
// the MPSM variants so that the experiment harness can reproduce Figures 12
// and 13, and both run on the shared parallel runtime of internal/sched, so
// the Static and Morsel scheduling modes apply to them too.
package hashjoin

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"time"

	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/mergejoin"
	"repro/internal/numa"
	"repro/internal/relation"
	"repro/internal/result"
	"repro/internal/sched"
	"repro/internal/sink"
)

// Options configures the hash-join baselines: the options struct of the MPSM
// variants, so one value configures all five algorithms. The hash joins read
// the worker, scheduler, sink, scratch, gate, fault and NUMA fields; they
// have no splitters, histograms, presorted fast paths or batch size, and
// they are inner equi-joins only — see validate.
type Options = core.Options

// cancelBlock is how many tuples a hash-join worker processes between two
// cancellation checks; the build and probe loops have no natural chunk
// boundary, so this is their chunk size.
const cancelBlock = 8192

// validate rejects the join flavours the hash joins do not implement rather
// than silently running an inner equi-join in their place, and a build side
// whose slots would wrap the table's int32 chain links.
func validate(algorithm string, o Options, buildTuples int) error {
	if buildTuples > math.MaxInt32 {
		return fmt.Errorf("hashjoin: %s chains its build side through 32-bit slots, got %d tuples (at most %d)", algorithm, buildTuples, math.MaxInt32)
	}
	if o.Kind != mergejoin.Inner {
		return fmt.Errorf("hashjoin: %s supports inner joins only, got kind %v", algorithm, o.Kind)
	}
	if o.Band != 0 {
		return fmt.Errorf("hashjoin: %s supports equi-joins only, got band width %d", algorithm, o.Band)
	}
	return nil
}

// insertBlock inserts one block of the build relation into the shared table,
// charging the executing worker's tracker. An entry's slot is its index in
// the relation, so any worker may insert any block.
func insertBlock(ctx context.Context, table *chainTable, block relation.Chunk, shared bool, w *sched.Worker, topo numa.Topology) {
	lo, hi := block.Offset, block.Offset+block.Len()
	var retries uint64
	for at := lo; at < hi; at += cancelBlock {
		if mergejoin.Canceled(ctx) {
			return
		}
		retries += table.insert(at, min(at+cancelBlock, hi), shared)
	}
	if tracker := w.Tracker(); tracker != nil {
		// The hash table is interleaved across all nodes; on average
		// (nodes-1)/nodes of the random writes are remote. We charge them
		// round-robin. Synchronization is charged as executed: one
		// compare-and-swap per insert and retry, none for the plain stores of
		// a build that runs on one worker.
		n := uint64(hi - lo)
		chargeInterleaved(tracker, topo, n, false)
		if shared {
			tracker.Sync(n + retries)
		}
	}
}

// probeBlock probes the shared table with one block of a probe chunk,
// streaming matches into the executing worker's sink writer.
func probeBlock(ctx context.Context, table *chainTable, tuples []relation.Tuple, w *sched.Worker, topo numa.Topology, cons mergejoin.Consumer, lease *memory.Lease) {
	inspected := table.probe(ctx, tuples, cons, lease)
	if tracker := w.Tracker(); tracker != nil {
		// Probing reads the local S chunk sequentially and the shared
		// table randomly across all nodes.
		tracker.SeqRead(tracker.Node(), uint64(len(tuples)))
		chargeInterleaved(tracker, topo, inspected+uint64(len(tuples)), true)
	}
}

// blockTasks cuts the chunks of a relation into morsel tasks of at most
// morselSize tuples each, applying fn to every block. The tasks carry no
// NUMA placement: the shared table is interleaved over all nodes, so no
// worker is closer to a block's hash buckets than any other.
func blockTasks(chunks []relation.Chunk, morselSize int, fn func(block relation.Chunk, w *sched.Worker)) []sched.Task {
	var tasks []sched.Task
	for _, chunk := range chunks {
		chunk := chunk
		sched.ForEachSegment(len(chunk.Tuples), morselSize, func(lo, hi int) {
			block := relation.Chunk{Worker: chunk.Worker, Offset: chunk.Offset + lo, Tuples: chunk.Tuples[lo:hi]}
			tasks = append(tasks, sched.Task{Node: -1, Run: func(w *sched.Worker) { fn(block, w) }})
		})
	}
	return tasks
}

// Wisconsin executes the no-partitioning shared hash join: build a global
// hash table over R in parallel, then probe it with S in parallel. R is the
// build side; callers wanting role reversal swap the arguments.
//
// Matching pairs stream into the configured sink. Cancellation is checked at
// the phase boundary and every cancelBlock tuples inside the build and probe
// loops; a canceled context aborts the join and returns ctx.Err().
func Wisconsin(ctx context.Context, r, s *relation.Relation, opts Options) (*result.Result, error) {
	if err := validate("the Wisconsin hash join", opts, r.Len()); err != nil {
		return nil, err
	}
	opts = opts.Normalize()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	workers := opts.Workers
	res := &result.Result{Algorithm: "Wisconsin", Workers: workers}
	rt := core.RuntimeFor(opts)
	lease := core.LeaseFor(opts)
	defer lease.Release()
	start := time.Now()

	table := newChainTable(r.Tuples, lease)
	rChunks := r.Split(workers)
	sChunks := s.Split(workers)

	// Build phase: every worker inserts its chunk into the shared table
	// (static), or idle workers steal insert blocks (morsel). The bucket
	// heads are shared as soon as there is a second worker.
	shared := workers > 1
	var buildTime time.Duration
	if opts.Scheduler == sched.Morsel {
		buildTime = rt.RunTasks(ctx, "build", blockTasks(rChunks, opts.MorselSize, func(block relation.Chunk, w *sched.Worker) {
			insertBlock(ctx, &table, block, shared, w, opts.Topology)
		}))
	} else {
		buildTime = rt.Phase(ctx, "build", func(ctx context.Context, w *sched.Worker) {
			insertBlock(ctx, &table, rChunks[w.ID()], shared, w, opts.Topology)
		})
	}
	res.AddPhase("build", buildTime)
	if err := core.Checkpoint(ctx, rt, lease); err != nil {
		return nil, err
	}

	// Probe phase: every worker probes with its chunk of S, streaming
	// matches into its private sink writer.
	out := sink.BindChecked(opts.Sink, workers, lease, opts.KeyCheck)
	var probeTime time.Duration
	if opts.Scheduler == sched.Morsel {
		probeTime = rt.RunTasks(ctx, "probe", blockTasks(sChunks, opts.MorselSize, func(block relation.Chunk, w *sched.Worker) {
			probeBlock(ctx, &table, block.Tuples, w, opts.Topology, out.Writer(w.ID()), lease)
		}))
	} else {
		probeTime = rt.Phase(ctx, "probe", func(ctx context.Context, w *sched.Worker) {
			probeBlock(ctx, &table, sChunks[w.ID()].Tuples, w, opts.Topology, out.Writer(w.ID()), lease)
		})
	}
	res.AddPhase("probe", probeTime)
	// Close runs even on cancellation (the sink lifecycle promises it); the
	// context error still wins as the join's outcome.
	closeErr := out.Close()
	if err := core.Checkpoint(ctx, rt, lease); err != nil {
		return nil, err
	}
	if closeErr != nil {
		return nil, closeErr
	}

	res.Matches = out.Matches()
	res.MaxSum = out.MaxSum()
	res.Batch.Batches, res.Batch.Tuples = out.Batches()
	res.Total = time.Since(start)
	if opts.TrackNUMA {
		res.NUMA = rt.NUMAStats()
		res.SimulatedNUMACost = opts.CostModel.Estimate(res.NUMA)
	}
	res.Scratch = lease.Stats()
	return res, nil
}

// chargeInterleaved charges n random accesses against a hash table whose
// memory is interleaved over all NUMA nodes: 1/nodes of them are local, the
// rest remote. read selects reads vs writes.
func chargeInterleaved(tracker *numa.Tracker, topo numa.Topology, n uint64, read bool) {
	if tracker == nil || n == 0 {
		return
	}
	local := n / uint64(topo.Nodes)
	remote := n - local
	if read {
		tracker.RandRead(tracker.Node(), local)
		tracker.RandRead((tracker.Node()+1)%topo.Nodes, remote)
	} else {
		tracker.RandWrite(tracker.Node(), local)
		tracker.RandWrite((tracker.Node()+1)%topo.Nodes, remote)
	}
}

// nextPow2 returns the smallest power of two >= n (and at least 1).
func nextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}
