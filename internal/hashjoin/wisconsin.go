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
// Both joins build and probe one table type, chainTable. The table is two
// int32 arrays over the build tuples where they lie: heads holds the first
// entry of every bucket's chain, next links entry i — which is build[i-1]
// itself, no copy — to the entry behind it. Entries count from 1, so entry 0
// ends a chain and clearing the heads empties the table. A bucket is the top
// bits of a Fibonacci hash of the key, and there are 8 heads per build tuple
// (rounded up to a power of two), a constant. Inserts swap a head in with
// compare-and-swap while more than one worker builds the table — the
// algorithm the paper describes — and with plain stores when one does: the
// no-partitioning join on one worker and every private table of the radix
// join. An insert also looks for its key on the chain it joins, so a build
// learns whether its keys are distinct — the paper's R side, unique keys
// probed by foreign keys — and over a distinct build every probe walk ends at
// its first match. The probe has two loops, chosen by the sink. Behind the
// max-sum and count sinks (sink.FoldsRanges) with no tie-break verifier,
// which keep nothing of a pair but its count and sum, the loop keeps the
// match count and the largest payload sum itself and hands both over once
// per probe. Every other sink gets the range loop, which appends each match's
// key and two payloads to three leased columns and cuts every full batch of
// them into range entries — one per matching probe tuple, the form every
// join hands its sink. The README's section on the hash-join baselines gives
// the measurements behind each choice, and the layouts that lost to it.
//
// The groupjoin (GroupJoin) builds the same table over the distinct keys of
// one input of a same-key join cluster and probes it with every other input:
// its probe loop (foldProbe) ends at the first entry with the key and folds
// the match into that entry's slot — key, count and value in one cache line —
// instead of emitting a pair. A probe tuple without a partner ends its walk at
// the slot of entry 0, a sentinel that holds its key, so the loop has no
// branch on whether the key is there. Where half of the probe tuples have no
// partner (262 144 probe tuples, 32 768 distinct keys, one worker) this loop
// takes 2.5 ms where one that branches on the miss and keeps the accumulators
// apart from the keys took 4.4 (CPU profile, 2-vCPU host).
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
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/mergejoin"
	"repro/internal/numa"
	"repro/internal/relation"
	"repro/internal/result"
	"repro/internal/sched"
)

// Options configures the hash-join baselines: the options struct of the MPSM
// variants, so one value configures all five algorithms. The hash joins read
// the worker, scheduler, morsel size, sink, key check, scratch, owner, gate,
// fault, NUMA and CollectPerWorker fields; they have no splitters, histograms
// or presorted fast paths, and they are inner equi-joins only — see validate.
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
// flagging a duplicate key in the executing worker's *dup and charging its
// tracker. An entry's slot is its index in the relation, so any worker may
// insert any block.
func insertBlock(ctx context.Context, table *chainTable, block relation.Chunk, shared bool, dup *bool, w *sched.Worker, topo numa.Topology) {
	lo, hi := block.Offset, block.Offset+block.Len()
	var retries uint64
	for at := lo; at < hi; at += cancelBlock {
		if sched.Canceled(ctx) {
			return
		}
		retries += table.insert(at, min(at+cancelBlock, hi), shared, dup)
	}
	if tracker := w.Tracker(); tracker != nil {
		// The hash table is interleaved across all nodes; on average
		// (nodes-1)/nodes of the random writes are remote. We charge them
		// round-robin. Synchronization is charged as executed: one
		// compare-and-swap per insert and retry, none for the plain stores of
		// a build that runs on one worker.
		n := uint64(hi - lo)
		chargeInterleaved(tracker, topo, n, (*numa.Tracker).RandWrite)
		if shared {
			tracker.Sync(n + retries)
		}
	}
}

// probeBlock probes the shared table with one block of a probe chunk,
// streaming matches into the executing worker's sink writer, folded where the
// sink folds.
func probeBlock(ctx context.Context, table *chainTable, tuples []relation.Tuple, w *sched.Worker, topo numa.Topology, cons mergejoin.RangeConsumer, folds bool, lease *memory.Lease) {
	inspected := table.probe(ctx, tuples, cons, folds, lease)
	if tracker := w.Tracker(); tracker != nil {
		// Probing reads the local S chunk sequentially and the shared
		// table randomly across all nodes.
		tracker.SeqRead(tracker.Node(), uint64(len(tuples)))
		chargeInterleaved(tracker, topo, inspected+uint64(len(tuples)), (*numa.Tracker).RandRead)
	}
}

// runChunks runs fn over the chunks of a relation as one phase: every worker
// over its own chunk under static scheduling; under Morsel, over blocks of at
// most opts.MorselSize tuples that idle workers steal. The blocks carry no
// NUMA placement: the shared table is interleaved over all nodes, so no
// worker is closer to a block's hash buckets than any other.
func runChunks(ctx context.Context, x *core.Exec, name string, chunks []relation.Chunk, fn func(ctx context.Context, block relation.Chunk, w *sched.Worker)) time.Duration {
	if x.Opts.Scheduler != sched.Morsel {
		return x.RT.Phase(ctx, name, func(ctx context.Context, w *sched.Worker) { fn(ctx, chunks[w.ID()], w) })
	}
	var tasks []sched.Task
	for _, chunk := range chunks {
		sched.ForEachSegment(len(chunk.Tuples), x.Opts.MorselSize, func(lo, hi int) {
			block := relation.Chunk{Worker: chunk.Worker, Offset: chunk.Offset + lo, Tuples: chunk.Tuples[lo:hi]}
			tasks = append(tasks, sched.Task{Node: -1, Run: func(w *sched.Worker) { fn(ctx, block, w) }})
		})
	}
	return x.RT.RunTasks(ctx, name, tasks)
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
	x, err := core.Begin(ctx, "Wisconsin", opts)
	if err != nil {
		return nil, err
	}
	defer x.Release()
	opts, workers := x.Opts, x.Opts.Workers
	table := newChainTable(r.Tuples, x.Lease)

	// Build phase: every worker inserts its chunk into the shared table
	// (static), or idle workers steal insert blocks (morsel). The bucket
	// heads are shared as soon as there is a second worker; each flags the
	// duplicates it meets in its own dups entry.
	shared := workers > 1
	dups := make([]bool, workers)
	if err := x.Record("build", runChunks(ctx, x, "build", r.Split(workers), func(ctx context.Context, block relation.Chunk, w *sched.Worker) {
		insertBlock(ctx, &table, block, shared, &dups[w.ID()], w, opts.Topology)
	})); err != nil {
		return nil, err
	}
	table.distinct = !slices.Contains(dups, true)

	// Probe phase: every worker probes with its chunk of S, streaming
	// matches into its private sink writer.
	out := x.Bind()
	folds := x.Folds()
	if err := x.Record("probe", runChunks(ctx, x, "probe", s.Split(workers), func(ctx context.Context, block relation.Chunk, w *sched.Worker) {
		probeBlock(ctx, &table, block.Tuples, w, opts.Topology, out.Writer(w.ID()), folds, x.Lease)
	})); err != nil {
		return nil, err
	}
	return x.Finish(nil, nil)
}

// chargeInterleaved charges n accesses of one kind — a numa.Tracker method
// such as (*numa.Tracker).RandRead — against memory interleaved over all NUMA
// nodes: 1/nodes of them are local, the rest remote.
func chargeInterleaved(tracker *numa.Tracker, topo numa.Topology, n uint64, charge func(t *numa.Tracker, node int, n uint64)) {
	if tracker == nil || n == 0 {
		return
	}
	local := n / uint64(topo.Nodes)
	charge(tracker, tracker.Node(), local)
	charge(tracker, (tracker.Node()+1)%topo.Nodes, n-local)
}

// nextPow2 returns the smallest power of two >= n (and at least 1).
func nextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}
