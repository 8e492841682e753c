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
// Both implementations report the same result and phase-timing structure as
// the MPSM variants so that the experiment harness can reproduce Figures 12
// and 13, and both run on the shared parallel runtime of internal/sched, so
// the Static and Morsel scheduling modes apply to them too.
package hashjoin

import (
	"context"
	"fmt"
	"math/bits"
	"sync/atomic"
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
// than silently running an inner equi-join in their place.
func validate(algorithm string, o Options) error {
	if o.Kind != mergejoin.Inner {
		return fmt.Errorf("hashjoin: %s supports inner joins only, got kind %v", algorithm, o.Kind)
	}
	if o.Band != 0 {
		return fmt.Errorf("hashjoin: %s supports equi-joins only, got band width %d", algorithm, o.Band)
	}
	return nil
}

// sharedTable is the global hash table of the no-partitioning join. Bucket
// heads are updated with compare-and-swap, modelling the latched/atomic
// inserts of the original implementation. Entries are stored as two parallel
// arrays — the (key, payload) tuples and the chain links — so that both can
// be drawn from the scratch pool's standard buffer classes.
type sharedTable struct {
	mask    uint64
	heads   []int32          // index into entries, -1 if empty
	entries []relation.Tuple // entry slot i holds the build tuple
	next    []int32          // next[i] chains entry i, -1 terminates
}

// newSharedTable sizes the table to the next power of two of at least
// 2·capacity buckets, drawing the arrays from the lease when one is given.
func newSharedTable(capacity int, lease *memory.Lease) *sharedTable {
	size := 1
	for size < 2*capacity {
		size <<= 1
	}
	heads := lease.Int32s(size)
	for i := range heads {
		heads[i] = -1
	}
	return &sharedTable{
		mask:    uint64(size - 1),
		heads:   heads,
		entries: lease.Tuples(capacity),
		next:    lease.Int32s(capacity),
	}
}

// hashKey is a Fibonacci (multiplicative) hash spreading keys over buckets.
func hashKey(key uint64) uint64 {
	return key * 0x9e3779b97f4a7c15
}

// bucketOf returns the bucket index for a key.
func (t *sharedTable) bucketOf(key uint64) uint64 {
	return (hashKey(key) >> 16) & t.mask
}

// insert adds the tuple stored at entry slot slot to the table. The entry
// slot itself is owned exclusively by the inserting worker (slots are
// pre-assigned by chunk offsets), but the bucket head is shared and updated
// with CAS, which is the synchronization the paper's commandment C3 warns
// about.
func (t *sharedTable) insert(slot int32, tup relation.Tuple) (casRetries uint64) {
	t.entries[slot] = tup
	b := t.bucketOf(tup.Key)
	for {
		old := atomic.LoadInt32(&t.heads[b])
		t.next[slot] = old
		if atomic.CompareAndSwapInt32(&t.heads[b], old, slot) {
			return casRetries
		}
		casRetries++
	}
}

// probe walks the chain of the probe key's bucket and feeds every match to
// the consumer. It returns the number of entries inspected.
func (t *sharedTable) probe(tup relation.Tuple, out mergejoin.Consumer) (inspected uint64) {
	b := t.bucketOf(tup.Key)
	for idx := atomic.LoadInt32(&t.heads[b]); idx >= 0; idx = t.next[idx] {
		inspected++
		if t.entries[idx].Key == tup.Key {
			out.Consume(t.entries[idx], tup)
		}
	}
	return inspected
}

// insertBlock inserts one block of a build chunk into the shared table,
// charging the executing worker's tracker. Entry slots are pre-assigned by
// the tuple's global offset, so any worker may insert any block.
func insertBlock(table *sharedTable, tuples []relation.Tuple, baseSlot int, ctx context.Context, w *sched.Worker, topo numa.Topology) {
	var retries uint64
	for i, tup := range tuples {
		if i%cancelBlock == 0 && mergejoin.Canceled(ctx) {
			return
		}
		retries += table.insert(int32(baseSlot+i), tup)
	}
	if tracker := w.Tracker(); tracker != nil {
		// The hash table is interleaved across all nodes; on average
		// (nodes-1)/nodes of the random writes are remote. We charge them
		// round-robin.
		n := uint64(len(tuples))
		chargeInterleaved(tracker, topo, n, false)
		tracker.Sync(n + retries)
	}
}

// probeBlock probes the shared table with one block of a probe chunk,
// streaming matches into the executing worker's sink writer. Matches are
// buffered into columnar batches and flushed through the sink's batch fast
// path once per batch.
func probeBlock(table *sharedTable, tuples []relation.Tuple, ctx context.Context, w *sched.Worker, topo numa.Topology, cons mergejoin.Consumer, lease *memory.Lease) {
	pb := newProbeBatch(cons, lease)
	defer pb.close()
	var inspected uint64
	for i, tup := range tuples {
		if i%cancelBlock == 0 && mergejoin.Canceled(ctx) {
			return
		}
		inspected += table.probe(tup, pb)
	}
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
	if err := validate("the Wisconsin hash join", opts); err != nil {
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

	table := newSharedTable(r.Len(), lease)
	rChunks := r.Split(workers)
	sChunks := s.Split(workers)

	// Build phase: every worker inserts its chunk into the shared table
	// (static), or idle workers steal insert blocks (morsel).
	var buildTime time.Duration
	if opts.Scheduler == sched.Morsel {
		buildTime = rt.RunTasks(ctx, "build", blockTasks(rChunks, opts.MorselSize, func(block relation.Chunk, w *sched.Worker) {
			insertBlock(table, block.Tuples, block.Offset, ctx, w, opts.Topology)
		}))
	} else {
		buildTime = rt.Phase(ctx, "build", func(ctx context.Context, w *sched.Worker) {
			chunk := rChunks[w.ID()]
			insertBlock(table, chunk.Tuples, chunk.Offset, ctx, w, opts.Topology)
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
			probeBlock(table, block.Tuples, ctx, w, opts.Topology, out.Writer(w.ID()), lease)
		}))
	} else {
		probeTime = rt.Phase(ctx, "probe", func(ctx context.Context, w *sched.Worker) {
			probeBlock(table, sChunks[w.ID()].Tuples, ctx, w, opts.Topology, out.Writer(w.ID()), lease)
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
