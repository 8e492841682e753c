package core

import (
	"context"

	"repro/internal/memory"
	"repro/internal/numa"
	"repro/internal/sched"
)

// RuntimeFor creates the shared parallel runtime of one join execution from
// normalized options. It is exported, like LeaseFor, Checkpoint and
// Options.Normalize, for the hash-join baselines, which run on the same
// options, runtime and lease discipline as the MPSM variants.
func RuntimeFor(opts Options) *sched.Runtime {
	return sched.New(sched.Config{
		Workers:   opts.Workers,
		Topology:  opts.Topology,
		TrackNUMA: opts.TrackNUMA,
		Gate:      opts.Gate,
		Label:     opts.Owner.Label(),
		Faults:    opts.Faults,
	})
}

// LeaseFor checks out the join's scratch lease with fault injection armed.
func LeaseFor(opts Options) *memory.Lease {
	return opts.Scratch.AcquireFor(opts.Owner).InjectFaults(opts.Faults)
}

// Checkpoint is the phase-boundary error check of every algorithm: a
// recovered worker panic poisons the runtime and wins over plain
// cancellation; either way the lease is poisoned on panic so its buffers are
// quarantined rather than reused.
func Checkpoint(ctx context.Context, rt *sched.Runtime, lease *memory.Lease) error {
	if err := rt.Err(); err != nil {
		lease.Poison()
		return err
	}
	return ctx.Err()
}

// chunkSourceNode maps an input chunk index to the NUMA node its memory is
// assumed to live on: the input relation is spread over the nodes in
// contiguous blocks, so chunk w of T chunks lives on node w·N/T.
func chunkSourceNode(chunkIndex, workers int, topo numa.Topology) int {
	if workers <= 0 {
		return 0
	}
	node := chunkIndex * topo.Nodes / workers
	if node >= topo.Nodes {
		node = topo.Nodes - 1
	}
	return node
}
