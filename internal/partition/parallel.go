package partition

import (
	"context"

	"repro/internal/memory"
	"repro/internal/numa"
	"repro/internal/relation"
	"repro/internal/sched"
	"repro/internal/sorting"
)

// Counted is a parallel radix count of one or more inputs, each cut into one
// chunk per worker of a runtime: Count takes it, the caller maps its clusters
// to partitions, and Scatter moves every tuple into its partition.
type Counted struct {
	// Config is the radix configuration of the exact key domain of all the
	// inputs together, so that their clusters line up.
	Config RadixConfig
	// Hists[i][w] is the histogram of input i's chunk w.
	Hists [][]Histogram
	// MaxKey is the largest key of the inputs and PayBound the OR of their
	// payloads.
	MaxKey, PayBound uint64

	rt     *sched.Runtime
	phase  string
	inputs [][]relation.Chunk
	lease  *memory.Lease
	charge Charge
}

// Charge is how a caller models the NUMA traffic of worker w's share of a
// count or scatter barrier over its chunk of input i: written is nil in a
// count and, in a scatter, the number of tuples the worker wrote into each
// partition. It is called only for workers that track NUMA accesses.
type Charge func(t *numa.Tracker, w, input int, written []int)

// Count counts, on the given number of leading key bits, every worker's chunk
// of every input — inputs[i][w] is input i's chunk for worker w — in one
// barrier of rt named phase. The same read takes each chunk's maximum key and
// payload OR (sorting.CountTuples). It counts at the configuration that a
// sample of every chunk guesses (sorting.GuessMaxKey), which is never too
// wide; when the exact maximum shows the guess too narrow, a second barrier
// counts again at the exact configuration. Histograms are leased from lease
// (nil allocates). Count returns nil if the context is canceled or a worker
// panicked.
func Count(ctx context.Context, rt *sched.Runtime, phase string, bits int, inputs [][]relation.Chunk, lease *memory.Lease, charge Charge) *Counted {
	var guess uint64
	for _, chunks := range inputs {
		for _, chunk := range chunks {
			guess = max(guess, sorting.GuessMaxKey(chunk.Tuples))
		}
	}
	c := &Counted{Config: NewRadixConfig(bits, guess), Hists: make([][]Histogram, len(inputs)),
		rt: rt, phase: phase, inputs: inputs, lease: lease, charge: charge}
	for i := range c.Hists {
		c.Hists[i] = make([]Histogram, rt.Workers())
	}
	maxKeys, payBounds := make([]uint64, rt.Workers()), make([]uint64, rt.Workers())
	count := func(ctx context.Context, w *sched.Worker) {
		for i, chunks := range inputs {
			h := lease.Ints(c.Config.Clusters())
			c.Hists[i][w.ID()] = h
			m, p := sorting.CountTuples(h, chunks[w.ID()].Tuples, int(c.Config.Shift))
			maxKeys[w.ID()], payBounds[w.ID()] = max(maxKeys[w.ID()], m), payBounds[w.ID()]|p
			if t := w.Tracker(); t != nil && charge != nil {
				charge(t, w.ID(), i, nil)
			}
		}
	}
	for { // at most twice: the second count is at the exact configuration
		rt.Phase(ctx, phase, count)
		if sched.Canceled(ctx) || rt.Err() != nil {
			return nil
		}
		for w, m := range maxKeys {
			c.MaxKey, c.PayBound = max(c.MaxKey, m), c.PayBound|payBounds[w]
		}
		exact := NewRadixConfig(bits, c.MaxKey)
		if exact == c.Config {
			return c
		}
		c.Config = exact
	}
}

// Scatter moves every tuple of every input into its partition in one barrier:
// sp maps the clusters to parts partitions, and every worker writes its chunk
// latch-free into its own precomputed range of each partition
// (ComputePrefixSums). targets[i][p] is input i's partition p, leased from
// Count's lease; on cancellation it is partly written.
func (c *Counted) Scatter(ctx context.Context, sp SplitterVector, parts int) (targets [][][]relation.Tuple) {
	sums := make([]PrefixSums, len(c.inputs))
	targets = make([][][]relation.Tuple, len(c.inputs))
	for i, hists := range c.Hists {
		sums[i] = ComputePrefixSums(hists, sp, parts)
		targets[i] = make([][]relation.Tuple, parts)
		for p, size := range sums[i].Sizes {
			targets[i][p] = c.lease.Tuples(size)
		}
	}
	c.rt.Phase(ctx, c.phase, func(ctx context.Context, w *sched.Worker) {
		cursors := c.lease.Ints(parts)
		for i, chunks := range c.inputs {
			offsets := sums[i].Offsets[w.ID()]
			copy(cursors, offsets)
			Scatter(chunks[w.ID()].Tuples, c.Config, sp, targets[i], cursors)
			if t := w.Tracker(); t != nil && c.charge != nil {
				for p, o := range offsets {
					cursors[p] -= o
				}
				c.charge(t, w.ID(), i, cursors)
			}
		}
		c.lease.PutInts(cursors)
	})
	return targets
}
