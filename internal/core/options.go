// Package core implements the massively parallel sort-merge join algorithms
// of the paper: the basic B-MPSM (Section 2.1), the range-partitioned P-MPSM
// with histogram/CDF-based skew handling (Sections 3.2 and 4), and the
// disk-enabled, memory-constrained D-MPSM (Section 3.1).
//
// All variants follow the three NUMA commandments by construction:
//
//	C1  sorting happens only on worker-local runs,
//	C2  remote runs are read strictly sequentially during the join phase,
//	C3  no fine-grained synchronization — workers only meet at phase barriers,
//	    and the partitioning phase writes to precomputed, disjoint ranges.
package core

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/faultinject"
	"repro/internal/memory"
	"repro/internal/mergejoin"
	"repro/internal/numa"
	"repro/internal/sched"
	"repro/internal/sink"
)

// SplitterStrategy selects how P-MPSM determines the range-partition bounds of
// the private input.
type SplitterStrategy int

const (
	// SplitterEquiCost balances the combined sort-plus-join cost per worker
	// using the global R histogram and the S CDF (Section 4.3). This is the
	// paper's skew-resilient default.
	SplitterEquiCost SplitterStrategy = iota
	// SplitterEquiHeight balances only the R tuple counts per worker,
	// ignoring S (the Figure 16(b) baseline).
	SplitterEquiHeight
	// SplitterUniform partitions the key domain into equally wide radix
	// ranges regardless of the data (the static bounds of Section 3.2.1).
	SplitterUniform
)

// String implements fmt.Stringer.
func (s SplitterStrategy) String() string {
	switch s {
	case SplitterEquiCost:
		return "equi-cost"
	case SplitterEquiHeight:
		return "equi-height"
	case SplitterUniform:
		return "uniform"
	default:
		return fmt.Sprintf("SplitterStrategy(%d)", int(s))
	}
}

// Options configures the MPSM join variants.
type Options struct {
	// Workers is the degree of parallelism T; 0 selects GOMAXPROCS.
	Workers int

	// Kind selects the join semantics (inner, left-outer, semi, anti). The
	// zero value is an inner join. Non-inner kinds are supported by B-MPSM
	// and P-MPSM; the paper names them as future work and they fit MPSM
	// naturally because each worker owns a disjoint part of the private
	// input and sees all of its potential partners. They run on the same
	// column runs and merge kernel as inner joins, behind a mergejoin.Marker
	// that classifies the private key groups. D-MPSM is inner-only
	// (exec.validateJoin rejects the rest) and the hash joins return an
	// error.
	Kind mergejoin.Kind

	// Band turns the equi-join into a non-equi band join: tuples match when
	// |R.key − S.key| <= Band. It requires Kind == Inner and is supported by
	// B-MPSM and P-MPSM (another of the paper's future-work join variants;
	// the sorted runs make the matching window contiguous).
	Band uint64

	// HistogramBits is the number of leading key bits B used for the
	// fine-grained histogram on the private input (Section 4.2). It is
	// clamped to at least ceil(log2(Workers)) so that there is at least one
	// radix cluster per worker; 0 selects the default of 10 bits (1024
	// clusters), the granularity of the paper's Figure 16 experiment.
	HistogramBits int

	// Splitters selects the range-partition strategy of P-MPSM.
	Splitters SplitterStrategy

	// CDFBoundsPerRun is the number of equi-height bounds f·T each worker
	// contributes to the global S CDF (Section 4.1); 0 selects 4·Workers.
	CDFBoundsPerRun int

	// PresortedPublic declares that the public input is already globally
	// sorted by join key, letting the run-generation phase skip sorting
	// (the paper: "presorted relations can obviously be exploited to omit
	// one or both sorting phases"). Each chunk is still verified with a
	// cheap linear check and sorted if the declaration turns out false.
	PresortedPublic bool
	// PresortedPrivate is the same declaration for the private input. It
	// benefits B-MPSM's phase 2; P-MPSM re-partitions the private input and
	// must sort the resulting partitions regardless.
	PresortedPrivate bool

	// CollectPerWorker records per-worker phase breakdowns (Figure 16).
	CollectPerWorker bool

	// Scheduler selects how the match phase is mapped onto workers.
	// sched.Static (the default) is the paper-faithful barrier-only mode:
	// worker w joins exactly its own private run, and load balance rests on
	// the splitters. sched.Morsel splits the match phase into small
	// (private-segment, public-run) morsels that idle workers steal with a
	// NUMA-locality preference, closing the straggler gap that splitter
	// estimation errors or value skew leave open.
	Scheduler sched.Mode
	// MorselSize is the number of private-run tuples per morsel in the
	// morsel-driven in-memory match phases (B-MPSM, P-MPSM); 0 selects
	// 8192. Smaller morsels balance better but pay more dispatch overhead.
	// D-MPSM's disk-paged match phase always uses whole (private-run,
	// public-run) pairs as its morsels and ignores this setting.
	MorselSize int

	// BatchSize is the number of range entries per batch of merge output in
	// the match phases of B-MPSM and P-MPSM: the merge kernel emits one entry
	// per matching key group and hands the sink a batch at a time (expanded,
	// for sinks that take no ranges, into column batches of as many pairs).
	// 0 or a negative value selects batch.DefaultSize. D-MPSM and the hash
	// joins ignore it.
	BatchSize int

	// Sink receives the joined tuple stream. A nil Sink selects the built-in
	// max-sum aggregate of the paper's evaluation query, which preserves the
	// legacy fire-and-forget Join semantics.
	Sink sink.Sink

	// KeyCheck, when non-nil, verifies every candidate pair before it is
	// counted or handed to the sink — the tie-break path of normalized-key
	// execution, where equal uint64 keys are only 8-byte prefixes of the
	// full composite key. Nil (the default, and the raw-uint64 fast path)
	// delivers pairs unverified at zero overhead.
	KeyCheck sink.PairCheck

	// Scratch, when non-nil, is the engine-wide scratch pool the join draws
	// its run, partition, histogram and cursor buffers from instead of
	// allocating fresh ones; see internal/memory. Every join checks out its
	// own lease, so concurrent joins may share one pool.
	Scratch *memory.Pool
	// Owner attributes the join's scratch lease to a query's admission
	// reservation, so that memory.PoolStats reports the join's in-use bytes
	// under the query's label. Nil leaves the lease unattributed.
	Owner *memory.Reservation

	// Gate, when non-nil, subjects the join's worker goroutines to the
	// serving layer's weighted fair-share arbiter: each phase (Static) or
	// morsel (Morsel) acquires an execution slot before running, so
	// concurrent queries interleave instead of contending FIFO-style.
	Gate *sched.Ticket

	// Faults, when non-nil, arms deterministic fault injection inside the
	// join's workers and scratch lease; see internal/faultinject. Nil (the
	// default) injects nothing.
	Faults *faultinject.Set

	// TrackNUMA enables simulated NUMA access accounting.
	TrackNUMA bool
	// Topology is the simulated NUMA topology; the zero value selects the
	// paper's 4-node × 8-core machine.
	Topology numa.Topology
	// CostModel converts access statistics into a simulated duration; the
	// zero value selects the calibrated default model.
	CostModel numa.CostModel
}

// Normalize fills in defaults and derived values.
func (o Options) Normalize() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.HistogramBits <= 0 {
		o.HistogramBits = 10
	}
	if minBits := log2ceil(o.Workers); o.HistogramBits < minBits {
		o.HistogramBits = minBits
	}
	if o.HistogramBits > 20 {
		o.HistogramBits = 20
	}
	if o.CDFBoundsPerRun <= 0 {
		o.CDFBoundsPerRun = 4 * o.Workers
	}
	if o.MorselSize <= 0 {
		o.MorselSize = sched.DefaultMorselSize
	}
	if o.Topology.Nodes == 0 {
		o.Topology = numa.DefaultTopology()
	}
	if o.CostModel == (numa.CostModel{}) {
		o.CostModel = numa.DefaultCostModel()
	}
	return o
}

// canceled reports whether the context has been canceled without blocking.
// The MPSM variants call it at phase boundaries and once per chunk of work
// inside the sort and merge loops (per public run, per page), so a canceled
// join stops within one chunk of processing per worker.
func canceled(ctx context.Context) bool { return mergejoin.Canceled(ctx) }

// log2ceil returns ceil(log2(n)) for n >= 1 and 0 otherwise.
func log2ceil(n int) int {
	b := 0
	for (1 << b) < n {
		b++
	}
	return b
}
