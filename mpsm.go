// Package mpsm is a Go implementation of the massively parallel sort-merge
// (MPSM) join algorithms of Albutiu, Kemper and Neumann, "Massively Parallel
// Sort-Merge Joins in Main Memory Multi-Core Database Systems" (VLDB 2012),
// together with the substrates the paper builds on and the baselines it
// compares against.
//
// The package exposes:
//
//   - the three MPSM variants: B-MPSM (basic, skew-immune), P-MPSM
//     (range-partitioned with histogram/CDF-based load balancing — the
//     paper's main contribution) and D-MPSM (disk-enabled, memory
//     constrained);
//   - two hash-join baselines: the "Wisconsin" no-partitioning shared hash
//     join and a radix-partitioned hash join in the MonetDB/Vectorwise
//     lineage;
//   - a workload generator reproducing the paper's evaluation datasets
//     (uniform, 80:20 skew, negatively correlated skew, location skew,
//     multiplicities 1–16);
//   - a simulated NUMA model that classifies memory accesses and prices them
//     with a calibrated cost model, substituting for hardware NUMA control
//     that Go does not expose.
//
// # The Engine API
//
// An Engine is constructed once with functional options and then runs any
// number of joins; it is safe for concurrent use:
//
//	engine := mpsm.New(mpsm.WithWorkers(8), mpsm.WithNUMATracking())
//	res, err := engine.Join(ctx, r, s)                      // max-sum aggregate
//	res, err = engine.Join(ctx, r, s, mpsm.WithAlgorithm(mpsm.BMPSM))
//
// Every join streams its matching (r, s) pairs into a Sink. The default sink
// reproduces the paper's evaluation query max(R.payload + S.payload); the
// other built-ins materialize, count, or keep the top-k pairs:
//
//	top := mpsm.NewTopKSink(10)
//	_, err := engine.Join(ctx, r, s, mpsm.WithSink(top))
//	for _, p := range top.Top() { ... }
//
// JoinStream exposes the same stream as a range-over-func iterator:
//
//	seq, errf := engine.JoinStream(ctx, r, s)
//	for rt, st := range seq { ... }  // breaking out cancels the join
//	if err := errf(); err != nil { ... }
//
// All joins honour context cancellation: the context is checked at phase
// boundaries and once per chunk inside the sort and merge loops, so a
// canceled context aborts a long join promptly with ctx.Err().
//
// Every algorithm runs on a shared parallel runtime. B-MPSM, P-MPSM and the
// Wisconsin join have two scheduling modes: Static (the paper-faithful
// default — work is fixed per worker and workers meet only at phase
// barriers) and Morsel (the match phase is split into small morsels that idle
// workers steal with a NUMA-locality preference, balancing skew the static
// splitters cannot). D-MPSM always walks the paper's global page index, and
// the radix join always claims partition pairs dynamically. Both modes
// produce identical results:
//
//	res, err := engine.Join(ctx, r, s, mpsm.WithScheduler(mpsm.Morsel))
//
// A long-lived Engine serving many joins should enable the engine-wide
// scratch pool, which reuses run, partition, histogram and hash-table
// buffers across joins (including concurrent ones) and makes the steady
// state essentially allocation-free:
//
//	engine := mpsm.New(mpsm.WithScratchPool(true), mpsm.WithPoolLimit(1<<30))
//
// # Operator plans
//
// Beyond single joins, the engine executes composable operator plans: DAGs
// of Scan, Join, Project/Map, GroupAggregate and Sink nodes. Sort-merge
// joins compose without re-sorting because the MPSM join phase consumes and
// produces key-ordered runs — a join feeding a join materializes its
// projected output through the scratch pool, and a GroupAggregate above a
// join (directly or through a Project, whatever the algorithm) fuses into the
// join's sink: workers fold equal keys as pairs arrive, and one parallel
// sort-based kernel — range partitioning plus the run-generation radix sort —
// finalises the groups, with no materialized join output and no hash table:
//
//	plan := mpsm.NewPlan()
//	rs := plan.Join(plan.Scan(r), plan.Scan(s))   // R ⋈ S
//	rst := plan.Join(rs, plan.Scan(t))            // (R ⋈ S) ⋈ T
//	plan.GroupAggregate(rst, mpsm.AggSum)         // SUM(...) GROUP BY key
//	res, err := engine.RunPlan(ctx, plan)
//	// res.Output: one {key, sum} tuple per group, ascending
//
// The same plan can be written as a Datalog-style rule and compiled with
// Compile (or run in one step with Engine.Query / Service.Query); see the
// Compile documentation for the language:
//
//	cat := mpsm.MapCatalog{"r": r, "s": s, "t": t}
//	res, err := engine.Query(ctx,
//	        "ans(K, Sum) :- r(K, _), s(K, _), t(K, Z), agg sum(Z)", cat)
//
// # Auto-planning
//
// With WithAutoPlan(true) the engine stops taking physical orders: sampled
// relation statistics feed a calibrated cost model that picks the join
// algorithm per join, orders multi-join chains by estimated intermediate
// size, reverses build/probe roles where safe, declares presorted inputs,
// runs a group-by on the join key as a groupjoin where that prices cheaper,
// and chooses every join's worker count: a join it runs on one worker runs
// Static, a wider join runs the configured scheduling mode. Explain and
// ExplainAnalyze describe the chosen physical plan with estimated (and
// actual) cardinalities:
//
//	engine := mpsm.New(mpsm.WithAutoPlan(true))
//	res, err := engine.Join(ctx, r, s)   // algorithm picked from the data
//	ex, err := engine.Explain(plan)      // plan tree + estimates + rationale
//
// See the examples directory for runnable scenarios. cmd/mpsmbench prints
// the tables of the paper's evaluation section (Figures 1, 9 and 12–16, the
// Section 2.3 sort, B- vs P-MPSM, D-MPSM under a page budget, morsel
// scheduling under skew); the end-to-end benchmark in benchmark/ measures
// the program as a whole.
package mpsm

import (
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/memory"
	"repro/internal/mergejoin"
	"repro/internal/numa"
	"repro/internal/relation"
	"repro/internal/result"
	"repro/internal/sched"
	"repro/internal/workload"
)

// Tuple is a single row: a 64-bit join key and a 64-bit payload.
type Tuple = relation.Tuple

// Relation is an in-memory table held as a flat slice of tuples.
type Relation = relation.Relation

// Result describes the outcome of a join execution, including the per-phase
// timing breakdown, the join cardinality, the max(R.payload+S.payload)
// aggregate, and (when enabled) the simulated NUMA statistics.
type Result = result.Result

// Phase is one timed phase of a join execution.
type Phase = result.Phase

// AccessStats are the simulated NUMA access counters of a join execution.
type AccessStats = numa.AccessStats

// Topology describes a simulated NUMA machine (nodes × cores per node).
type Topology = numa.Topology

// DiskStats reports the storage behaviour of a D-MPSM execution.
type DiskStats = core.DiskStats

// ScratchStats reports one join's scratch-pool traffic (see Result.Scratch).
type ScratchStats = memory.LeaseStats

// BatchStats reports a join's batch traffic across the sink boundary (see
// Result.Batch): the range batches the merge kernel or a hash-join probe
// delivered — or the folds a hash-join probe handed the max-sum and count
// sinks — and the pairs they carried. Every join delivers batches and
// nothing else, so Tuples equals Result.Matches.
type BatchStats = result.BatchStats

// PoolStats reports the cumulative behaviour of an Engine's scratch pool
// (see Engine.PoolStats).
type PoolStats = memory.PoolStats

// NewRelation wraps a tuple slice as a relation without copying.
func NewRelation(name string, tuples []Tuple) *Relation { return relation.New(name, tuples) }

// Algorithm selects a join implementation.
type Algorithm = exec.Algorithm

// Available join algorithms.
const (
	PMPSM     = exec.AlgorithmPMPSM
	BMPSM     = exec.AlgorithmBMPSM
	DMPSM     = exec.AlgorithmDMPSM
	Wisconsin = exec.AlgorithmWisconsin
	RadixHash = exec.AlgorithmRadix
)

// ParseAlgorithm converts an algorithm name into an Algorithm. Matching is
// case-insensitive and ignores spaces and hyphens, so the String() forms
// ("P-MPSM", "Radix HJ") round-trip alongside the command-line short forms
// ("pmpsm", "radix").
func ParseAlgorithm(name string) (Algorithm, error) { return exec.ParseAlgorithm(name) }

// SplitterStrategy selects how P-MPSM balances its range partitions.
type SplitterStrategy = core.SplitterStrategy

// Available splitter strategies for P-MPSM.
const (
	// SplitterEquiCost balances each worker's sort and match cost, priced
	// from the global R histogram and the S CDF as the accesses those phases
	// book, at the prices and cache ramp the planner uses (the paper's
	// skew-resilient default).
	SplitterEquiCost = core.SplitterEquiCost
	// SplitterEquiHeight balances only R tuple counts (Figure 16 baseline).
	SplitterEquiHeight = core.SplitterEquiHeight
	// SplitterUniform uses static, data-oblivious key ranges.
	SplitterUniform = core.SplitterUniform
)

// Scheduler selects how the match phase of a join is mapped onto workers.
type Scheduler = sched.Mode

// Available scheduling modes.
const (
	// Static is the paper-faithful mode: work is assigned up front and
	// workers synchronize only at phase barriers (commandment C3). This is
	// the default.
	Static = sched.Static
	// Morsel splits the match phase into small morsels that idle workers
	// steal with a NUMA-locality preference, balancing skew that static
	// splitters cannot. Results are identical to Static.
	Morsel = sched.Morsel
)

// ParseScheduler converts a scheduling-mode name ("static", "morsel") into a
// Scheduler. Matching is case-insensitive.
func ParseScheduler(name string) (Scheduler, error) { return sched.ParseMode(name) }

// JoinKind selects the join semantics (inner, left-outer, semi, anti).
type JoinKind = mergejoin.Kind

// Available join kinds. Non-inner kinds are supported by the B-MPSM and
// P-MPSM algorithms (the paper lists them as natural extensions of MPSM).
const (
	// InnerJoin emits one result per matching (r, s) pair.
	InnerJoin = mergejoin.Inner
	// LeftOuterJoin additionally emits unmatched private tuples with a
	// zero-valued public side.
	LeftOuterJoin = mergejoin.LeftOuter
	// SemiJoin emits each private tuple with at least one match, once.
	SemiJoin = mergejoin.Semi
	// AntiJoin emits each private tuple without any match.
	AntiJoin = mergejoin.Anti
)

// DiskConfig configures the disk-enabled D-MPSM variant (see WithDisk): the
// page size, the page budget of the buffer pool, and the simulated per-page
// read and write latency. The prefetcher runs a fixed 8 pages ahead.
type DiskConfig = core.DiskOptions

// Skew describes the key-value distribution of a generated relation.
type Skew = workload.Skew

// Available key distributions for generated relations.
const (
	// SkewNone draws keys uniformly from the domain.
	SkewNone = workload.SkewNone
	// SkewLow80 draws 80% of the keys from the lowest 20% of the domain.
	SkewLow80 = workload.SkewLow80
	// SkewHigh80 draws 80% of the keys from the highest 20% of the domain.
	SkewHigh80 = workload.SkewHigh80
)

// GenerateUniform creates a relation of n tuples with uniformly distributed
// 64-bit keys in [0, 2^32) and pseudo-random payloads, matching the paper's
// dataset format.
func GenerateUniform(name string, n int, seed uint64) *Relation {
	return workload.UniformRelation(name, n, workload.DefaultKeyDomain, seed)
}

// GenerateSkewed creates a relation of n tuples with an 80:20-skewed key
// distribution over [0, 2^32).
func GenerateSkewed(name string, n int, skew Skew, seed uint64) *Relation {
	return workload.SkewedRelation(name, n, workload.DefaultKeyDomain, skew, seed)
}

// GenerateSkewedWithDomain is GenerateSkewed with an explicit key domain
// [0, domain). Smaller domains increase the key density and therefore the join
// selectivity, which keeps skew experiments meaningful at small scale.
func GenerateSkewedWithDomain(name string, n int, domain uint64, skew Skew, seed uint64) *Relation {
	return workload.SkewedRelation(name, n, domain, skew, seed)
}

// GenerateForeignKey creates a relation of n tuples whose keys are sampled
// from the parent relation's keys, guaranteeing join partners (a fact table
// referencing a dimension table).
func GenerateForeignKey(name string, parent *Relation, n int, seed uint64) *Relation {
	return workload.ForeignKeyRelation(name, parent, n, seed)
}
