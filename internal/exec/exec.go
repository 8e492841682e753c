// Package exec provides the query-execution layer around the join
// algorithms: a push-based plan of composable operators — Scan (relation +
// predicate), Join (any of the five algorithms), Project/Map,
// GroupAggregate, and a terminal Sink — validated and executed as a DAG.
//
// The structural property that makes sort-merge plans compose is the one the
// MPSM paper's join phase rests on: every worker merges its sorted private
// run against sorted public runs, so a join's output stream arrives as
// key-ordered segments. A GroupAggregate above a join — directly or through
// a Project — fuses into the join's sink: the per-worker writers of
// sink.Groups fold consecutive equal keys as pairs arrive (over key-ordered
// segments that collapses the stream to one entry per key and public run) and
// the kernel finalises the entries by range partitioning and radix sorting,
// in parallel, without materializing the join output or building a hash
// table; the same kernel aggregates materialized scan and map outputs. A join
// feeding another join materializes its projected output as an intermediate
// relation through the scratch pool, so deep plans stay allocation-free in
// steady state.
//
// The classic pipeline
//
//	scan(R), scan(S) → filter → join → sink
//
// of the paper's evaluation setup (Section 5.1) is just the one-join plan;
// Run builds exactly that plan. exec is also the dispatch layer of the public
// Engine API: Join maps an Algorithm onto the core and hashjoin
// implementations, threading the caller's context and sink through every one
// of them.
package exec

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/hashjoin"
	"repro/internal/relation"
	"repro/internal/result"
	"repro/internal/sched"
)

// Algorithm selects the join implementation used by a query.
type Algorithm int

const (
	// AlgorithmPMPSM is the range-partitioned MPSM join (the default).
	AlgorithmPMPSM Algorithm = iota
	// AlgorithmBMPSM is the basic MPSM join without range partitioning.
	AlgorithmBMPSM
	// AlgorithmDMPSM is the disk-enabled, memory-constrained MPSM join.
	AlgorithmDMPSM
	// AlgorithmWisconsin is the no-partitioning shared hash join baseline.
	AlgorithmWisconsin
	// AlgorithmRadix is the radix-partitioned hash join baseline
	// (the "Vectorwise-style" contender).
	AlgorithmRadix
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case AlgorithmPMPSM:
		return "P-MPSM"
	case AlgorithmBMPSM:
		return "B-MPSM"
	case AlgorithmDMPSM:
		return "D-MPSM"
	case AlgorithmWisconsin:
		return "Wisconsin"
	case AlgorithmRadix:
		return "Radix HJ"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// ParseAlgorithm converts an algorithm name into an Algorithm. Matching is
// case-insensitive and ignores spaces and hyphens, so both the command-line
// short forms ("pmpsm", "radix") and the String() forms ("P-MPSM",
// "Radix HJ") round-trip.
func ParseAlgorithm(name string) (Algorithm, error) {
	n := strings.ToLower(name)
	n = strings.ReplaceAll(n, " ", "")
	n = strings.ReplaceAll(n, "-", "")
	switch n {
	case "pmpsm", "mpsm":
		return AlgorithmPMPSM, nil
	case "bmpsm":
		return AlgorithmBMPSM, nil
	case "dmpsm":
		return AlgorithmDMPSM, nil
	case "wisconsin", "nophj":
		return AlgorithmWisconsin, nil
	case "radix", "vectorwise", "radixhj":
		return AlgorithmRadix, nil
	default:
		return 0, fmt.Errorf("exec: unknown join algorithm %q", name)
	}
}

// Predicate is a tuple-level selection predicate. A nil Predicate keeps every
// tuple.
//
// Predicates must be pure functions of the tuple: the scan evaluates them
// concurrently from several workers, once per tuple its key range lets
// through. A stateful predicate yields an unspecified selection — never memory
// corruption, but not a meaningful result either.
type Predicate func(relation.Tuple) bool

// KeyRange is the structured form of a key-range selection: it keeps tuples
// whose key lies in [Low, High). Unlike an opaque Predicate closure, the scan
// can recognize it and test membership branch-free — the borrow bit of an
// unsigned subtraction instead of a per-tuple function call — and the planner
// can narrow its estimates by it. High <= Low selects nothing.
type KeyRange struct {
	Low, High uint64
}

// Match reports whether a key lies in the range.
func (r KeyRange) Match(k uint64) bool {
	return r.Low <= k && k < r.High
}

// Predicate converts the range into an equivalent opaque predicate, for
// composing with code that wants a Predicate.
func (r KeyRange) Predicate() Predicate {
	return func(t relation.Tuple) bool { return r.Match(t.Key) }
}

// Query describes one execution of the pipeline
//
//	scan(R), scan(S) → filter → join → sink
//
// With the default sink it computes the paper's evaluation query
//
//	SELECT max(R.payload + S.payload)
//	FROM R, S
//	WHERE <RFilter(R)> AND <SFilter(S)> AND R.joinkey = S.joinkey
type Query struct {
	// R is the private (build) input, S the public (probe) input.
	R, S *relation.Relation
	// RFilter and SFilter are optional selections applied during the scan.
	RFilter, SFilter Predicate
	// RRange and SRange are optional structured key-range selections. They
	// run on the branch-free selection path; a filter and a range on the same
	// input compose (a tuple must satisfy both).
	RRange, SRange *KeyRange
	// Algorithm selects the join implementation.
	Algorithm Algorithm
	// JoinOptions configures the MPSM variants and, where applicable, the
	// hash-join baselines (worker count, NUMA tracking, splitters). Its Kind
	// field selects inner/left-outer/semi/anti semantics; non-inner kinds
	// are only supported by the B-MPSM and P-MPSM algorithms. Its Sink field
	// receives the joined tuple stream (nil selects the built-in max-sum
	// aggregate).
	JoinOptions core.Options
	// DiskOptions configures AlgorithmDMPSM.
	DiskOptions core.DiskOptions
}

// QueryResult is the outcome of a query execution: the join result plus the
// scan timing and the answer of the aggregate.
type QueryResult struct {
	// Join is the underlying join result (phase breakdown, NUMA stats, ...).
	Join *result.Result
	// ScanTime is the time spent scanning and filtering both inputs.
	ScanTime time.Duration
	// RSelected and SSelected are the input cardinalities after selection.
	RSelected, SSelected int
	// MaxSum is the query answer max(R.payload + S.payload); only meaningful
	// if Matches > 0 and the query ran with the default max-sum sink.
	MaxSum uint64
	// Matches is the join cardinality.
	Matches uint64
	// DiskStats is populated for AlgorithmDMPSM.
	DiskStats *core.DiskStats
}

// validate rejects queries with missing inputs or unsupported
// algorithm/kind/band combinations.
func (q Query) validate() error {
	if q.R == nil || q.S == nil {
		return fmt.Errorf("exec: query requires both inputs, got R=%v S=%v", q.R, q.S)
	}
	if err := validateJoin(q.Algorithm, q.JoinOptions); err != nil {
		return fmt.Errorf("exec: %w", err)
	}
	return nil
}

// Run executes the classic query pipeline — scan+filter both inputs, run the
// selected join with the caller's context and sink, collect the result — as
// the one-join plan
//
//	Scan(R) ─┐
//	         Join ─ Sink
//	Scan(S) ─┘
//
// A canceled context aborts the execution and returns ctx.Err().
func Run(ctx context.Context, q Query) (*QueryResult, error) {
	if err := q.validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p := &Plan{}
	rID := p.AddScanRange(q.R, q.RRange, q.RFilter)
	sID := p.AddScanRange(q.S, q.SRange, q.SFilter)
	jID := p.AddJoin(rID, sID, q.Algorithm, q.JoinOptions, q.DiskOptions)
	p.AddSink(jID, q.JoinOptions.Sink)

	pr, err := RunPlan(ctx, p, q.JoinOptions.Scratch)
	if err != nil {
		return nil, err
	}
	join := pr.Joins[0]
	return &QueryResult{
		Join:      join.Result,
		DiskStats: join.Disk,
		ScanTime:  pr.ScanTime,
		RSelected: pr.Rows[rID],
		SSelected: pr.Rows[sID],
		Matches:   pr.Matches,
		MaxSum:    pr.MaxSum,
	}, nil
}

// Join dispatches one join execution to the selected algorithm, threading the
// context and the sink carried in opts.Sink. It is the single entry point the
// public Engine and the Query pipeline share. DiskStats is non-nil only for
// AlgorithmDMPSM.
func Join(ctx context.Context, alg Algorithm, r, s *relation.Relation, opts core.Options, diskOpts core.DiskOptions) (res *result.Result, disk *core.DiskStats, err error) {
	// Worker panics are already recovered inside sched and arrive here as
	// *sched.PanicError return values; this recover is the coordinator-side
	// backstop for panics on the calling goroutine itself (splitter
	// computation, prefix sums, lease draws between phases). Either way the
	// failure domain is this query, not the process.
	defer func() {
		if r := recover(); r != nil {
			res, disk = nil, nil
			err = sched.Recovered(opts.Owner.Label(), "join", -1, r)
		}
	}()
	// Normalized-key inputs select their verification regime here, at plan
	// time: raw or exact-schema inputs keep KeyCheck nil (the zero-overhead
	// fast path), inexact inputs get the tie-break verifier. Callers that
	// pre-set KeyCheck keep their own.
	if opts.KeyCheck == nil {
		check, cerr := keyCheckFor(r, s, opts)
		if cerr != nil {
			return nil, nil, cerr
		}
		opts.KeyCheck = check
	}
	switch alg {
	case AlgorithmPMPSM:
		res, err := core.PMPSM(ctx, r, s, opts)
		return res, nil, err
	case AlgorithmBMPSM:
		res, err := core.BMPSM(ctx, r, s, opts)
		return res, nil, err
	case AlgorithmDMPSM:
		res, stats, err := core.DMPSM(ctx, r, s, opts, diskOpts)
		if err != nil {
			return nil, nil, err
		}
		return res, &stats, nil
	case AlgorithmWisconsin:
		res, err := hashjoin.Wisconsin(ctx, r, s, opts)
		return res, nil, err
	case AlgorithmRadix:
		res, err := hashjoin.Radix(ctx, r, s, hashjoin.RadixOptions{Options: opts})
		return res, nil, err
	default:
		return nil, nil, fmt.Errorf("exec: unknown algorithm %v", alg)
	}
}

// KeyRangePredicate returns a predicate selecting tuples whose key lies in
// [low, high). It is the selection used by the example queries.
func KeyRangePredicate(low, high uint64) Predicate {
	return func(t relation.Tuple) bool { return t.Key >= low && t.Key < high }
}
