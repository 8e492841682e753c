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
// table; the same kernel aggregates materialized scan and map outputs. Where
// the planner marks it (GroupJoin), a group-by on the join key over a
// same-key cluster of inner equi-joins runs as a groupjoin instead: the
// joins do not run, and one hash table over the smallest leaf's distinct keys
// folds every other leaf into per-key counts and values. A join feeding
// another join materializes its projected output as an intermediate relation
// through the scratch pool, so deep plans stay allocation-free in steady
// state.
//
// The classic pipeline
//
//	scan(R), scan(S) → filter → join → sink
//
// of the paper's evaluation setup (Section 5.1) is just the one-join plan,
// which the public Engine's single-join calls lower to. Join maps an
// Algorithm onto the core and hashjoin implementations, threading the
// caller's context and sink through every one of them.
package exec

import (
	"context"
	"fmt"
	"strings"

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

// Join dispatches one join execution to the selected algorithm, threading the
// context and the sink carried in opts.Sink. Every join node of a plan runs
// through it. DiskStats is non-nil only for AlgorithmDMPSM.
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
