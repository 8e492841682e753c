package mpsm

import (
	"repro/internal/faultinject"
	"repro/internal/sched"
)

// FaultSet is a deterministic, seed-driven fault-injection plan. A set is
// armed per injection point with a firing probability (and, for the stall
// points, a delay); every draw comes from the set's own splitmix64 stream, so
// the same seed against the same workload replays the same faults. A nil
// *FaultSet is valid everywhere and injects nothing — production code paths
// carry a nil set at the cost of one pointer check.
//
// Fault injection exists to exercise the failure domains for real: worker
// panics exercise sched's panic isolation and lease quarantine, allocation
// failures exercise the degradation ladder, stalls and cancellation storms
// widen race windows that are otherwise nearly impossible to hit in tests.
type FaultSet = faultinject.Set

// FaultPoint names one injection point in the engine.
type FaultPoint = faultinject.Point

// The injection points. Their spec names (for ParseFaultSpec and the
// MPSM_FAULTS environment variable) are panic, lease, stall, cancel, grant.
const (
	// FaultWorkerPanic panics inside a phase worker or a morsel task.
	FaultWorkerPanic FaultPoint = faultinject.WorkerPanic
	// FaultLeaseAlloc panics a scratch-lease allocation.
	FaultLeaseAlloc FaultPoint = faultinject.LeaseAlloc
	// FaultMorselStall delays a worker between morsel tasks.
	FaultMorselStall FaultPoint = faultinject.MorselStall
	// FaultCancelStorm cancels a service query's context shortly after
	// submission.
	FaultCancelStorm FaultPoint = faultinject.CancelStorm
	// FaultGrantRace stalls the admission controller between releasing a
	// finished query's reservation and granting queued waiters.
	FaultGrantRace FaultPoint = faultinject.GrantRace
)

// PanicError is the typed error a query fails with when a panic was recovered
// inside its failure domain: it carries the query label, the phase, the
// worker index (-1 for the coordinator goroutine) and the captured stack.
// Errors.As-match it to distinguish contained panics from ordinary failures;
// Unwrap exposes the panic value when that value was itself an error (as
// injected faults are).
type PanicError = sched.PanicError

// NewFaultSet creates an empty fault set with the given seed; arm points with
// Enable/EnableDelay/Limit/After. The zero seed is valid.
func NewFaultSet(seed uint64) *FaultSet { return faultinject.New(seed) }

// ParseFaultSpec parses a fault-injection spec of the form
//
//	seed:42,panic:0.1,stall:0.2@500us,lease:1@0s#3
//
// — a comma-separated list of seed:N and point:probability entries, where a
// probability may carry @duration (stall delay) and #N (fire at most N
// times). An empty spec returns (nil, nil): injection disabled. This is the
// format of the MPSM_FAULTS environment variable honoured by cmd/mpsmd.
func ParseFaultSpec(spec string) (*FaultSet, error) { return faultinject.Parse(spec) }

// WithFaultInjection arms deterministic fault injection for an engine or a
// single join call. Nil disables injection (the default).
func WithFaultInjection(f *FaultSet) Option {
	return func(s *settings) { s.Faults = f }
}
