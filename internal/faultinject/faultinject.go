// Package faultinject provides deterministic, seed-driven fault injection
// for the execution engine's chaos tests and for operational fire drills.
//
// A Set owns a seeded pseudo-random sequence and a per-point firing
// probability. Code on the hot path asks the set whether a named injection
// point should fire (Should), or uses the convenience triggers Panic and
// Stall that fire the corresponding failure mode directly. Every query (or
// service) carries at most one *Set; a nil *Set is valid everywhere and all
// of its methods are no-ops that cost a single nil check, so production paths
// pay effectively nothing when injection is disabled.
//
// Determinism is the point: the firing decisions are a pure function of the
// seed and the draw sequence, so a chaos run that found a leak can be
// replayed exactly by reusing its seed. The draw sequence is serialized under
// the set's mutex; with concurrent workers the interleaving of draws may vary
// between runs, which is the intended amount of nondeterminism for a chaos
// suite (the total number of fires for probability-1 points is still exact).
package faultinject

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Point names one injection point wired into the engine.
type Point int

const (
	// WorkerPanic panics inside a worker goroutine of a phase or a morsel,
	// exercising the scheduler's panic isolation and barrier poisoning.
	WorkerPanic Point = iota
	// LeaseAlloc panics inside a scratch-lease buffer request, exercising
	// poisoned-lease reclamation (it fires only on pooled executions: without
	// a scratch pool there is no lease to fault).
	LeaseAlloc
	// MorselStall delays a worker between claiming and running a morsel,
	// widening work-stealing and cancellation races.
	MorselStall
	// CancelStorm cancels a query's context shortly after submission,
	// exercising cancellation mid-phase and mid-queue.
	CancelStorm
	// GrantRace delays the admission controller's grant loop, widening the
	// race between granting a reservation and the waiter abandoning it.
	GrantRace

	pointCount
)

// String implements fmt.Stringer using the Parse spec keys.
func (p Point) String() string {
	switch p {
	case WorkerPanic:
		return "panic"
	case LeaseAlloc:
		return "lease"
	case MorselStall:
		return "stall"
	case CancelStorm:
		return "cancel"
	case GrantRace:
		return "grant"
	default:
		return fmt.Sprintf("Point(%d)", int(p))
	}
}

// defaultDelay is the stall duration of the delaying points when the spec
// does not override it.
func defaultDelay(p Point) time.Duration {
	switch p {
	case MorselStall:
		return 200 * time.Microsecond
	case CancelStorm:
		return 500 * time.Microsecond
	case GrantRace:
		return 100 * time.Microsecond
	default:
		return 0
	}
}

// Injected is the panic value of an injected fault, so recovery layers and
// tests can tell injected failures from genuine bugs (errors.As through
// sched.PanicError reaches it).
type Injected struct {
	// Point is the injection point that fired.
	Point Point
}

// Error implements error.
func (e *Injected) Error() string {
	return fmt.Sprintf("faultinject: injected %s fault", e.Point)
}

// Set is one configured fault-injection profile. Configure it fully (Enable,
// EnableDelay, Limit) before handing it to an engine or service; the
// configuration arrays are read without synchronization on the hot path.
// The zero Set injects nothing; so does a nil *Set.
type Set struct {
	seed  uint64
	prob  [pointCount]float64
	delay [pointCount]time.Duration
	limit [pointCount]uint64 // 0 = unlimited
	skip  [pointCount]uint64 // fire only after this many draws

	mu    sync.Mutex
	state uint64
	draws [pointCount]uint64
	fires [pointCount]uint64
}

// New creates an empty set whose decisions derive deterministically from
// seed. Enable points before use.
func New(seed uint64) *Set {
	return &Set{seed: seed, state: seed}
}

// Seed returns the set's seed, for replaying a chaos run.
func (s *Set) Seed() uint64 {
	if s == nil {
		return 0
	}
	return s.seed
}

// Enable arms an injection point with the given firing probability in [0, 1]
// and returns the set for chaining.
func (s *Set) Enable(p Point, prob float64) *Set {
	return s.EnableDelay(p, prob, defaultDelay(p))
}

// EnableDelay is Enable with an explicit stall duration for the delaying
// points (MorselStall, CancelStorm, GrantRace); the duration is ignored by
// the panicking points.
func (s *Set) EnableDelay(p Point, prob float64, d time.Duration) *Set {
	if s == nil || p < 0 || p >= pointCount {
		return s
	}
	if prob < 0 {
		prob = 0
	}
	if prob > 1 {
		prob = 1
	}
	s.prob[p] = prob
	s.delay[p] = d
	return s
}

// Limit caps how many times a point may fire (0 = unlimited); combined with
// probability 1 it yields "fire exactly n times", the deterministic shape
// chaos tests want.
func (s *Set) Limit(p Point, n uint64) *Set {
	if s == nil || p < 0 || p >= pointCount {
		return s
	}
	s.limit[p] = n
	return s
}

// After suppresses a point's first n draws, so a probability-1 point fires
// exactly at the n+1-th time execution reaches it ("panic at phase N").
func (s *Set) After(p Point, n uint64) *Set {
	if s == nil || p < 0 || p >= pointCount {
		return s
	}
	s.skip[p] = n
	return s
}

// next advances the splitmix64 sequence; the caller holds s.mu.
func (s *Set) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d49bb1331111eb
	return z ^ (z >> 31)
}

// Should reports whether the injection point fires on this draw. Nil-safe;
// disabled points return false without taking the lock.
func (s *Set) Should(p Point) bool {
	if s == nil || p < 0 || p >= pointCount || s.prob[p] <= 0 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.draws[p]++
	if s.draws[p] <= s.skip[p] {
		return false
	}
	if s.limit[p] > 0 && s.fires[p] >= s.limit[p] {
		return false
	}
	// 53 uniform bits map onto [0, 1); strictly-less keeps prob 0 dead and
	// prob 1 certain.
	if float64(s.next()>>11)/(1<<53) >= s.prob[p] {
		return false
	}
	s.fires[p]++
	return true
}

// Panic fires the point's panic if the draw says so. The panic value is an
// *Injected carrying the point.
func (s *Set) Panic(p Point) {
	if s.Should(p) {
		panic(&Injected{Point: p})
	}
}

// Stall sleeps for the point's configured delay if the draw says so.
func (s *Set) Stall(p Point) {
	if s.Should(p) {
		time.Sleep(s.delay[p])
	}
}

// Delay returns the point's configured stall duration, falling back to the
// point's default when the set never armed one.
func (s *Set) Delay(p Point) time.Duration {
	if s == nil || p < 0 || p >= pointCount {
		return 0
	}
	if s.delay[p] == 0 {
		return defaultDelay(p)
	}
	return s.delay[p]
}

// Fired returns how many times the point has fired so far.
func (s *Set) Fired(p Point) uint64 {
	if s == nil || p < 0 || p >= pointCount {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fires[p]
}

// TotalFired returns the number of fires across all points.
func (s *Set) TotalFired() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var n uint64
	for _, f := range s.fires {
		n += f
	}
	return n
}

// String renders the set in the Parse spec format.
func (s *Set) String() string {
	if s == nil {
		return ""
	}
	parts := []string{fmt.Sprintf("seed:%d", s.seed)}
	for p := Point(0); p < pointCount; p++ {
		if s.prob[p] > 0 {
			part := fmt.Sprintf("%s:%g", p, s.prob[p])
			if s.delay[p] != defaultDelay(p) {
				part += "@" + s.delay[p].String()
			}
			if s.limit[p] > 0 {
				part += fmt.Sprintf("#%d", s.limit[p])
			}
			parts = append(parts, part)
		}
	}
	return strings.Join(parts, ",")
}

// Parse builds a set from a compact spec of comma-separated key:value pairs,
// the format of the MPSM_FAULTS environment variable:
//
//	seed:42,panic:0.1,lease:0.05,stall:0.2@500us,cancel:0.01,grant:0.5#3
//
// Keys are the Point spec names plus "seed"; values are firing probabilities,
// optionally suffixed with @duration (a stall delay for the delaying points)
// and #N (fire at most N times). An empty spec yields a nil set (injection
// disabled).
func Parse(spec string) (*Set, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	s := New(0)
	for _, field := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(field), ":")
		if !ok {
			return nil, fmt.Errorf("faultinject: malformed field %q (want key:value)", field)
		}
		if key == "seed" {
			seed, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faultinject: seed %q: %v", val, err)
			}
			s.seed, s.state = seed, seed
			continue
		}
		p, err := parsePoint(key)
		if err != nil {
			return nil, err
		}
		val, limitStr, hasLimit := strings.Cut(val, "#")
		probStr, delayStr, hasDelay := strings.Cut(val, "@")
		prob, err := strconv.ParseFloat(probStr, 64)
		if err != nil || !(prob >= 0 && prob <= 1) { // NaN too: it would fire on every draw
			return nil, fmt.Errorf("faultinject: probability %q for %s: want a number in [0, 1]", probStr, key)
		}
		d := defaultDelay(p)
		if hasDelay {
			d, err = time.ParseDuration(delayStr)
			if err != nil {
				return nil, fmt.Errorf("faultinject: delay %q for %s: %v", delayStr, key, err)
			}
		}
		s.EnableDelay(p, prob, d)
		if hasLimit {
			n, err := strconv.ParseUint(limitStr, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faultinject: limit %q for %s: %v", limitStr, key, err)
			}
			s.Limit(p, n)
		}
	}
	return s, nil
}

// parsePoint maps a spec key onto its Point.
func parsePoint(key string) (Point, error) {
	switch strings.ToLower(key) {
	case "panic":
		return WorkerPanic, nil
	case "lease":
		return LeaseAlloc, nil
	case "stall":
		return MorselStall, nil
	case "cancel":
		return CancelStorm, nil
	case "grant":
		return GrantRace, nil
	default:
		return 0, fmt.Errorf("faultinject: unknown injection point %q", key)
	}
}
