// Package memory provides the engine-wide scratch pool that makes the join
// hot path allocation-free in steady state.
//
// Every join execution allocates the same family of buffers: run and
// partition tuple arrays sized by the input, histogram and cursor integer
// arrays sized by the radix granularity, and hash-table slot arrays sized by
// the build side. Under sustained load ("heavy traffic from millions of
// users", per the ROADMAP) those allocations dominate GC work — the engine is
// GC-bound rather than hardware-bound, exactly the drift away from
// hardware-conscious main-memory design the paper argues against.
//
// A Pool is a size-classed arena of reusable buffers owned by an Engine. Each
// join checks out a Lease, draws all its scratch buffers from it (concurrently
// from all workers), and releases the lease when the join finishes; released
// buffers are reset, not freed, so the next join reuses the same memory. The
// pool is safe for concurrent joins: the shared free lists are mutex-guarded,
// and every lease additionally keeps its own free lists so that intra-join
// reuse (for example, per-partition hash tables in the radix join) bypasses
// the shared lock.
//
// Each element type's free lists are one generic shelf indexed by size class;
// one generic path draws, hands back, parks and audits every shelf, and the
// typed Lease methods only pick theirs (Ints also zeroes what it reuses).
//
// All methods are nil-safe on both *Pool and *Lease: a nil receiver degrades
// to plain make(), so call sites thread a lease unconditionally and the pool
// remains strictly opt-in.
package memory

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"unsafe"

	"repro/internal/faultinject"
	"repro/internal/relation"
)

// ErrOverCommitted is returned by Reserve when granting the reservation would
// push the outstanding admission reservations past the pool's reserve limit.
// Callers distinguish "queue and retry later" from "can never fit" by
// comparing the requested bytes against ReserveLimit themselves.
var ErrOverCommitted = errors.New("memory: reservation exceeds the pool's admission limit")

// DefaultLimitBytes is the default cap on bytes parked in a pool's free
// lists: 512 MiB, enough to keep the working set of repeated joins over
// multi-hundred-MB inputs fully pooled while bounding the memory a bursty
// workload can strand.
const DefaultLimitBytes = 512 << 20

// Pool is a size-classed scratch-buffer pool shared by all joins of one
// Engine. The zero value is not usable; create pools with NewPool. A nil
// *Pool is valid and disables pooling.
type Pool struct {
	mu    sync.Mutex
	limit int64
	held  int64 // bytes currently parked in free lists
	free  shelves
	stats PoolStats

	// Admission-control state: outstanding per-query reservations against
	// reserveLimit, and the set of checked-out leases for per-query
	// attribution in Stats.
	reserveLimit int64
	reserved     int64
	resv         map[*Reservation]struct{}
	leases       map[*Lease]struct{}
}

// classCount covers size classes up to 2^62 elements; class c holds buffers
// with capacity exactly 2^c.
const classCount = 63

// shelf is the free lists of one element type, indexed by size class.
type shelf[T any] [classCount][][]T

// shelves holds one shelf per element type the pool serves.
type shelves struct {
	tuples  shelf[relation.Tuple]
	ints    shelf[int]
	int32s  shelf[int32]
	uint64s shelf[uint64]
}

// pop takes the most recently parked buffer of class c off the shelf.
func (s *shelf[T]) pop(c int) ([]T, bool) {
	list := s[c]
	if len(list) == 0 {
		return nil, false
	}
	s[c] = list[:len(list)-1]
	return list[len(list)-1], true
}

// push parks buf in its size class. A buffer whose capacity is not a power of
// two is foreign and dropped, rather than poisoning a class with an undersized
// buffer.
func (s *shelf[T]) push(buf []T) {
	if c := exactClass(cap(buf)); c >= 0 {
		s[c] = append(s[c], buf[:cap(buf)])
	}
}

// capBytes is the memory a buffer holds: its capacity in bytes.
func capBytes[T any](buf []T) int64 {
	var zero T
	return int64(cap(buf)) * int64(unsafe.Sizeof(zero))
}

// PoolStats are cumulative counters of a pool's behaviour.
type PoolStats struct {
	// Gets is the number of buffer requests served (across all leases).
	Gets uint64
	// Hits is how many requests were served from a free list.
	Hits uint64
	// Misses is how many requests had to allocate fresh memory.
	Misses uint64
	// Discards is how many released buffers were dropped because the pool
	// limit was reached.
	Discards uint64
	// HeldBytes is the number of bytes currently parked in free lists.
	HeldBytes int64
	// PeakHeldBytes is the high-water mark of HeldBytes.
	PeakHeldBytes int64
	// PoisonedLeases counts leases released after being poisoned (their
	// query panicked); their buffers were quarantined rather than parked.
	PoisonedLeases uint64
	// QuarantinedBytes is the total capacity of quarantined buffers — memory
	// handed back to the garbage collector instead of the free lists because
	// a panicking query may have left it in an undefined state.
	QuarantinedBytes int64

	// ReservedBytes is the total of outstanding admission reservations
	// (Reserve minus Release), the number the serving layer's admission
	// decisions are made against.
	ReservedBytes int64
	// ReserveLimit is the cap ReservedBytes may not exceed.
	ReserveLimit int64
	// ActiveLeases is the number of leases currently checked out.
	ActiveLeases int
	// Queries attributes reserved and in-use bytes to each active query
	// (reservation label), so admission decisions and pool observation agree
	// under concurrency. Only labeled reservations/leases appear here.
	Queries []QueryMemory
}

// QueryMemory is the per-query memory attribution of one active reservation
// label: what the query reserved at admission and what its leases actually
// have checked out right now.
type QueryMemory struct {
	// Label identifies the query (the admission controller's query ID).
	Label string
	// ReservedBytes is the sum of the label's outstanding reservations.
	ReservedBytes int64
	// InUseBytes is the total capacity currently checked out by the label's
	// active leases (buffers drawn from the pool or freshly allocated, not
	// yet returned by Release).
	InUseBytes int64
	// Leases is the number of the label's active leases.
	Leases int
}

// NewPool creates a scratch pool whose free lists hold at most limitBytes
// bytes; limitBytes <= 0 selects DefaultLimitBytes.
func NewPool(limitBytes int64) *Pool {
	if limitBytes <= 0 {
		limitBytes = DefaultLimitBytes
	}
	return &Pool{limit: limitBytes, reserveLimit: limitBytes}
}

// SetReserveLimit caps the bytes admission reservations may hold outstanding;
// bytes <= 0 resets the cap to the pool's parked-byte limit. It is intended
// to be called once, before the pool serves queries.
func (p *Pool) SetReserveLimit(bytes int64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if bytes <= 0 {
		bytes = p.limit
	}
	p.reserveLimit = bytes
}

// ReserveLimit returns the admission reservation cap.
func (p *Pool) ReserveLimit() int64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.reserveLimit
}

// Reservation is one query's admission budget, carved out of the pool at
// admission time and released when the query completes. Leases acquired with
// AcquireFor are attributed to the reservation's label in Stats.
type Reservation struct {
	pool     *Pool
	label    string
	bytes    int64
	released bool // guarded by pool.mu
}

// Label returns the reservation's query label.
func (r *Reservation) Label() string {
	if r == nil {
		return ""
	}
	return r.label
}

// Bytes returns the reserved byte count.
func (r *Reservation) Bytes() int64 {
	if r == nil {
		return 0
	}
	return r.bytes
}

// Reserve carves bytes out of the pool's admission budget for the query
// identified by label. It never blocks: when the reservation does not fit
// under the reserve limit it returns ErrOverCommitted and the caller decides
// whether to queue (the admission controller's job) or reject. A nil pool
// grants a detached reservation that tracks nothing.
func (p *Pool) Reserve(label string, bytes int64) (*Reservation, error) {
	if bytes < 0 {
		bytes = 0
	}
	if p == nil {
		return &Reservation{label: label, bytes: bytes}, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.reserved+bytes > p.reserveLimit {
		return nil, ErrOverCommitted
	}
	r := &Reservation{pool: p, label: label, bytes: bytes}
	p.reserved += bytes
	if p.resv == nil {
		p.resv = make(map[*Reservation]struct{})
	}
	p.resv[r] = struct{}{}
	return r, nil
}

// Release returns the reservation's bytes to the admission budget. It is
// idempotent and safe on a nil reservation.
func (r *Reservation) Release() {
	if r == nil || r.pool == nil {
		return
	}
	p := r.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	if r.released {
		return
	}
	r.released = true
	p.reserved -= r.bytes
	delete(p.resv, r)
}

// Acquire checks out a lease for one join execution. A nil pool returns a nil
// lease, whose methods degrade to plain allocation.
func (p *Pool) Acquire() *Lease { return p.AcquireFor(nil) }

// AcquireFor is Acquire with the lease attributed to a query's admission
// reservation: the lease's checked-out bytes appear under the reservation's
// label in Stats. A nil reservation yields an unattributed lease.
func (p *Pool) AcquireFor(res *Reservation) *Lease {
	if p == nil {
		return nil
	}
	l := &Lease{pool: p, owner: res}
	p.mu.Lock()
	if p.leases == nil {
		p.leases = make(map[*Lease]struct{})
	}
	p.leases[l] = struct{}{}
	p.mu.Unlock()
	return l
}

// Stats returns a snapshot of the pool's counters, including the per-query
// attribution of active reservations and leases. The lease footprints are
// gathered outside the pool lock (leases lock pool inside their own locks on
// the hot path, so the reverse order here would deadlock); a snapshot is
// therefore consistent per lease, not across leases.
func (p *Pool) Stats() PoolStats {
	if p == nil {
		return PoolStats{}
	}
	p.mu.Lock()
	s := p.stats
	s.HeldBytes = p.held
	s.ReservedBytes = p.reserved
	s.ReserveLimit = p.reserveLimit
	s.ActiveLeases = len(p.leases)
	queries := make(map[string]*QueryMemory)
	for r := range p.resv {
		q := queries[r.label]
		if q == nil {
			q = &QueryMemory{Label: r.label}
			queries[r.label] = q
		}
		q.ReservedBytes += r.bytes
	}
	leases := make([]*Lease, 0, len(p.leases))
	for l := range p.leases {
		leases = append(leases, l)
	}
	p.mu.Unlock()

	for _, l := range leases {
		label, footprint, ok := l.attribution()
		if !ok {
			continue
		}
		q := queries[label]
		if q == nil {
			q = &QueryMemory{Label: label}
			queries[label] = q
		}
		q.InUseBytes += footprint
		q.Leases++
	}
	for _, q := range queries {
		s.Queries = append(s.Queries, *q)
	}
	sort.Slice(s.Queries, func(i, j int) bool { return s.Queries[i].Label < s.Queries[j].Label })
	return s
}

// sizeClass returns the class index for a requested element count: the
// smallest power of two >= n. n must be > 0.
func sizeClass(n int) int {
	return bits.Len(uint(n - 1))
}

// exactClass returns the size class of a capacity that must be a power of two
// (as all pool buffers are), or -1 for foreign buffers.
func exactClass(capacity int) int {
	if capacity&(capacity-1) != 0 {
		return -1
	}
	return bits.Len(uint(capacity)) - 1
}

// LeaseStats summarize the scratch traffic of one join execution; the join's
// Result reports them.
type LeaseStats struct {
	// Buffers is the number of scratch buffers the join requested.
	Buffers int
	// Reused is how many of those were served from pool or lease free lists
	// rather than freshly allocated.
	Reused int
	// Bytes is the total capacity handed out, in bytes.
	Bytes int64
}

// Lease is one join execution's checkout of scratch buffers. All Get methods
// may be called concurrently from the join's workers; Release must be called
// exactly once, after the join's final barrier, and returns every buffer to
// the pool at once. A nil *Lease is valid and allocates plainly.
type Lease struct {
	pool   *Pool
	owner  *Reservation // admission reservation this lease is attributed to, or nil
	faults *faultinject.Set
	mu     sync.Mutex
	// poisoned marks the lease's buffers as possibly mid-write garbage from a
	// panicked query; Release quarantines them instead of parking them.
	poisoned bool
	// out tracks every buffer checked out from the pool or freshly allocated,
	// for bulk return on Release.
	out checkedOut
	// free holds buffers handed back early via Put* for intra-join reuse;
	// the buffers remain tracked in out.
	free  shelves
	stats LeaseStats
}

// checkedOut is every buffer a lease holds, per element type.
type checkedOut struct {
	tuples  [][]relation.Tuple
	ints    [][]int
	int32s  [][]int32
	uint64s [][]uint64
}

// bytes is the total capacity of the buffers, in bytes.
func (o *checkedOut) bytes() int64 {
	return sumBytes(o.tuples) + sumBytes(o.ints) + sumBytes(o.int32s) + sumBytes(o.uint64s)
}

// sumBytes is the total capacity of bufs, in bytes.
func sumBytes[T any](bufs [][]T) int64 {
	var total int64
	for _, buf := range bufs {
		total += capBytes(buf)
	}
	return total
}

// InjectFaults arms the lease's allocation fault-injection point and returns
// the lease for chaining. Safe on a nil lease or nil set.
func (l *Lease) InjectFaults(f *faultinject.Set) *Lease {
	if l != nil {
		l.faults = f
	}
	return l
}

// Poison marks the lease as belonging to a failed (panicked) query: its
// buffers may hold partially-written garbage or still be referenced from a
// dying goroutine's stack, so Release will quarantine them — hand them to the
// garbage collector and retire the lease — rather than park them for reuse.
// Idempotent, safe on a nil lease.
func (l *Lease) Poison() {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.poisoned = true
	l.mu.Unlock()
}

// Stats returns the lease's traffic counters. Safe on a nil lease (all
// zeros).
func (l *Lease) Stats() LeaseStats {
	if l == nil {
		return LeaseStats{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// draw is every typed draw of a non-nil lease: a buffer of length n from the
// lease's own shelf, else from the pool's, else freshly made, tracked in out
// unless it was the lease's already. It reports whether the buffer was reused.
// n == 0 yields nil.
func draw[T any](l *Lease, own, pooled *shelf[T], out *[][]T, n int) ([]T, bool) {
	if n == 0 {
		return nil, false
	}
	// The injection must fire before taking l.mu: a panic while holding the
	// lease lock would deadlock the deferred Release. Poison first, so the
	// unwinding Release quarantines this lease no matter which goroutine
	// the allocation ran on (a worker's panic also poisons via sched, but a
	// coordinator-side allocation between phases unwinds straight through
	// the lease's own deferred Release).
	if l.faults.Should(faultinject.LeaseAlloc) {
		l.Poison()
		panic(&faultinject.Injected{Point: faultinject.LeaseAlloc})
	}
	c := sizeClass(n)
	l.mu.Lock()
	defer l.mu.Unlock()
	buf, hit := own.pop(c)
	if !hit {
		p := l.pool
		p.mu.Lock()
		p.stats.Gets++
		if buf, hit = pooled.pop(c); hit {
			p.held -= capBytes(buf)
			p.stats.Hits++
		} else {
			p.stats.Misses++
		}
		p.mu.Unlock()
		if !hit {
			buf = make([]T, 1<<c)
		}
		*out = append(*out, buf)
	}
	l.stats.Buffers++
	if hit {
		l.stats.Reused++
	}
	l.stats.Bytes += capBytes(buf)
	return buf[:n], hit
}

// handBack parks a buffer on a non-nil lease's own shelf for reuse within the
// same join; the buffer stays tracked for Release.
func handBack[T any](l *Lease, own *shelf[T], buf []T) {
	l.mu.Lock()
	own.push(buf)
	l.mu.Unlock()
}

// Tuples returns a tuple buffer of length n. The contents are unspecified —
// callers must fully overwrite the buffer (run copies, scatters and hash
// inserts all do).
func (l *Lease) Tuples(n int) []relation.Tuple {
	if l == nil {
		return make([]relation.Tuple, n)
	}
	buf, _ := draw(l, &l.free.tuples, &l.pool.free.tuples, &l.out.tuples, n)
	return buf
}

// Ints returns a zeroed int buffer of length n, ready for use as a histogram
// or cursor array.
func (l *Lease) Ints(n int) []int {
	if l == nil {
		return make([]int, n)
	}
	buf, reused := draw(l, &l.free.ints, &l.pool.free.ints, &l.out.ints, n)
	if reused {
		clear(buf)
	}
	return buf
}

// Int32s returns an int32 buffer of length n. The contents are unspecified —
// callers initialize hash-slot arrays to their empty marker anyway.
func (l *Lease) Int32s(n int) []int32 {
	if l == nil {
		return make([]int32, n)
	}
	buf, _ := draw(l, &l.free.int32s, &l.pool.free.int32s, &l.out.int32s, n)
	return buf
}

// Uint64s returns a uint64 buffer of length n, the element type of the
// columnar batch layer's key and payload columns. The contents are
// unspecified — callers fully overwrite the buffer (column scatters, sorts
// and gathers all do).
func (l *Lease) Uint64s(n int) []uint64 {
	if l == nil {
		return make([]uint64, n)
	}
	buf, _ := draw(l, &l.free.uint64s, &l.pool.free.uint64s, &l.out.uint64s, n)
	return buf
}

// PutTuples hands a buffer obtained from Tuples back to the lease for reuse
// within the same join (the buffer is still returned to the pool on Release).
// No-op on a nil lease or nil buffer.
func (l *Lease) PutTuples(buf []relation.Tuple) {
	if l != nil {
		handBack(l, &l.free.tuples, buf)
	}
}

// PutInts is PutTuples for int buffers.
func (l *Lease) PutInts(buf []int) {
	if l != nil {
		handBack(l, &l.free.ints, buf)
	}
}

// PutInt32s is PutTuples for int32 buffers.
func (l *Lease) PutInt32s(buf []int32) {
	if l != nil {
		handBack(l, &l.free.int32s, buf)
	}
}

// PutUint64s is PutTuples for uint64 buffers.
func (l *Lease) PutUint64s(buf []uint64) {
	if l != nil {
		handBack(l, &l.free.uint64s, buf)
	}
}

// attribution reports the lease's owning query label and its in-use bytes —
// the total capacity of every buffer currently checked out, whether drawn from
// the pool or freshly allocated. ok is false for unattributed leases.
func (l *Lease) attribution() (label string, footprint int64, ok bool) {
	if l.owner == nil {
		return "", 0, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.owner.label, l.out.bytes(), true
}

// Release returns every buffer of the lease to the pool, subject to the
// pool's byte limit. It must only be called after all workers of the join
// have passed their final barrier; the buffers' contents become invalid. Safe
// on a nil lease.
func (l *Lease) Release() {
	if l == nil {
		return
	}
	l.mu.Lock()
	poisoned, out := l.poisoned, l.out
	l.out, l.free = checkedOut{}, shelves{}
	l.mu.Unlock()
	if poisoned {
		l.pool.quarantine(l, &out)
		return
	}
	l.pool.put(l, &out)
}

// quarantine retires a poisoned lease without parking any of its buffers:
// the lease leaves the active set (so reservations and lease counts do not
// leak), the buffers go to the garbage collector, and the quarantine counters
// record the event for the pool-integrity audit.
func (p *Pool) quarantine(l *Lease, out *checkedOut) {
	bytes := out.bytes()
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.leases, l)
	p.stats.PoisonedLeases++
	p.stats.QuarantinedBytes += bytes
}

// put returns a lease's buffers to the free lists, dropping buffers beyond
// the byte limit so the garbage collector reclaims them, and retires the
// lease from the active set.
func (p *Pool) put(l *Lease, out *checkedOut) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.leases, l)
	park(p, &p.free.tuples, out.tuples)
	park(p, &p.free.ints, out.ints)
	park(p, &p.free.int32s, out.int32s)
	park(p, &p.free.uint64s, out.uint64s)
	p.stats.PeakHeldBytes = max(p.stats.PeakHeldBytes, p.held)
}

// park puts bufs on one of the pool's shelves while they fit under the byte
// limit and counts a discard for every one that does not; the caller holds
// p.mu.
func park[T any](p *Pool, s *shelf[T], bufs [][]T) {
	for _, buf := range bufs {
		size := capBytes(buf)
		if p.held+size > p.limit {
			p.stats.Discards++
			continue
		}
		s.push(buf)
		p.held += size
	}
}

// CheckIntegrity audits the pool's internal accounting: every parked buffer
// sits in its exact size class, the parked-byte counter matches the free
// lists, the byte limit holds, and the outstanding-reservation counter
// matches the live reservations. It returns nil when the pool is consistent;
// the chaos suite runs it after absorbing injected faults. Safe on a nil
// pool.
func (p *Pool) CheckIntegrity() error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var held int64
	if err := errors.Join(
		audit(&p.free.tuples, &held),
		audit(&p.free.ints, &held),
		audit(&p.free.int32s, &held),
		audit(&p.free.uint64s, &held),
	); err != nil {
		return err
	}
	if held != p.held {
		return fmt.Errorf("memory: parked-byte accounting drifted: tracked %d bytes, free lists hold %d", p.held, held)
	}
	if p.held > p.limit {
		return fmt.Errorf("memory: parked bytes %d exceed the pool limit %d", p.held, p.limit)
	}
	var reserved int64
	for r := range p.resv {
		reserved += r.bytes
	}
	if reserved != p.reserved {
		return fmt.Errorf("memory: reservation accounting drifted: tracked %d bytes, live reservations hold %d", p.reserved, reserved)
	}
	if p.reserved > p.reserveLimit {
		return fmt.Errorf("memory: reserved bytes %d exceed the admission limit %d", p.reserved, p.reserveLimit)
	}
	return nil
}

// audit checks that every buffer on a shelf sits in its exact size class and
// adds their bytes to held.
func audit[T any](s *shelf[T], held *int64) error {
	for c, list := range s {
		for _, buf := range list {
			if cap(buf) != 1<<c {
				return fmt.Errorf("memory: %T buffer of capacity %d parked in class %d", buf, cap(buf), c)
			}
			*held += capBytes(buf)
		}
	}
	return nil
}
