// Package sink defines the streaming result interface of the join engine and
// the built-in result consumers.
//
// A Sink receives the output stream of a parallel join. Mirroring the MPSM
// execution model — workers meet only at phase barriers, never per tuple —
// a sink hands out one mergejoin.Consumer per worker before the join phase
// and merges the per-worker state once, after all workers have finished.
// The hot path therefore needs no locking unless the sink itself chooses to
// serialize (see Func).
//
// Every join hands its writers range batches (mergejoin.RangeConsumer). The
// built-in writers take them: MaxSum, Count and the Groups kernel fold a key
// group × window without forming a pair, Materialize and Collect walk the
// batch's pairs into their buffers. A writer that takes pairs only (Func,
// TopK, a user sink) is wrapped once, by BindChecked, in mergejoin.Pairs. An
// inner equi-join into MaxSum or Count behind no tie-break verifier hands
// them no batch but what they keep, one (count, max) per task
// (Writer.ConsumeFold): B-, P- and D-MPSM fold it in their merge loop, the
// hash joins in their probe loop.
//
// The paper's evaluation query max(R.payload + S.payload) is just one sink
// (MaxSum); Count, Materialize and TopK cover the other common result shapes,
// and Func adapts any callback.
package sink

import (
	"sort"
	"sync"

	"repro/internal/batch"
	"repro/internal/memory"
	"repro/internal/mergejoin"
	"repro/internal/relation"
)

// Sink consumes the output stream of a parallel join execution.
//
// The engine drives the life cycle as Open → Writer (once per worker) →
// Close. Writers are used from exactly one goroutine each; Open and Close are
// called from the coordinating goroutine outside the join phase. Open resets
// any state left by a previous execution, so a sink may be reused across
// sequential joins — but never across concurrent ones.
type Sink interface {
	// Open prepares the sink for one join execution with the given degree of
	// parallelism.
	Open(workers int)
	// Writer returns the consumer for worker w, 0 <= w < workers.
	Writer(w int) mergejoin.Consumer
	// Close merges the per-worker state after all workers have finished.
	Close() error
}

// FoldsRanges reports whether s is one of the built-in sinks that keep only a
// match count and the largest payload sum (nil selects MaxSum, as in
// BindChecked). They take range output an entry at a time, with no per-pair
// work, which the planner prices; and behind an inner equi-join without a
// tie-break verifier the join keeps those two itself — B-, P- and D-MPSM in
// their merge loop, Wisconsin and the radix join in their probe loop — and
// hands them over once per task (ConsumeFold).
func FoldsRanges(s Sink) bool {
	switch s.(type) {
	case nil, *MaxSum, *Count:
		return true
	}
	return false
}

// Pair is one joined (r, s) tuple pair.
type Pair struct {
	R, S relation.Tuple
}

// Sum returns R.Payload + S.Payload, the paper's aggregation input.
func (p Pair) Sum() uint64 { return p.R.Payload + p.S.Payload }

// Bound wraps a sink for one join execution, interposing a per-worker Writer
// that counts matches, so that every algorithm reports its join cardinality
// regardless of what the sink does with the tuples. BindChecked with a nil sink
// selects the built-in MaxSum aggregate, which preserves the legacy Join
// semantics.
type Bound struct {
	sink    Sink
	writers []*Writer
}

// Scratcher is implemented by sinks that can draw their per-worker buffers
// from the join's scratch lease (see internal/memory). BindChecked calls
// SetScratch before Open on every execution — with the join's lease when the engine runs
// with a scratch pool, and with nil otherwise — so a reused sink never holds
// on to a stale lease.
type Scratcher interface {
	SetScratch(lease *memory.Lease)
}

// PairCheck verifies one candidate match before it reaches the sink. It is
// the tie-break hook of normalized-key execution: candidate pairs are equal
// on the uint64 key prefix, and the check compares the full normalized keys
// addressed by the two payloads (row indices under inexact key metadata).
// On a genuine match it returns the payloads the sink should observe —
// typically the caller's original payloads recovered from the key metadata
// — and ok=true; on a prefix collision it returns ok=false and the pair is
// dropped before it is counted.
type PairCheck func(rPayload, sPayload uint64) (rOut, sOut uint64, ok bool)

// BindChecked opens the sink for a join with the given worker count. A nil
// sink selects a fresh MaxSum aggregate. A non-nil lease is offered to sinks
// implementing Scratcher; pass nil when the join runs without a scratch pool.
// When check is non-nil every worker's writer first filters candidate pairs
// through it — the tie-break verifier — so both the match count and the sink
// observe verified pairs only; a nil check is the zero-overhead fast path. A
// sink writer that takes no ranges is wrapped in the pair walk here, once per
// worker.
func BindChecked(s Sink, workers int, lease *memory.Lease, check PairCheck) *Bound {
	if s == nil {
		s = NewMaxSum()
	}
	if sc, ok := s.(Scratcher); ok {
		sc.SetScratch(lease)
	}
	s.Open(workers)
	b := &Bound{sink: s, writers: make([]*Writer, workers)}
	for w := range b.writers {
		inner := s.Writer(w)
		b.writers[w] = &Writer{inner: inner, ranges: mergejoin.Pairs(inner), check: check}
	}
	return b
}

// Writer returns worker w's side of the boundary.
func (b *Bound) Writer(w int) *Writer { return b.writers[w] }

// Close closes the underlying sink.
func (b *Bound) Close() error { return b.sink.Close() }

// Matches is the total number of pairs emitted across all workers. Call only
// after the join phase barrier.
func (b *Bound) Matches() uint64 {
	var n uint64
	for _, w := range b.writers {
		n += w.count
	}
	return n
}

// WorkerMatches is the number of pairs worker w emitted.
func (b *Bound) WorkerMatches(w int) uint64 { return b.writers[w].count }

// MaxSum reports the max(R.payload + S.payload) aggregate if the underlying
// sink computes it (the MaxSum sink does), and 0 otherwise. Call after Close.
func (b *Bound) MaxSum() uint64 {
	if m, ok := b.sink.(interface{ Max() uint64 }); ok {
		return m.Max()
	}
	return 0
}

// Batches is the number of batches that crossed the sink boundary, and pairs
// the matches they carried: every match of a join, which delivers nothing
// but batches. Call after the join phase barrier.
func (b *Bound) Batches() (batches, pairs uint64) {
	for _, w := range b.writers {
		batches += w.batches
		pairs += w.batchedPairs
	}
	return batches, pairs
}

// Writer is one worker's side of the sink boundary, in front of the sink's
// writer: it counts what it hands on — matches, and the batches that carried
// them — and, under a tie-break verifier, verifies every candidate pair
// first: candidates that fail the check vanish before they are counted, and
// survivors carry the payloads the check returned (the user payloads
// recovered from the key metadata).
type Writer struct {
	inner        mergejoin.Consumer
	ranges       mergejoin.RangeConsumer // inner, or the pair walk into it
	check        PairCheck
	count        uint64
	batches      uint64
	batchedPairs uint64
}

// ConsumeRanges implements mergejoin.RangeConsumer: the batch goes on to the
// sink's writer whole and counts as one batch of the pairs it stands for.
// Under a verifier its pairs are walked instead, each one checked, and the
// survivors — one batch, if any — handed to the sink's writer one by one.
func (w *Writer) ConsumeRanges(b *batch.Ranges) {
	before := w.count
	if w.check != nil {
		for r, s := range b.All() {
			w.Consume(r, s)
		}
	} else {
		w.ranges.ConsumeRanges(b)
		w.count += b.Pairs
	}
	if n := w.count - before; n > 0 {
		w.batches++
		w.batchedPairs += n
	}
}

// Consume implements mergejoin.Consumer: one pair, verified when a check is
// bound, counted, and handed to the sink's writer.
func (w *Writer) Consume(r, s relation.Tuple) {
	if w.check != nil {
		rp, sp, ok := w.check(r.Payload, s.Payload)
		if !ok {
			return
		}
		r.Payload, s.Payload = rp, sp
	}
	w.count++
	w.inner.Consume(r, s)
}

// ConsumeFold takes pairs matches whose largest payload sum, mod 2^64, is
// maxSum — all a sink FoldsRanges names keeps of them — as one batch of them:
// an inner equi-join's merge loop or hash probe loop folds into these sinks,
// behind no verifier, without forming a pair. It is for those sinks' writers
// only and panics on any other.
func (w *Writer) ConsumeFold(pairs, maxSum uint64) {
	switch inner := w.inner.(type) {
	case *mergejoin.MaxAggregate:
		inner.Merge(mergejoin.MaxAggregate{Count: pairs, Max: maxSum})
	case *mergejoin.Counter:
		inner.Count += pairs
	default:
		panic("sink: ConsumeFold into a writer that keeps pairs")
	}
	w.count += pairs
	w.batches++
	w.batchedPairs += pairs
}

// MaxSum implements the paper's evaluation query
//
//	SELECT max(R.payload + S.payload) FROM R, S WHERE R.joinkey = S.joinkey
//
// as a Sink: every worker aggregates locally, Close merges.
type MaxSum struct {
	aggs []mergejoin.MaxAggregate
	agg  mergejoin.MaxAggregate
}

// NewMaxSum returns an empty max-sum aggregate sink.
func NewMaxSum() *MaxSum { return &MaxSum{} }

// Open implements Sink.
func (m *MaxSum) Open(workers int) {
	m.aggs = make([]mergejoin.MaxAggregate, workers)
	m.agg = mergejoin.MaxAggregate{}
}

// Writer implements Sink.
func (m *MaxSum) Writer(w int) mergejoin.Consumer { return &m.aggs[w] }

// Close implements Sink.
func (m *MaxSum) Close() error {
	for _, a := range m.aggs {
		m.agg.Merge(a)
	}
	return nil
}

// Matches is the number of joined pairs. Call after Close.
func (m *MaxSum) Matches() uint64 { return m.agg.Count }

// Max is the largest payload sum seen; only meaningful if Matches() > 0.
func (m *MaxSum) Max() uint64 { return m.agg.Max }

// Count counts joined pairs without retaining them.
type Count struct {
	counters []mergejoin.Counter
	total    uint64
}

// NewCount returns a counting sink.
func NewCount() *Count { return &Count{} }

// Open implements Sink.
func (c *Count) Open(workers int) {
	c.counters = make([]mergejoin.Counter, workers)
	c.total = 0
}

// Writer implements Sink.
func (c *Count) Writer(w int) mergejoin.Consumer { return &c.counters[w] }

// Close implements Sink.
func (c *Count) Close() error {
	for _, ctr := range c.counters {
		c.total += ctr.Count
	}
	return nil
}

// Total is the number of joined pairs. Call after Close.
func (c *Count) Total() uint64 { return c.total }

// Materialize collects every joined pair. Workers buffer locally; Close
// concatenates the buffers in worker order, so the result is deterministic
// for a fixed input and worker count under Static scheduling. Under the
// Morsel scheduler the pair-to-worker assignment depends on steal timing:
// the multiset of pairs is still deterministic, their order is not — callers
// comparing results across runs should sort first.
//
// Materialize implements Scratcher: when the join runs with a scratch pool,
// the per-worker buffers are leased tuple arrays (two tuples per pair) that
// return to the pool when the join finishes; only the final Pairs slice —
// which the caller keeps — is freshly allocated.
type Materialize struct {
	lease *memory.Lease
	parts []*pairWriter
	pairs []Pair
}

// NewMaterialize returns a materializing sink.
func NewMaterialize() *Materialize { return &Materialize{} }

// SetScratch implements Scratcher.
func (m *Materialize) SetScratch(lease *memory.Lease) { m.lease = lease }

// Open implements Sink.
func (m *Materialize) Open(workers int) {
	m.parts = make([]*pairWriter, workers)
	for w := range m.parts {
		m.parts[w] = &pairWriter{tupleBuffer{lease: m.lease}}
	}
	m.pairs = nil
}

// Writer implements Sink.
func (m *Materialize) Writer(w int) mergejoin.Consumer { return m.parts[w] }

// Close implements Sink.
func (m *Materialize) Close() error {
	total := 0
	for _, p := range m.parts {
		total += p.n / 2
	}
	m.pairs = make([]Pair, 0, total)
	for _, p := range m.parts {
		buf := p.tuples()
		for i := 0; i < len(buf); i += 2 {
			m.pairs = append(m.pairs, Pair{R: buf[i], S: buf[i+1]})
		}
		p.release()
	}
	return nil
}

// Pairs returns all joined pairs. Call after Close. The slice is owned by the
// sink and valid until the next Open.
func (m *Materialize) Pairs() []Pair { return m.pairs }

// Relation materializes the result as a relation with one tuple per pair:
// the join key and the payload sum R.payload + S.payload. Call after Close.
func (m *Materialize) Relation(name string) *relation.Relation {
	tuples := make([]relation.Tuple, len(m.pairs))
	for i, p := range m.pairs {
		tuples[i] = relation.Tuple{Key: p.R.Key, Payload: p.Sum()}
	}
	return relation.New(name, tuples)
}

// pairWriter is one worker's Materialize buffer: Collect's tupleBuffer, with
// a pair stored as two consecutive tuples, r then s, in emission order.
type pairWriter struct{ tupleBuffer }

// Consume implements mergejoin.Consumer.
func (w *pairWriter) Consume(r, s relation.Tuple) {
	w.reserve(2)
	w.buf[w.n], w.buf[w.n+1] = r, s
	w.n += 2
}

// ConsumeRanges implements mergejoin.RangeConsumer: capacity is ensured once
// per batch, then its pairs are written in one walk.
func (w *pairWriter) ConsumeRanges(b *batch.Ranges) {
	dst := w.grow(2 * int(b.Pairs))
	n := 0
	for r, s := range b.All() {
		dst[n], dst[n+1] = r, s
		n += 2
	}
}

// TopK keeps the k joined pairs with the largest payload sum, generalizing
// the MaxSum evaluation query (which is TopK with k = 1) while staying
// bounded in memory: every worker maintains a k-element min-heap, Close
// merges them.
type TopK struct {
	k     int
	heaps []*pairHeap
	top   []Pair
}

// NewTopK returns a top-k sink; k <= 0 keeps nothing.
func NewTopK(k int) *TopK { return &TopK{k: k} }

// Open implements Sink.
func (t *TopK) Open(workers int) {
	t.heaps = make([]*pairHeap, workers)
	for w := range t.heaps {
		t.heaps[w] = &pairHeap{k: t.k}
	}
	t.top = nil
}

// Writer implements Sink.
func (t *TopK) Writer(w int) mergejoin.Consumer { return t.heaps[w] }

// Close implements Sink.
func (t *TopK) Close() error {
	merged := &pairHeap{k: t.k}
	for _, h := range t.heaps {
		for _, p := range h.pairs {
			merged.push(p)
		}
	}
	t.top = merged.pairs
	sort.Slice(t.top, func(i, j int) bool { return t.top[i].Sum() > t.top[j].Sum() })
	return nil
}

// Top returns the k best pairs in descending payload-sum order. Call after
// Close.
func (t *TopK) Top() []Pair { return t.top }

// pairHeap is a bounded min-heap of pairs ordered by payload sum: the root is
// the worst retained pair, so a new pair only displaces it when strictly
// better.
type pairHeap struct {
	k     int
	pairs []Pair
}

// Consume implements mergejoin.Consumer.
func (h *pairHeap) Consume(r, s relation.Tuple) { h.push(Pair{R: r, S: s}) }

func (h *pairHeap) push(p Pair) {
	if h.k <= 0 {
		return
	}
	if len(h.pairs) < h.k {
		h.pairs = append(h.pairs, p)
		h.up(len(h.pairs) - 1)
		return
	}
	if p.Sum() <= h.pairs[0].Sum() {
		return
	}
	h.pairs[0] = p
	h.down(0)
}

func (h *pairHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h.pairs[i].Sum() >= h.pairs[parent].Sum() {
			return
		}
		h.pairs[i], h.pairs[parent] = h.pairs[parent], h.pairs[i]
		i = parent
	}
}

func (h *pairHeap) down(i int) {
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < len(h.pairs) && h.pairs[left].Sum() < h.pairs[smallest].Sum() {
			smallest = left
		}
		if right < len(h.pairs) && h.pairs[right].Sum() < h.pairs[smallest].Sum() {
			smallest = right
		}
		if smallest == i {
			return
		}
		h.pairs[i], h.pairs[smallest] = h.pairs[smallest], h.pairs[i]
		i = smallest
	}
}

// Func adapts a callback into a Sink. Because the same callback observes the
// pairs of every worker, all writers share one mutex — this serializes the
// emission hot path and is therefore meant for streaming consumers (the
// engine's JoinStream) and tests, not for throughput-critical aggregation.
type Func struct {
	fn func(r, s relation.Tuple)
	mu sync.Mutex
}

// NewFunc returns a sink that invokes fn for every joined pair, serialized
// across workers.
func NewFunc(fn func(r, s relation.Tuple)) *Func { return &Func{fn: fn} }

// Open implements Sink.
func (f *Func) Open(workers int) {}

// Writer implements Sink.
func (f *Func) Writer(w int) mergejoin.Consumer { return (*funcWriter)(f) }

// Close implements Sink.
func (f *Func) Close() error { return nil }

// funcWriter locks the shared mutex around every callback invocation.
type funcWriter Func

// Consume implements mergejoin.Consumer.
func (f *funcWriter) Consume(r, s relation.Tuple) {
	f.mu.Lock()
	f.fn(r, s)
	f.mu.Unlock()
}
