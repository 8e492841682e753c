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

// BatchWriter is the batch fast path of a sink writer: writers that
// implement it receive whole columnar match batches (join key plus both
// payload columns) instead of one Consume call per pair. It is an optional
// extension — the join's columnar kernels probe for it and fall back to
// per-pair delivery, so existing sinks keep working unchanged. The built-in
// MaxSum, Count and Materialize writers implement it. MaxSum, Count and the
// Groups kernel go one further and implement mergejoin.RangeConsumer: the
// merge kernel hands them a key group × window at a time and no pair is ever
// formed.
type BatchWriter = mergejoin.BatchConsumer

// FoldsRanges reports whether s is one of the built-in sinks whose writers
// take merge output a range entry at a time (nil selects MaxSum, as in Bind):
// behind B- and P-MPSM they do no per-pair work, which the planner prices.
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

// Bound wraps a sink for one join execution, interposing a per-worker match
// counter so that every algorithm reports its join cardinality regardless of
// what the sink does with the tuples. Bind with a nil sink selects the
// built-in MaxSum aggregate, which preserves the legacy Join semantics.
type Bound struct {
	sink    Sink
	writers []*countingWriter
	check   PairCheck
}

// Scratcher is implemented by sinks that can draw their per-worker buffers
// from the join's scratch lease (see internal/memory). Bind calls SetScratch
// before Open on every execution — with the join's lease when the engine runs
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

// Bind opens the sink for a join with the given worker count. A nil sink
// selects a fresh MaxSum aggregate. A non-nil lease is offered to sinks
// implementing Scratcher; pass nil when the join runs without a scratch pool.
func Bind(s Sink, workers int, lease *memory.Lease) *Bound {
	return BindChecked(s, workers, lease, nil)
}

// BindChecked is Bind with an optional tie-break verifier: when check is
// non-nil every worker's writer first filters candidate pairs through it,
// so both the match count and the sink observe verified pairs only. A nil
// check is the zero-overhead fast path and is exactly Bind.
func BindChecked(s Sink, workers int, lease *memory.Lease, check PairCheck) *Bound {
	if s == nil {
		s = NewMaxSum()
	}
	if sc, ok := s.(Scratcher); ok {
		sc.SetScratch(lease)
	}
	s.Open(workers)
	b := &Bound{sink: s, writers: make([]*countingWriter, workers), check: check}
	for w := range b.writers {
		b.writers[w] = &countingWriter{inner: s.Writer(w)}
	}
	return b
}

// Writer returns worker w's consumer: the counting writer, wrapped in the
// tie-break verifier when one is bound.
func (b *Bound) Writer(w int) mergejoin.Consumer {
	if b.check != nil {
		return &checkingWriter{check: b.check, inner: b.writers[w]}
	}
	return b.writers[w]
}

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

// Batches is the number of columnar match batches flushed through the sink
// boundary, and BatchedMatches the pairs they carried; both are zero when the
// join delivered every pair one by one. Call after the join phase barrier.
func (b *Bound) Batches() (batches, pairs uint64) {
	for _, w := range b.writers {
		batches += w.batches
		pairs += w.batchedPairs
	}
	return batches, pairs
}

// countingWriter counts pairs before forwarding them to the sink's writer.
type countingWriter struct {
	inner        mergejoin.Consumer
	count        uint64
	batches      uint64
	batchedPairs uint64
}

// Consume implements mergejoin.Consumer.
func (c *countingWriter) Consume(r, s relation.Tuple) {
	c.count++
	c.inner.Consume(r, s)
}

// ConsumeColumns implements BatchWriter: one count update per batch, then the
// batch is forwarded — directly when the inner writer is batch-capable,
// pair by pair otherwise.
func (c *countingWriter) ConsumeColumns(keys, rPayloads, sPayloads []uint64) {
	n := uint64(len(keys))
	c.count += n
	c.batches++
	c.batchedPairs += n
	mergejoin.EmitColumns(c.inner, keys, rPayloads, sPayloads)
}

// ConsumeRanges implements mergejoin.RangeConsumer whenever the sink's writer
// does: the ranges are forwarded, and once taken they count as one batch of
// the pairs they stand for. A writer that takes none makes the kernel expand
// the batch through ConsumeColumns instead, which counts it there.
func (c *countingWriter) ConsumeRanges(b *batch.Ranges) bool {
	if rc, ok := c.inner.(mergejoin.RangeConsumer); !ok || !rc.ConsumeRanges(b) {
		return false
	}
	c.count += b.Pairs
	c.batches++
	c.batchedPairs += b.Pairs
	return true
}

// checkingWriter interposes the tie-break verifier in front of a worker's
// counting writer: candidate pairs that fail the check vanish before they
// are counted, and surviving pairs carry the payloads the check returned
// (the user payloads recovered from the key metadata). It sits outside the
// countingWriter so Matches() reports verified pairs only, and it takes no
// ranges: every candidate pair must pass the check, so the kernel expands.
type checkingWriter struct {
	check PairCheck
	inner *countingWriter
}

// Consume implements mergejoin.Consumer.
func (c *checkingWriter) Consume(r, s relation.Tuple) {
	rp, sp, ok := c.check(r.Payload, s.Payload)
	if !ok {
		return
	}
	r.Payload, s.Payload = rp, sp
	c.inner.Consume(r, s)
}

// ConsumeColumns implements BatchWriter: the batch is verified and
// compacted in place — surviving pairs slide forward over rejected ones —
// then the shortened batch flows on, keeping the columnar boundary intact
// under tie-break verification.
func (c *checkingWriter) ConsumeColumns(keys, rPayloads, sPayloads []uint64) {
	n := 0
	for i := range keys {
		if rp, sp, ok := c.check(rPayloads[i], sPayloads[i]); ok {
			keys[n], rPayloads[n], sPayloads[n] = keys[i], rp, sp
			n++
		}
	}
	if n > 0 {
		c.inner.ConsumeColumns(keys[:n], rPayloads[:n], sPayloads[:n])
	}
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
	parts []*pairBuffer
	pairs []Pair
}

// NewMaterialize returns a materializing sink.
func NewMaterialize() *Materialize { return &Materialize{} }

// SetScratch implements Scratcher.
func (m *Materialize) SetScratch(lease *memory.Lease) { m.lease = lease }

// Open implements Sink.
func (m *Materialize) Open(workers int) {
	m.parts = make([]*pairBuffer, workers)
	for w := range m.parts {
		m.parts[w] = &pairBuffer{lease: m.lease}
	}
	m.pairs = nil
}

// Writer implements Sink.
func (m *Materialize) Writer(w int) mergejoin.Consumer { return m.parts[w] }

// Close implements Sink.
func (m *Materialize) Close() error {
	total := 0
	for _, p := range m.parts {
		total += p.len()
	}
	m.pairs = make([]Pair, 0, total)
	for _, p := range m.parts {
		m.pairs = p.appendTo(m.pairs)
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

// pairBuffer is one worker's materialization buffer. Without a lease it is a
// plain growing pair slice; with a lease it stores pairs as two consecutive
// tuples in leased buffers, growing by doubling and handing outgrown buffers
// straight back for intra-join reuse.
type pairBuffer struct {
	lease *memory.Lease
	pairs []Pair           // plain mode
	buf   []relation.Tuple // leased mode: r at 2i, s at 2i+1
	n     int              // leased mode: tuples used in buf
}

// initialPairBufferTuples sizes the first leased buffer (2048 tuples =
// 32 KiB); joins emitting fewer than 1024 pairs per worker never regrow.
const initialPairBufferTuples = 2048

// Consume implements mergejoin.Consumer.
func (b *pairBuffer) Consume(r, s relation.Tuple) {
	if b.lease == nil {
		b.pairs = append(b.pairs, Pair{R: r, S: s})
		return
	}
	if b.n+2 > len(b.buf) {
		grown := b.lease.Tuples(max(initialPairBufferTuples, 2*len(b.buf)))
		copy(grown, b.buf[:b.n])
		b.lease.PutTuples(b.buf)
		b.buf = grown
	}
	b.buf[b.n] = r
	b.buf[b.n+1] = s
	b.n += 2
}

// ConsumeColumns implements BatchWriter: capacity is ensured once per batch,
// then the columns are interleaved into the buffer in one pass.
func (b *pairBuffer) ConsumeColumns(keys, rPayloads, sPayloads []uint64) {
	if b.lease == nil {
		for i := range keys {
			b.pairs = append(b.pairs, Pair{
				R: relation.Tuple{Key: keys[i], Payload: rPayloads[i]},
				S: relation.Tuple{Key: keys[i], Payload: sPayloads[i]},
			})
		}
		return
	}
	need := 2 * len(keys)
	for b.n+need > len(b.buf) {
		grown := b.lease.Tuples(max(initialPairBufferTuples, 2*len(b.buf)))
		copy(grown, b.buf[:b.n])
		b.lease.PutTuples(b.buf)
		b.buf = grown
	}
	for i := range keys {
		b.buf[b.n] = relation.Tuple{Key: keys[i], Payload: rPayloads[i]}
		b.buf[b.n+1] = relation.Tuple{Key: keys[i], Payload: sPayloads[i]}
		b.n += 2
	}
}

// len returns the number of buffered pairs.
func (b *pairBuffer) len() int {
	if b.lease == nil {
		return len(b.pairs)
	}
	return b.n / 2
}

// appendTo appends the buffered pairs to dst in emission order.
func (b *pairBuffer) appendTo(dst []Pair) []Pair {
	if b.lease == nil {
		return append(dst, b.pairs...)
	}
	for i := 0; i < b.n; i += 2 {
		dst = append(dst, Pair{R: b.buf[i], S: b.buf[i+1]})
	}
	return dst
}

// release hands the leased buffer back for reuse.
func (b *pairBuffer) release() {
	if b.lease != nil && b.buf != nil {
		b.lease.PutTuples(b.buf)
		b.buf, b.n = nil, 0
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
