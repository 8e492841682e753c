package sink

import (
	"repro/internal/batch"
	"repro/internal/memory"
	"repro/internal/mergejoin"
	"repro/internal/relation"
)

// Projection converts one joined pair into the output tuple of an operator
// above the join. The join's default projection {Key: R.Key, Payload:
// R.Payload + S.Payload} carries the join key and the paper's aggregation
// input.
type Projection func(r, s relation.Tuple) relation.Tuple

// DefaultProjection is the projection a join applies when feeding another
// operator without an explicit Project node.
func DefaultProjection(r, s relation.Tuple) relation.Tuple {
	return relation.Tuple{Key: r.Key, Payload: r.Payload + s.Payload}
}

// Value names the projections the group-by kernel recognises: all keep the
// build key and differ in what they take from the pair as the value to
// aggregate. Over one of these an aggregate separates per side, so a whole
// key group × window of merge output folds in O(m+n); see groupWriter. The
// zero value stands for an arbitrary closure, which must see every pair.
type Value uint8

const (
	// ValueOpaque is any projection the kernel cannot see into.
	ValueOpaque Value = iota
	// ValuePayloadSum is R.payload + S.payload: DefaultProjection.
	ValuePayloadSum
	// ValueBuildPayload is R.payload.
	ValueBuildPayload
	// ValueProbePayload is S.payload.
	ValueProbePayload
	// ValueBuildKey is R.key.
	ValueBuildKey
	// ValueProbeKey is S.key, which differs from the output key under a band
	// join.
	ValueProbeKey
)

// Projection returns the projection v names (nil for ValueOpaque), for the
// consumers that apply it pair by pair.
func (v Value) Projection() Projection {
	switch v {
	case ValuePayloadSum:
		return DefaultProjection
	case ValueBuildPayload:
		return func(r, _ relation.Tuple) relation.Tuple { return r }
	case ValueProbePayload:
		return func(r, s relation.Tuple) relation.Tuple { return relation.Tuple{Key: r.Key, Payload: s.Payload} }
	case ValueBuildKey:
		return func(r, _ relation.Tuple) relation.Tuple { return relation.Tuple{Key: r.Key, Payload: r.Key} }
	case ValueProbeKey:
		return func(r, s relation.Tuple) relation.Tuple { return relation.Tuple{Key: r.Key, Payload: s.Key} }
	default:
		return nil
	}
}

// Collect is the operator bridge between a join and a consumer of tuples: it
// applies a projection to every joined pair and materializes the projected
// tuples, worker-locally and lock-free, into one flat tuple slice. The plan
// executor uses it to feed a join's output into the next operator (for
// example, as the intermediate relation of a second join).
//
// Collect implements Scratcher, so the per-worker buffers come from the
// join's scratch lease. The final concatenated buffer is drawn from the out
// lease passed at construction — which must outlive the join (the plan
// execution's lease) — or freshly allocated when out is nil.
type Collect struct {
	project Projection
	out     *memory.Lease
	lease   *memory.Lease
	parts   []*tupleBuffer
	rows    []relation.Tuple
}

// NewCollect returns a collecting bridge sink; a nil projection selects
// DefaultProjection.
func NewCollect(project Projection, out *memory.Lease) *Collect {
	return &Collect{project: project, out: out}
}

// SetScratch implements Scratcher.
func (c *Collect) SetScratch(lease *memory.Lease) { c.lease = lease }

// Open implements Sink.
func (c *Collect) Open(workers int) {
	c.parts = make([]*tupleBuffer, workers)
	for w := range c.parts {
		c.parts[w] = &tupleBuffer{project: c.project, lease: c.lease}
	}
	c.rows = nil
}

// Writer implements Sink.
func (c *Collect) Writer(w int) mergejoin.Consumer { return c.parts[w] }

// Close implements Sink: it concatenates the per-worker buffers in worker
// order and returns them to the join's lease.
func (c *Collect) Close() error {
	total := 0
	for _, p := range c.parts {
		total += p.n
	}
	out := c.out.Tuples(total) // nil lease allocates fresh
	pos := 0
	for _, p := range c.parts {
		copy(out[pos:], p.tuples())
		pos += p.n
		p.release()
	}
	c.rows = out[:total]
	return nil
}

// Rows returns the projected tuples of all joined pairs. Call after Close;
// the slice is valid until the next Open (it may be backed by the out lease).
func (c *Collect) Rows() []relation.Tuple { return c.rows }

// tupleBuffer is one worker's projection buffer, growing by doubling in
// leased space and handing outgrown buffers straight back for intra-join
// reuse; a nil lease allocates. A nil projection is DefaultProjection,
// inlined. Materialize's pairWriter stores pairs in it unprojected.
type tupleBuffer struct {
	project Projection
	lease   *memory.Lease
	buf     []relation.Tuple
	n       int
}

// initialTupleBufferLen sizes the first leased buffer (2048 tuples = 32 KiB).
const initialTupleBufferLen = 2048

// apply projects one pair.
func (b *tupleBuffer) apply(r, s relation.Tuple) relation.Tuple {
	if b.project == nil {
		return DefaultProjection(r, s)
	}
	return b.project(r, s)
}

// reserve makes room for extra more tuples.
func (b *tupleBuffer) reserve(extra int) {
	if b.n+extra <= len(b.buf) {
		return
	}
	grown := b.lease.Tuples(max(initialTupleBufferLen, 2*len(b.buf), b.n+extra))
	copy(grown, b.buf[:b.n])
	b.lease.PutTuples(b.buf)
	b.buf = grown
}

// grow appends n tuples and returns them, for the caller to fill.
func (b *tupleBuffer) grow(n int) []relation.Tuple {
	b.reserve(n)
	b.n += n
	return b.buf[b.n-n : b.n]
}

// push appends one tuple.
func (b *tupleBuffer) push(t relation.Tuple) {
	b.reserve(1)
	b.buf[b.n] = t
	b.n++
}

// Consume implements mergejoin.Consumer.
func (b *tupleBuffer) Consume(r, s relation.Tuple) { b.push(b.apply(r, s)) }

// ConsumeRanges implements mergejoin.RangeConsumer: capacity is ensured once
// per batch, then its pairs are projected in one walk.
func (b *tupleBuffer) ConsumeRanges(rb *batch.Ranges) {
	dst := b.grow(int(rb.Pairs))
	n := 0
	for r, s := range rb.All() {
		dst[n] = b.apply(r, s)
		n++
	}
}

// tuples returns the buffered tuples.
func (b *tupleBuffer) tuples() []relation.Tuple { return b.buf[:b.n] }

// release hands the leased buffer back for reuse.
func (b *tupleBuffer) release() {
	if b.buf != nil {
		b.lease.PutTuples(b.buf)
		b.buf, b.n = nil, 0
	}
}
