package sink

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"time"

	"repro/internal/batch"
	"repro/internal/memory"
	"repro/internal/mergejoin"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/sched"
	"repro/internal/sorting"
)

// Agg selects the aggregate function of a group-by-key aggregation. The
// aggregation input of a joined pair is the paper's payload sum
// R.payload + S.payload (the default join projection); Count ignores the
// value and counts pairs per key.
type Agg int

const (
	// AggSum sums the values per key.
	AggSum Agg = iota
	// AggMin keeps the smallest value per key.
	AggMin
	// AggMax keeps the largest value per key.
	AggMax
	// AggCount counts the tuples per key.
	AggCount
)

// String implements fmt.Stringer.
func (a Agg) String() string {
	switch a {
	case AggSum:
		return "sum"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggCount:
		return "count"
	default:
		return fmt.Sprintf("Agg(%d)", int(a))
	}
}

// Valid reports whether a is a known aggregate function.
func (a Agg) Valid() bool { return a >= AggSum && a <= AggCount }

// initial is the accumulator value of a group's first tuple.
func (a Agg) initial(val uint64) uint64 {
	if a == AggCount {
		return 1
	}
	return val
}

// fold merges one more tuple value into a group accumulator.
func (a Agg) fold(acc, val uint64) uint64 {
	switch a {
	case AggMin:
		if val < acc {
			return val
		}
		return acc
	case AggMax:
		if val > acc {
			return val
		}
		return acc
	case AggCount:
		return acc + 1
	default:
		return acc + val
	}
}

// reduce folds a non-empty slice of values (sum, minimum or maximum).
func (a Agg) reduce(vals []uint64) uint64 {
	acc := vals[0]
	for _, v := range vals[1:] {
		acc = a.fold(acc, v)
	}
	return acc
}

// merge combines two partial accumulators of the same group (for example,
// from two workers or two sorted segments).
func (a Agg) merge(x, y uint64) uint64 {
	switch a {
	case AggMin:
		if y < x {
			return y
		}
		return x
	case AggMax:
		if y > x {
			return y
		}
		return x
	default: // sum and count partials both add
		return x + y
	}
}

// Groups is the group-by kernel: it reduces a pair or tuple stream to one
// tuple {Key: group key, Payload: aggregate} per distinct key, in ascending
// key order, by sorting instead of hashing — the same synchronization-free
// range partitioning and radix sort the join itself runs on.
//
// As a Sink it fuses into a join: every worker's writer applies the
// projection, folds runs of equal keys as they arrive (the key-ordered output
// of the MPSM join phase collapses to one entry per key and public run; a
// hash join's probe loop emits a key's matches back to back) and appends
// (key, partial) entries to leased buffers, so the join output is never
// materialized. From the columnar merge kernel the writers take that output
// as ranges — a private key group × its window of a public run — and, over a
// projection they recognise (Value), fold each range to its partial in
// O(m+n) without forming a pair. Close range-partitions the entries by key — per-writer
// histograms, equi-height splitters, prefix sums, a latch-free scatter —
// then sorts each partition, folds equal keys and concatenates the partitions
// in splitter order, one task per partition. Partitions that arrive ordered
// skip the sort. Aggregate runs the same kernel over a materialized tuple
// stream.
//
// Groups implements Scratcher: entry and partition buffers come from the
// join's scratch lease. The final group buffer is drawn from the out lease
// passed at construction — which must outlive the join — or freshly
// allocated when out is nil.
type Groups struct {
	ctx     context.Context
	agg     Agg
	project Projection
	value   Value
	out     *memory.Lease
	lease   *memory.Lease
	writers []*groupWriter
	rt      *sched.Runtime
	rows    []relation.Tuple
	elapsed time.Duration
}

// NewGroups returns a group-by kernel. A nil projection selects
// DefaultProjection; otherwise value names the projection if it is one the
// kernel recognises, which lets its writers fold merge output a key group ×
// window at a time, and is ValueOpaque for any other. ctx cancels the
// parallel finalisation.
func NewGroups(ctx context.Context, agg Agg, project Projection, value Value, out *memory.Lease) *Groups {
	if project == nil {
		value = ValuePayloadSum
	}
	return &Groups{ctx: ctx, agg: agg, project: project, value: value, out: out}
}

// SetScratch implements Scratcher.
func (g *Groups) SetScratch(lease *memory.Lease) { g.lease = lease }

// Open implements Sink.
func (g *Groups) Open(workers int) {
	g.writers = make([]*groupWriter, workers)
	for w := range g.writers {
		g.writers[w] = &groupWriter{agg: g.agg, value: g.value, tupleBuffer: tupleBuffer{project: g.project, lease: g.lease}}
	}
	g.rt, g.rows, g.elapsed = nil, nil, 0
}

// Writer implements Sink.
func (g *Groups) Writer(w int) mergejoin.Consumer { return g.writers[w] }

// Rows returns the aggregated tuples in ascending key order. Call after
// Close; the slice is valid until the next Open (it may be backed by the out
// lease).
func (g *Groups) Rows() []relation.Tuple { return g.rows }

// Elapsed is the time the kernel spent outside its producer: the
// finalisation of a fused aggregate (its fold runs inside the join phase),
// fold plus finalisation of Aggregate.
func (g *Groups) Elapsed() time.Duration { return g.elapsed }

// groupPartitionEntries is the input size one fold or finalisation task is
// worth: below it the kernel runs on the calling goroutine.
const groupPartitionEntries = 1 << 13

// groupHistogramBits is the histogram granularity the splitters are cut from.
const groupHistogramBits = 10

// Aggregate runs the kernel over a materialized tuple stream, grouping by
// Tuple.Key and aggregating Tuple.Payload: workers (0 selects GOMAXPROCS)
// fold contiguous chunks in parallel, then the groups are finalised as in
// Close.
func (g *Groups) Aggregate(tuples []relation.Tuple, workers int) error {
	start := time.Now()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(tuples)/groupPartitionEntries+1)
	g.Open(workers)
	err := g.parallel("fold", workers, func(i int) {
		w, chunk := g.writers[i], tuples[i*len(tuples)/workers:(i+1)*len(tuples)/workers]
		w.reserve(len(chunk)) // an upper bound on its entries: no regrowth
		for _, t := range chunk {
			w.add(t.Key, t.Payload)
		}
	})
	if err == nil {
		err = g.Close()
	}
	g.elapsed = time.Since(start)
	return err
}

// Close implements Sink: it finalises the writers' entries into the sorted
// group list.
func (g *Groups) Close() error {
	start := time.Now()
	defer func() { g.elapsed = time.Since(start) }()
	if err := g.ctx.Err(); err != nil {
		return err
	}
	total, maxKey := 0, uint64(0)
	for _, w := range g.writers {
		w.flush()
		total += w.n
		maxKey = max(maxKey, w.maxKey)
	}
	parts := min(len(g.writers), total/groupPartitionEntries+1)
	targets := make([][]relation.Tuple, parts)
	var buf []relation.Tuple
	if len(g.writers) == 1 {
		targets[0] = g.writers[0].tuples() // one writer: its buffer is the one partition
	} else {
		buf = g.lease.Tuples(total)
		if err := g.scatter(maxKey, buf, targets); err != nil {
			return err
		}
	}

	// Partition p sorts into [starts[p], starts[p+1]) of the key and payload
	// columns and folds there; the groups left at the front of each range are
	// then interleaved into their slot of the output.
	keys, pays := g.lease.Uint64s(total), g.lease.Uint64s(total)
	starts, counts := make([]int, parts+1), make([]int, parts)
	for p, part := range targets {
		starts[p+1] = starts[p] + len(part)
	}
	err := g.parallel("sort", parts, func(p int) {
		lo, hi := starts[p], starts[p+1]
		counts[p] = g.sortFold(targets[p], keys[lo:hi], pays[lo:hi], maxKey)
	})
	if err != nil {
		return err
	}
	offsets, groups := make([]int, parts), 0
	for p, c := range counts {
		offsets[p] = groups
		groups += c
	}
	rows := g.out.Tuples(groups) // nil lease allocates fresh
	err = g.parallel("concat", parts, func(p int) {
		batch.Interleave(keys[starts[p]:starts[p]+counts[p]], pays[starts[p]:], rows[offsets[p]:])
	})
	if err != nil {
		return err
	}
	g.lease.PutTuples(buf)
	g.lease.PutUint64s(keys)
	g.lease.PutUint64s(pays)
	for _, w := range g.writers {
		w.release()
	}
	g.rows = rows
	return nil
}

// scatter range-partitions the writers' entries into buf, cut into targets
// by equi-height splitters over the combined key histogram. Every writer owns
// a precomputed index range in every target, so the scatter is latch-free.
func (g *Groups) scatter(maxKey uint64, buf []relation.Tuple, targets [][]relation.Tuple) error {
	cfg := partition.NewRadixConfig(groupHistogramBits, maxKey)
	hists := make([]partition.Histogram, len(g.writers))
	err := g.parallel("histogram", len(hists), func(w int) {
		hists[w] = partition.BuildHistogram(g.writers[w].tuples(), cfg)
	})
	if err != nil {
		return err
	}
	sp := partition.EquiHeightSplitters(partition.CombineHistograms(hists), len(targets))
	sums := partition.ComputePrefixSums(hists, sp, len(targets))
	pos := 0
	for p, size := range sums.Sizes {
		targets[p] = buf[pos : pos+size]
		pos += size
	}
	return g.parallel("scatter", len(hists), func(w int) {
		partition.Scatter(g.writers[w].tuples(), cfg, sp, targets, sums.Offsets[w])
	})
}

// sortFold sorts one partition by key into the key and payload columns —
// the packed columnar radix sort of run generation, told the writers' maximum
// key so it scans for none; a partition that arrived ordered is only
// deinterleaved — then folds the partial accumulators of equal keys in place
// and returns the number of groups left at the front.
func (g *Groups) sortFold(part []relation.Tuple, keys, pays []uint64, maxKey uint64) int {
	if relation.IsSortedByKey(part) {
		batch.Deinterleave(part, keys, pays)
	} else {
		sorting.SortTuplesIntoColumnsWithMax(part, keys, pays, maxKey, g.lease)
	}
	n := 0
	for i := 0; i < len(keys); n++ {
		key, acc := keys[i], pays[i]
		for i++; i < len(keys) && keys[i] == key; i++ {
			acc = g.agg.merge(acc, pays[i])
		}
		keys[n], pays[n] = key, acc
	}
	return n
}

// parallel runs fn(0) … fn(n-1): on the calling goroutine when there is one
// unit, as tasks of the kernel's runtime otherwise, which contains worker
// panics and stops at a canceled context.
func (g *Groups) parallel(name string, n int, fn func(i int)) error {
	if n == 1 {
		fn(0)
		return nil
	}
	if g.rt == nil {
		g.rt = sched.New(sched.Config{Workers: len(g.writers)})
	}
	tasks := make([]sched.Task, n)
	for i := range tasks {
		tasks[i] = sched.Task{Node: -1, Run: func(*sched.Worker) { fn(i) }}
	}
	g.rt.RunTasks(g.ctx, name, tasks)
	if err := g.rt.Err(); err != nil {
		return err
	}
	return g.ctx.Err()
}

// groupWriter is one worker's consumer: a running accumulator over the
// current key in front of a buffer of finished (key, partial) entries.
type groupWriter struct {
	tupleBuffer
	agg            Agg
	value          Value
	curKey, curVal uint64
	active         bool
	maxKey         uint64
}

// Consume implements mergejoin.Consumer.
func (w *groupWriter) Consume(r, s relation.Tuple) {
	t := w.apply(r, s)
	w.add(t.Key, t.Payload)
}

// ConsumeColumns implements BatchWriter. The projection test is hoisted out
// of the loop: this is the per-pair hot path of every aggregate query, and
// going through Consume costs ~6% of a 1M-pair plan.
func (w *groupWriter) ConsumeColumns(keys, rPayloads, sPayloads []uint64) {
	if w.project == nil {
		for i, k := range keys {
			w.add(k, rPayloads[i]+sPayloads[i])
		}
		return
	}
	for i, k := range keys {
		t := w.project(relation.Tuple{Key: k, Payload: rPayloads[i]}, relation.Tuple{Key: k, Payload: sPayloads[i]})
		w.add(t.Key, t.Payload)
	}
}

// ConsumeRanges implements mergejoin.RangeConsumer for the projections the
// kernel recognises: every entry is one key group, so it folds to one partial
// accumulator without visiting its pairs.
func (w *groupWriter) ConsumeRanges(b *batch.Ranges) bool {
	if w.value == ValueOpaque {
		return false
	}
	for x, i := range b.I {
		w.addPartial(b.RKeys[i], w.foldRange(b, int(i), int(b.IEnd[x]), int(b.Lo[x]), int(b.Hi[x])))
	}
	return true
}

// foldRange aggregates the m·n pairs of private tuples [i, iEnd) × public
// tuples [lo, hi) in O(m+n). The recognised projections take their value from
// one side, or add one value of each, so the aggregates separate: a sum
// counts every private value n times and every public one m times (wrapping
// mod 2^64 exactly as the repeated additions would), a minimum or maximum is
// taken per side, a count is m·n.
func (w *groupWriter) foldRange(b *batch.Ranges, i, iEnd, lo, hi int) uint64 {
	m, n := uint64(iEnd-i), uint64(hi-lo)
	if w.agg == AggCount {
		return m * n
	}
	var vals []uint64 // the values of the side the projection reads
	times := m        // how often a sum counts each of them
	switch w.value {
	case ValueBuildPayload:
		vals, times = b.RPayloads[i:iEnd], n
	case ValueBuildKey:
		vals, times = b.RKeys[i:iEnd], n
	case ValueProbePayload:
		vals = b.SPayloads[lo:hi]
	case ValueProbeKey:
		vals = b.SKeys[lo:hi]
	default: // ValuePayloadSum
		rp, sp := b.RPayloads[i:iEnd], b.SPayloads[lo:hi]
		if w.agg == AggSum {
			return n*w.agg.reduce(rp) + m*w.agg.reduce(sp)
		}
		// A minimum or maximum of sums separates only while no sum wraps.
		if _, carry := bits.Add64(AggMax.reduce(rp), AggMax.reduce(sp), 0); carry == 0 {
			return w.agg.reduce(rp) + w.agg.reduce(sp)
		}
		acc := rp[0] + sp[0]
		for _, r := range rp {
			for _, s := range sp {
				acc = w.agg.fold(acc, r+s)
			}
		}
		return acc
	}
	if w.agg == AggSum {
		return times * w.agg.reduce(vals)
	}
	return w.agg.reduce(vals)
}

// addPartial folds a partial accumulator of a whole key group into the
// running one, or starts the next run with it.
func (w *groupWriter) addPartial(key, partial uint64) {
	if w.active && key == w.curKey {
		w.curVal = w.agg.merge(w.curVal, partial)
		return
	}
	w.flush()
	w.curKey, w.curVal, w.active = key, partial, true
}

// add folds one value into the running accumulator, or starts the next run.
func (w *groupWriter) add(key, val uint64) {
	if w.active && key == w.curKey {
		w.curVal = w.agg.fold(w.curVal, val)
		return
	}
	w.flush()
	w.curKey, w.curVal, w.active = key, w.agg.initial(val), true
}

// flush appends the finished accumulator as an entry.
func (w *groupWriter) flush() {
	if w.active {
		w.push(relation.Tuple{Key: w.curKey, Payload: w.curVal})
		w.maxKey = max(w.maxKey, w.curKey)
		w.active = false
	}
}

// AggregateTuples groups a plain tuple stream by Tuple.Key and aggregates
// Tuple.Payload, returning the groups in ascending key order: the kernel run
// standalone, on GOMAXPROCS workers and without a scratch pool.
func AggregateTuples(tuples []relation.Tuple, agg Agg) []relation.Tuple {
	g := NewGroups(context.TODO(), agg, nil, ValuePayloadSum, nil)
	if err := g.Aggregate(tuples, 0); err != nil {
		panic(err) // only a kernel bug reaches here: no caller, no cancellation
	}
	return g.Rows()
}
