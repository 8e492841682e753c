package exec

import (
	"context"
	"math/bits"
	"runtime"

	"repro/internal/memory"
	"repro/internal/relation"
	"repro/internal/sched"
)

// derived builds a filter output relation over dst, carrying the input's
// key metadata forward: selection copies tuples whole, so prefix keys and
// row-index payloads stay valid against the original metadata. A KeyRange
// on a schema-keyed relation therefore selects on the normalized prefix —
// exact key order for exact schemas, prefix order (a superset at the range
// edges) for tie-break schemas.
func derived(rel *relation.Relation, dst []relation.Tuple) *relation.Relation {
	out := relation.New(rel.Name, dst)
	out.Meta = rel.Meta
	return out
}

// filterParallelCutoff is the input size below which scan+filter runs
// single-threaded: a serial pass over 16K tuples (256 KiB) is faster than
// spinning up a worker pool for it.
const filterParallelCutoff = 1 << 14

// applyScanFilter is the scan's selection: it returns the input unchanged
// when there is neither a key range nor a predicate, and an exactly-sized copy
// of the selected tuples, in input order, otherwise. A first pass writes the
// positions of the selected tuples into a selection vector — evaluating the
// predicate exactly once per tuple inside the range — and a second gathers
// them, so a 1% selection allocates 1% of the input, not its full capacity,
// and the output buffer can come from the scratch lease (leased reports
// whether it did; such relations are owned by the plan execution and recycled
// after use). Large inputs run both passes as chunked parallel tasks on the
// shared runtime; a canceled context may leave the copy incomplete, so callers
// must check ctx before using the result.
func applyScanFilter(ctx context.Context, rel *relation.Relation, rng *KeyRange, pred Predicate, workers int, lease *memory.Lease) (out *relation.Relation, leased bool) {
	if rng == nil && pred == nil {
		return rel, false
	}
	// Without a range every key is inside: the range test is or-ed with all.
	lo, width, all := uint64(0), uint64(0), uint64(1)
	if rng != nil {
		if rng.High <= rng.Low {
			return derived(rel, lease.Tuples(0)), lease != nil
		}
		lo, width, all = rng.Low, rng.High-rng.Low, 0
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := rel.Len()
	sel := lease.Int32s(n) // nil lease allocates fresh
	defer lease.PutInt32s(sel)
	if n < filterParallelCutoff || workers == 1 {
		total := selectChunk(rel.Tuples, lo, width, all, pred, sel)
		dst := lease.Tuples(total)
		gatherChunk(rel.Tuples, sel[:total], dst)
		return derived(rel, dst), lease != nil
	}

	// Pass 1: per chunk, the selection vector and with it the count.
	type chunk struct{ lo, hi int }
	var chunks []chunk
	sched.ForEachSegment(n, 0, func(clo, chi int) {
		chunks = append(chunks, chunk{clo, chi})
	})
	counts := make([]int, len(chunks))
	rt := sched.New(sched.Config{Workers: workers})
	tasks := make([]sched.Task, len(chunks))
	for i, c := range chunks {
		tasks[i] = sched.Task{Node: -1, Run: func(*sched.Worker) {
			counts[i] = selectChunk(rel.Tuples[c.lo:c.hi], lo, width, all, pred, sel[c.lo:c.hi])
		}}
	}
	rt.RunTasks(ctx, "scan", tasks)

	total := 0
	offsets := make([]int, len(chunks))
	for i, c := range counts {
		offsets[i] = total
		total += c
	}

	// Pass 2: gather each chunk's survivors into its disjoint output range.
	// The counts come from the one evaluation pass 1 made, so a predicate that
	// violates the purity contract still cannot write past a chunk's range.
	dst := lease.Tuples(total) // nil lease allocates fresh
	for i, c := range chunks {
		tasks[i] = sched.Task{Node: -1, Run: func(*sched.Worker) {
			gatherChunk(rel.Tuples[c.lo:c.hi], sel[c.lo:c.lo+counts[i]], dst[offsets[i]:offsets[i]+counts[i]])
		}}
	}
	rt.RunTasks(ctx, "filter", tasks)
	return derived(rel, dst), lease != nil
}

// selectChunk writes the positions of the selected tuples to the front of sel
// (len(tuples) elements) and returns their number. The write is unconditional
// and the cursor advances by the hit bit, so the loop does not branch on the
// data: range membership is the borrow bit of an unsigned subtraction
// (key-lo < width), or-ed with all for a scan without a range, and the
// predicate — asked once per tuple inside the range — only turns a hit off.
func selectChunk(tuples []relation.Tuple, lo, width, all uint64, pred Predicate, sel []int32) int {
	sel = sel[:len(tuples)]
	n := 0
	for i, t := range tuples {
		sel[n] = int32(i)
		_, hit := bits.Sub64(t.Key-lo, width, 0)
		hit |= all
		if pred != nil && hit != 0 {
			hit = 0
			if pred(t) {
				hit = 1
			}
		}
		n += int(hit)
	}
	return n
}

// gatherChunk copies the tuples at the selected positions to dst, which has
// one element per position.
func gatherChunk(tuples []relation.Tuple, sel []int32, dst []relation.Tuple) {
	for j, i := range sel {
		dst[j] = tuples[i]
	}
}

// mapChunks applies fn element-wise from src to dst (equal lengths), in
// parallel chunks for large inputs.
func mapChunks(ctx context.Context, src, dst []relation.Tuple, fn func(relation.Tuple) relation.Tuple, workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if len(src) < filterParallelCutoff || workers == 1 {
		for i, t := range src {
			dst[i] = fn(t)
		}
		return
	}
	var tasks []sched.Task
	sched.ForEachSegment(len(src), 0, func(lo, hi int) {
		tasks = append(tasks, sched.Task{Node: -1, Run: func(*sched.Worker) {
			for i := lo; i < hi; i++ {
				dst[i] = fn(src[i])
			}
		}})
	})
	rt := sched.New(sched.Config{Workers: workers})
	rt.RunTasks(ctx, "map", tasks)
}
