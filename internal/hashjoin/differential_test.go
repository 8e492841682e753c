package hashjoin

import (
	"cmp"
	"context"
	"errors"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/batch"
	"repro/internal/memory"
	"repro/internal/mergejoin"
	"repro/internal/relation"
	"repro/internal/result"
	"repro/internal/sched"
	"repro/internal/sink"
)

// sortedPairs orders joined pairs so that two executions compare as multisets.
func sortedPairs(pairs []mergejoin.JoinedTuple) []mergejoin.JoinedTuple {
	slices.SortFunc(pairs, func(a, b mergejoin.JoinedTuple) int {
		return cmp.Or(cmp.Compare(a.Key, b.Key), cmp.Compare(a.RPayload, b.RPayload), cmp.Compare(a.SPayload, b.SPayload))
	})
	return pairs
}

// foldOf is the max-sum aggregate of the pairs keep accepts.
func foldOf(pairs []mergejoin.JoinedTuple, keep func(rPayload, sPayload uint64) bool) mergejoin.MaxAggregate {
	var agg mergejoin.MaxAggregate
	for _, p := range pairs {
		if keep(p.RPayload, p.SPayload) {
			agg.Consume(relation.Tuple{Key: p.Key, Payload: p.RPayload}, relation.Tuple{Key: p.Key, Payload: p.SPayload})
		}
	}
	return agg
}

// evenSums is a tie-break verifier that rejects every other candidate: the
// pairs whose payload sum is odd.
func evenSums(rPayload, sPayload uint64) (uint64, uint64, bool) {
	return rPayload, sPayload, (rPayload+sPayload)%2 == 0
}

// checkAgainstReference runs both hash joins over (rT, sT) — one worker, two,
// and up to 19, which is more workers than tuples for the small inputs; static
// and morsel scheduling with morsels small enough to split the inputs; with a
// scratch pool and without — and compares every pair they emit with
// mergejoin.ReferenceJoin's. The same joins into the default sink (max-sum)
// and into Count run the probe loop that folds and must report the
// reference's pair count and largest pair sum mod 2^64; into the default sink
// behind a verifier that rejects every other candidate they run the range
// loop and count only the verified pairs. The range loop also feeds the sinks
// that take ranges — group-bys over the probe payload (sum), the default
// projection (max) and an opaque closure (count), and Collect — which must
// report what a map oracle computes from the reference's pairs. A pooled run
// must also leave no lease checked out.
func checkAgainstReference(t *testing.T, rT, sT []relation.Tuple) {
	t.Helper()
	checkCells(t, rT, sT, -1)
}

// hashJoinCells is the size of checkAgainstReference's matrix: three worker
// counts, two schedulers, pooled or not, two joins and eight sinks.
const hashJoinCells = 3 * 2 * 2 * 2 * (1 + 4 + 3)

// checkCells runs cell only of checkAgainstReference's matrix, numbered in
// the order the loops below run them, or every cell where only < 0.
func checkCells(t *testing.T, rT, sT []relation.Tuple, only int) {
	t.Helper()
	cell := 0
	selected := func() bool {
		cell++
		return only < 0 || cell-1 == only
	}
	var oracle mergejoin.Materializer
	mergejoin.ReferenceJoin(rT, sT, &oracle)
	want := oracle.Out // sorted only where a cell compares pairs
	all := foldOf(want, func(uint64, uint64) bool { return true })
	even := foldOf(want, func(rp, sp uint64) bool { _, _, ok := evenSums(rp, sp); return ok })
	opaque := func(r, s relation.Tuple) relation.Tuple {
		return relation.Tuple{Key: s.Payload % 5, Payload: r.Payload}
	}
	rangeSinks := []struct {
		label   string
		new     func() sink.Sink
		rows    func(sink.Sink) []relation.Tuple
		project sink.Projection
		agg     sink.Agg
		grouped bool
	}{
		{"group sum of the probe payload", func() sink.Sink {
			return sink.NewGroups(context.Background(), sink.AggSum, sink.ValueProbePayload.Projection(), sink.ValueProbePayload, nil)
		}, groupRows, sink.ValueProbePayload.Projection(), sink.AggSum, true},
		{"group max of the default projection", func() sink.Sink {
			return sink.NewGroups(context.Background(), sink.AggMax, nil, sink.ValueOpaque, nil)
		}, groupRows, sink.DefaultProjection, sink.AggMax, true},
		{"group count of an opaque closure", func() sink.Sink {
			return sink.NewGroups(context.Background(), sink.AggCount, opaque, sink.ValueOpaque, nil)
		}, groupRows, opaque, sink.AggCount, true},
		{"collect of the probe key", func() sink.Sink { return sink.NewCollect(sink.ValueProbeKey.Projection(), nil) },
			func(s sink.Sink) []relation.Tuple { return s.(*sink.Collect).Rows() }, sink.ValueProbeKey.Projection(), 0, false},
	}
	r, s := relation.New("R", rT), relation.New("S", sT)
	pool := memory.NewPool(1 << 24)
	for _, workers := range []int{1, 2, min(max(len(rT), len(sT))+3, 19)} {
		for _, mode := range []sched.Mode{sched.Static, sched.Morsel} {
			for _, scratch := range []*memory.Pool{nil, pool} {
				opts := Options{Workers: workers, Scheduler: mode, MorselSize: 7, Scratch: scratch}
				for _, j := range []struct {
					name string
					join func(Options) (*result.Result, error)
				}{
					{"Wisconsin", func(o Options) (*result.Result, error) { return Wisconsin(context.Background(), r, s, o) }},
					{"Radix", func(o Options) (*result.Result, error) { return radixJoin(context.Background(), r, s, o, 3) }},
				} {
					name, join := j.name, j.join
					if selected() {
						out := sink.NewMaterialize()
						opts.Sink = out
						res, err := join(opts)
						if err != nil {
							t.Fatalf("%s T=%d %v pooled=%v: %v", name, workers, mode, scratch != nil, err)
						}
						matches := res.Matches
						got := make([]mergejoin.JoinedTuple, 0, len(out.Pairs()))
						for _, p := range out.Pairs() {
							if p.R.Key != p.S.Key {
								t.Fatalf("%s T=%d %v: emitted pair with keys %d and %d", name, workers, mode, p.R.Key, p.S.Key)
							}
							got = append(got, mergejoin.JoinedTuple{Key: p.R.Key, RPayload: p.R.Payload, SPayload: p.S.Payload})
						}
						if matches != uint64(len(want)) || !slices.Equal(sortedPairs(got), sortedPairs(want)) {
							t.Fatalf("%s T=%d %v pooled=%v: %d matches / %d pairs, reference has %d\n|R|=%d |S|=%d",
								name, workers, mode, scratch != nil, matches, len(got), len(want), len(rT), len(sT))
						}
					}

					for _, run := range rangeSinks {
						if !selected() {
							continue
						}
						o := opts
						o.Sink = run.new()
						res, err := join(o)
						if err != nil {
							t.Fatalf("%s into %s T=%d %v pooled=%v: %v", name, run.label, workers, mode, scratch != nil, err)
						}
						wantRows := mapOracle(want, run.project, run.agg, run.grouped)
						if gotRows := sortedTuples(append([]relation.Tuple(nil), run.rows(o.Sink)...)); !slices.Equal(gotRows, wantRows) ||
							res.Matches != uint64(len(want)) || res.Batch.Tuples != res.Matches {
							t.Fatalf("%s into %s T=%d %v pooled=%v: %d matches (%d batched), rows %v, the map oracle's %v\n|R|=%d |S|=%d",
								name, run.label, workers, mode, scratch != nil, res.Matches, res.Batch.Tuples, gotRows, wantRows, len(rT), len(sT))
						}
					}

					for _, run := range []struct {
						label string
						sink  sink.Sink
						check sink.PairCheck
						want  mergejoin.MaxAggregate
					}{
						{"max-sum", nil, nil, all},
						{"count", sink.NewCount(), nil, all},
						{"max-sum behind a verifier", nil, evenSums, even},
					} {
						if !selected() {
							continue
						}
						o := opts
						o.Sink, o.KeyCheck = run.sink, run.check
						res, err := join(o)
						if err != nil {
							t.Fatalf("%s into %s T=%d %v pooled=%v: %v", name, run.label, workers, mode, scratch != nil, err)
						}
						wantMax := run.want.Max
						if run.sink != nil {
							wantMax = 0 // Count keeps no sum
						}
						if res.Matches != run.want.Count || res.MaxSum != wantMax || res.Batch.Tuples != res.Matches {
							t.Fatalf("%s into %s T=%d %v pooled=%v: (matches, max, batched) = (%d, %d, %d), reference (%d, %d)\n|R|=%d |S|=%d",
								name, run.label, workers, mode, scratch != nil, res.Matches, res.MaxSum, res.Batch.Tuples,
								run.want.Count, wantMax, len(rT), len(sT))
						}
					}
				}
			}
		}
	}
	if st := pool.Stats(); st.ActiveLeases != 0 {
		t.Fatalf("%d leases still checked out", st.ActiveLeases)
	}
	if cell != hashJoinCells {
		t.Fatalf("the matrix has %d cells, hashJoinCells says %d", cell, hashJoinCells)
	}
}

// groupRows returns a group-by's rows.
func groupRows(s sink.Sink) []relation.Tuple { return s.(*sink.Groups).Rows() }

// mapOracle projects the reference's pairs and, when grouped, aggregates the
// projected tuples per key in a map; the result is sorted.
func mapOracle(pairs []mergejoin.JoinedTuple, project sink.Projection, agg sink.Agg, grouped bool) []relation.Tuple {
	var rows []relation.Tuple
	groups := make(map[uint64]uint64)
	for _, p := range pairs {
		t := project(relation.Tuple{Key: p.Key, Payload: p.RPayload}, relation.Tuple{Key: p.Key, Payload: p.SPayload})
		if !grouped {
			rows = append(rows, t)
			continue
		}
		acc, seen := groups[t.Key]
		switch {
		case agg == sink.AggCount:
			acc++
		case !seen:
			acc = t.Payload
		default:
			acc = agg.Merge(acc, t.Payload)
		}
		groups[t.Key] = acc
	}
	for k, v := range groups {
		rows = append(rows, relation.Tuple{Key: k, Payload: v})
	}
	return sortedTuples(rows)
}

// sortedTuples orders tuples by key, then payload.
func sortedTuples(ts []relation.Tuple) []relation.Tuple {
	slices.SortFunc(ts, func(a, b relation.Tuple) int {
		return cmp.Or(cmp.Compare(a.Key, b.Key), cmp.Compare(a.Payload, b.Payload))
	})
	return ts
}

// tuplesOf builds tuples with the given keys and distinct payloads.
func tuplesOf(payloadBase uint64, keys ...uint64) []relation.Tuple {
	out := make([]relation.Tuple, len(keys))
	for i, k := range keys {
		out[i] = relation.Tuple{Key: k, Payload: payloadBase + uint64(i)}
	}
	return out
}

// repeated returns n copies of key.
func repeated(key uint64, n int) []uint64 {
	return slices.Repeat([]uint64{key}, n)
}

// TestHashJoinsMatchReference pins the shapes the one table and probe loop
// must get right, each against the reference join.
func TestHashJoinsMatchReference(t *testing.T) {
	const maxKey = math.MaxUint64
	dense := make([]uint64, 300)
	for i := range dense {
		dense[i] = uint64(i)
	}
	cases := map[string]struct{ r, s []uint64 }{
		"empty build":          {nil, []uint64{1, 2, 3}},
		"empty probe":          {[]uint64{1, 2, 3}, nil},
		"both empty":           {nil, nil},
		"one tuple each":       {[]uint64{9}, []uint64{9}},
		"one tuple, no match":  {[]uint64{9}, []uint64{8}},
		"zero and max keys":    {[]uint64{0, maxKey, 0, maxKey - 1, 1}, []uint64{maxKey, 0, maxKey, 1 << 63, 0}},
		"build duplicates":     {[]uint64{5, 7, 5, 5, 7, 11}, []uint64{5, 5, 7, 13, 11, 7, 5}},
		"all equal":            {repeated(42, 40), repeated(42, 9)},
		"probe misses buckets": {dense[:64], []uint64{1 << 40, 3 << 40, 64, 65, 1000, 7, 63}},
		"high-end keys":        {[]uint64{1 << 48, 2 << 48, 3 << 48, 1 << 20, 2 << 20}, []uint64{2 << 48, 2 << 20, 4 << 48, 1 << 48}},
		// 32 × 32 matches fill one output batch exactly; 3 × 400 cross the
		// batch boundary inside a chain (1 024 = 341 probes and one entry).
		"exactly one batch":   {repeated(3, 32), repeated(3, batch.DefaultSize/32)},
		"batch ends in chain": {append(repeated(6, 3), dense...), append(repeated(6, 400), dense[100:200]...)},
		// One probe tuple with more build partners than a batch holds: its
		// entry is closed and flushed mid-chain, twice for the second.
		"chain longer than a batch": {append(repeated(8, 2*batch.DefaultSize+5), dense[:20]...), []uint64{3, 8, 8, 9}},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			checkAgainstReference(t, tuplesOf(1000, c.r...), tuplesOf(5000, c.s...))
		})
	}
	// Key i pairs build payload MaxUint64-199+i with probe payload i: the sums
	// of keys 0–99 climb to MaxUint64-1, those of keys 100–199 wrap to small
	// ones, so the largest sum is not the sum of the largest payloads.
	t.Run("payload sums wrap", func(t *testing.T) {
		checkAgainstReference(t, tuplesOf(maxKey-199, dense[:200]...), tuplesOf(0, dense[:200]...))
	})
}

// TestDistinctBuildDetection: a table flagged distinct ends every probe walk
// at its first match, so a flag set over a build that holds a key twice drops
// matches silently. Each case places the build's only duplicate pair
// elsewhere — adjacent, in two insert calls more than cancelBlock apart,
// behind other keys of its bucket, at key 0 and at MaxUint64, first and last,
// so in the chunks of two workers — and the insert must flag exactly those
// builds: unshared, cut into cancelBlock calls as insertBlock cuts them, and
// shared, two goroutines swapping the halves in. Over the same builds both
// joins, at one, two and eight workers under both schedulers, must equal
// mergejoin.ReferenceJoin into Materialize, as multisets, and into max-sum.
func TestDistinctBuildDetection(t *testing.T) {
	const n = cancelBlock + 128
	base := make([]uint64, n)
	for i := range base {
		base[i] = uint64(i + 1)
	}
	// Three keys outside base that share the bucket of base[20] in a table
	// over n tuples.
	shift := newChainTable(make([]relation.Tuple, n), nil).shift
	var colliders []uint64
	for k := uint64(1) << 40; len(colliders) < 3; k++ {
		if bucketOf(k, shift) == bucketOf(base[20], shift) {
			colliders = append(colliders, k)
		}
	}
	cases := map[string]func(keys []uint64){
		"none":                func([]uint64) {},
		"adjacent":            func(keys []uint64) { keys[n/2+1] = keys[n/2] },
		"in two insert calls": func(keys []uint64) { keys[cancelBlock+100] = keys[10] },
		"behind keys of its bucket": func(keys []uint64) {
			copy(keys[21:], colliders)
			keys[24] = keys[20]
		},
		"key 0":          func(keys []uint64) { keys[5], keys[n-5] = 0, 0 },
		"key MaxUint64":  func(keys []uint64) { keys[7], keys[cancelBlock+7] = math.MaxUint64, math.MaxUint64 },
		"first and last": func(keys []uint64) { keys[n-1] = keys[0] },
	}
	for name, place := range cases {
		t.Run(name, func(t *testing.T) {
			keys := slices.Clone(base)
			place(keys)
			build := tuplesOf(1000, keys...)
			wantDup := name != "none"

			// inserts cuts [lo, hi) into cancelBlock calls with one flag.
			inserts := func(table *chainTable, lo, hi int, shared bool) (dup bool) {
				for at := lo; at < hi; at += cancelBlock {
					table.insert(at, min(at+cancelBlock, hi), shared, &dup)
				}
				return dup
			}
			if table := newChainTable(build, nil); inserts(&table, 0, n, false) != wantDup {
				t.Fatalf("unshared build: duplicate flagged = %v, want %v", !wantDup, wantDup)
			}
			table := newChainTable(build, nil)
			var dups [2]bool
			var wg sync.WaitGroup
			for w := range dups {
				wg.Add(1)
				go func() {
					defer wg.Done()
					dups[w] = inserts(&table, w*n/2, (w+1)*n/2, true)
				}()
			}
			wg.Wait()
			if got := dups[0] || dups[1]; got != wantDup {
				t.Fatalf("shared build: duplicate flagged = %v, want %v", got, wantDup)
			}

			probe := tuplesOf(1<<40, append(slices.Clone(keys), 1<<41, 3)...)
			var oracle mergejoin.Materializer
			mergejoin.ReferenceJoin(build, probe, &oracle)
			want := sortedPairs(oracle.Out)
			all := foldOf(want, func(uint64, uint64) bool { return true })
			r, s := relation.New("R", build), relation.New("S", probe)
			for _, workers := range []int{1, 2, 8} {
				for _, mode := range []sched.Mode{sched.Static, sched.Morsel} {
					opts := Options{Workers: workers, Scheduler: mode, MorselSize: 1000}
					for join, run := range map[string]func(Options) (*result.Result, error){
						"Wisconsin": func(o Options) (*result.Result, error) { return Wisconsin(context.Background(), r, s, o) },
						"Radix": func(o Options) (*result.Result, error) {
							return Radix(context.Background(), r, s, RadixOptions{Options: o})
						},
					} {
						out := sink.NewMaterialize()
						opts.Sink = out
						if _, err := run(opts); err != nil {
							t.Fatal(err)
						}
						got := make([]mergejoin.JoinedTuple, 0, len(out.Pairs()))
						for _, p := range out.Pairs() {
							got = append(got, mergejoin.JoinedTuple{Key: p.R.Key, RPayload: p.R.Payload, SPayload: p.S.Payload})
						}
						if !slices.Equal(sortedPairs(got), want) {
							t.Fatalf("%s T=%d %v into Materialize: %d pairs, the reference %d", join, workers, mode, len(got), len(want))
						}
						opts.Sink = nil
						res, err := run(opts)
						if err != nil {
							t.Fatal(err)
						}
						if res.Matches != all.Count || res.MaxSum != all.Max {
							t.Fatalf("%s T=%d %v into max-sum: (%d, %d), the reference (%d, %d)", join, workers, mode, res.Matches, res.MaxSum, all.Count, all.Max)
						}
					}
				}
			}
		})
	}
}

// FuzzHashJoinDifferential decodes a key distribution, one cell of
// checkAgainstReference's matrix and two key lists from the fuzz bytes and
// checks that cell — one hash join on one worker count under one scheduler,
// pooled or not, into one sink — against the reference; every cell runs over
// the fixed inputs of TestHashJoinsMatchReference. Byte 0 narrows the key
// domain (narrow domains make long chains and many matches per probe), byte 1
// moves the keys towards the high end of the word, byte 2 repeats the probe
// side so that match counts cross output batches, byte 3 picks the cell; the
// rest alternates between build and probe keys. The repeats are cut so that
// the join has at most fuzzPairs pairs: the reference materialises every
// one, and a 1-bit domain repeated 64 times has over a million, which takes a
// second a cell. No seed is cut.
func FuzzHashJoinDifferential(f *testing.F) {
	const fuzzPairs = 1 << 17
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{8, 0, 1, 37, 1, 1, 2, 2, 3, 3})
	f.Add([]byte{1, 48, 40, 101, 0, 0, 1, 1, 0, 1, 1, 0, 1, 1, 0, 0})
	f.Add([]byte{3, 20, 7, 150, 9, 9, 9, 1, 2, 9, 4, 9, 250, 9, 9})
	f.Add(append([]byte{0, 63, 60, 191}, make([]byte, 70)...))
	// Build keys 1, 2, 3, 4, 1: one duplicate pair, the rest distinct.
	f.Add([]byte{7, 0, 0, 64, 1, 1, 2, 2, 3, 1, 4, 3, 1, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 || len(data) > 400 {
			return
		}
		mask := uint64(1)<<(1+data[0]%8) - 1
		shift, repeat := uint(data[1]%64), 1+int(data[2]%64)
		var rKeys, sKeys []uint64
		for i, b := range data[4:] {
			key := (uint64(b) & mask) << shift
			if b == 255 {
				key = math.MaxUint64
			}
			if i%2 == 0 {
				rKeys = append(rKeys, key)
			} else {
				sKeys = append(sKeys, key)
			}
		}
		builds := make(map[uint64]int, len(rKeys))
		for _, k := range rKeys {
			builds[k]++
		}
		pairs := 0 // per repeat of the probe side, at most 198² < fuzzPairs
		for _, k := range sKeys {
			pairs += builds[k]
		}
		if pairs > 0 {
			repeat = min(repeat, fuzzPairs/pairs)
		}
		checkCells(t, tuplesOf(1000, rKeys...), tuplesOf(1<<40, slices.Repeat(sKeys, repeat)...), int(data[3])%hashJoinCells)
	})
}

// cancelingCounter counts the pairs it is handed and cancels a context on the
// first delivery, so that the probe loop meets the cancellation inside a block.
type cancelingCounter struct {
	mergejoin.Counter
	cancel context.CancelFunc
}

func (c *cancelingCounter) ConsumeRanges(b *batch.Ranges) {
	c.Counter.ConsumeRanges(b)
	c.cancel()
}

// canceledOnSecondPoll is a context that reports cancellation from its second
// poll on: a probe loop, which polls before every block, meets it inside its
// first block whether or not it hands anything to its sink before it ends.
type canceledOnSecondPoll struct {
	context.Context
	polls int
	done  chan struct{}
}

func (c *canceledOnSecondPoll) Done() <-chan struct{} {
	if c.polls++; c.polls == 2 {
		close(c.done)
	}
	return c.done
}

// TestProbeCancellationInsideBlock: a probe canceled mid-way stops at the next
// block boundary, has delivered exactly the matches of the blocks it finished —
// the partial batch included — and handed its gather and index columns back
// to the lease; into a folding sink it has leased none.
func TestProbeCancellationInsideBlock(t *testing.T) {
	build := tuplesOf(0, 1, 2, 3, 2)
	probe := make([]relation.Tuple, 3*cancelBlock)
	for i := range probe {
		probe[i] = relation.Tuple{Key: uint64(i % 5), Payload: uint64(i)}
	}
	var oracle mergejoin.MaxAggregate
	mergejoin.ReferenceJoin(build, probe[:cancelBlock], &oracle)

	pool := memory.NewPool(1 << 20)
	lease := pool.Acquire()
	table := newChainTable(build, lease)
	table.insert(0, len(build), false, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := &cancelingCounter{cancel: cancel}
	before := lease.Stats()
	inspected := table.probe(ctx, probe, out, false, lease)
	if out.Count != oracle.Count || out.Count%batch.DefaultSize == 0 {
		t.Fatalf("canceled probe delivered %d pairs, want the first block's %d (not a whole number of batches)", out.Count, oracle.Count)
	}
	if inspected < oracle.Count || inspected >= uint64(len(probe)) {
		t.Fatalf("canceled probe inspected %d entries over %d probe tuples", inspected, len(probe))
	}
	lease.Uint64s(3 * batch.DefaultSize)
	lease.Int32s(4 * batch.DefaultSize)
	if after := lease.Stats(); after.Buffers != before.Buffers+4 || after.Reused != before.Reused+2 {
		t.Fatalf("output columns not handed back: lease stats %+v → %+v", before, after)
	}

	// The loop that folds into max-sum or count meets a cancellation inside
	// its first block the same way, hands over the pairs of that block alone,
	// as one batch, and leases nothing.
	for _, s := range []sink.Sink{sink.NewMaxSum(), sink.NewCount()} {
		out := sink.BindChecked(s, 1, lease, nil)
		before := lease.Stats()
		table.probe(&canceledOnSecondPoll{Context: context.Background(), done: make(chan struct{})}, probe, out.Writer(0), true, lease)
		if err := out.Close(); err != nil {
			t.Fatal(err)
		}
		if batches, pairs := out.Batches(); out.Matches() != oracle.Count || batches != 1 || pairs != oracle.Count {
			t.Fatalf("%T: canceled folding probe reported %d matches in %d batches of %d pairs, want the first block's %d in one", s, out.Matches(), batches, pairs, oracle.Count)
		}
		if _, maxSum := s.(*sink.MaxSum); maxSum && out.MaxSum() != oracle.Max {
			t.Fatalf("canceled folding probe reported max sum %d, want the first block's %d", out.MaxSum(), oracle.Max)
		}
		if after := lease.Stats(); after != before {
			t.Fatalf("%T: folding probe leased buffers: lease stats %+v → %+v", s, before, after)
		}
	}
	lease.Release()

	// Through the whole join the same cancellation is the join's error, and
	// the lease goes back to the pool.
	for name, join := range map[string]func(context.Context, Options) error{
		"Wisconsin": func(ctx context.Context, o Options) error {
			_, err := Wisconsin(ctx, relation.New("R", build), relation.New("S", probe), o)
			return err
		},
		"Radix": func(ctx context.Context, o Options) error {
			_, err := Radix(ctx, relation.New("R", build), relation.New("S", probe), RadixOptions{Options: o})
			return err
		},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		err := join(ctx, Options{Workers: 1, Scratch: pool, Sink: sink.NewFunc(func(r, s relation.Tuple) { cancel() })})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: canceled join returned %v", name, err)
		}
		cancel()
	}
	if st := pool.Stats(); st.ActiveLeases != 0 {
		t.Fatalf("%d leases still checked out after canceled joins", st.ActiveLeases)
	}
}
