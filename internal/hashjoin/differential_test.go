package hashjoin

import (
	"cmp"
	"context"
	"errors"
	"math"
	"slices"
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

// checkAgainstReference runs both hash joins over (rT, sT) — one worker, two,
// and up to 19, which is more workers than tuples for the small inputs; static
// and morsel scheduling with morsels small enough to split the inputs; with a
// scratch pool and without — and compares every pair they emit with
// mergejoin.ReferenceJoin's. A pooled run must also leave no lease checked out.
func checkAgainstReference(t *testing.T, rT, sT []relation.Tuple) {
	t.Helper()
	var oracle mergejoin.Materializer
	mergejoin.ReferenceJoin(rT, sT, &oracle)
	want := sortedPairs(oracle.Out)
	r, s := relation.New("R", rT), relation.New("S", sT)
	pool := memory.NewPool(1 << 24)
	for _, workers := range []int{1, 2, min(max(len(rT), len(sT))+3, 19)} {
		for _, mode := range []sched.Mode{sched.Static, sched.Morsel} {
			for _, scratch := range []*memory.Pool{nil, pool} {
				opts := Options{Workers: workers, Scheduler: mode, MorselSize: 7, Scratch: scratch}
				for name, join := range map[string]func(Options) (*result.Result, error){
					"Wisconsin": func(o Options) (*result.Result, error) {
						return Wisconsin(context.Background(), r, s, o)
					},
					"Radix": func(o Options) (*result.Result, error) {
						return Radix(context.Background(), r, s, RadixOptions{Options: o, PartitionBits: 3})
					},
				} {
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
					if matches != uint64(len(want)) || !slices.Equal(sortedPairs(got), want) {
						t.Fatalf("%s T=%d %v pooled=%v: %d matches / %d pairs, reference has %d\n|R|=%d |S|=%d",
							name, workers, mode, scratch != nil, matches, len(got), len(want), len(rT), len(sT))
					}
				}
			}
		}
	}
	if st := pool.Stats(); st.ActiveLeases != 0 {
		t.Fatalf("%d leases still checked out", st.ActiveLeases)
	}
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
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			checkAgainstReference(t, tuplesOf(1000, c.r...), tuplesOf(5000, c.s...))
		})
	}
}

// FuzzHashJoinDifferential decodes a key distribution and two key lists from
// the fuzz bytes and checks both hash joins against the reference. Byte 0
// narrows the key domain (narrow domains make long chains and many matches per
// probe), byte 1 moves the keys towards the high end of the word, byte 2
// repeats the probe side so that match counts cross output batches; the rest
// alternates between build and probe keys.
func FuzzHashJoinDifferential(f *testing.F) {
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{8, 0, 1, 1, 1, 2, 2, 3, 3})
	f.Add([]byte{1, 48, 40, 0, 0, 1, 1, 0, 1, 1, 0, 1, 1, 0, 0})
	f.Add([]byte{3, 20, 7, 9, 9, 9, 1, 2, 9, 4, 9, 250, 9, 9})
	f.Add(append([]byte{0, 63, 60}, make([]byte, 70)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 || len(data) > 400 {
			return
		}
		mask := uint64(1)<<(1+data[0]%8) - 1
		shift, repeat := uint(data[1]%64), 1+int(data[2]%64)
		var rKeys, sKeys []uint64
		for i, b := range data[3:] {
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
		checkAgainstReference(t, tuplesOf(1000, rKeys...), tuplesOf(1<<40, slices.Repeat(sKeys, repeat)...))
	})
}

// cancelingCounter counts the pairs it is handed and cancels a context on the
// first delivery, so that the probe loop meets the cancellation inside a block.
type cancelingCounter struct {
	mergejoin.Counter
	cancel context.CancelFunc
}

func (c *cancelingCounter) ConsumeColumns(keys, rPayloads, sPayloads []uint64) {
	c.Count += uint64(len(keys))
	c.cancel()
}

// TestProbeCancellationInsideBlock: a probe canceled mid-way stops at the next
// block boundary, has delivered exactly the matches of the blocks it finished —
// the partial batch included — and handed all three columns back to the lease.
func TestProbeCancellationInsideBlock(t *testing.T) {
	build := tuplesOf(0, 1, 2, 3, 2)
	probe := make([]relation.Tuple, 3*cancelBlock)
	for i := range probe {
		probe[i] = relation.Tuple{Key: uint64(i % 5), Payload: uint64(i)}
	}
	var oracle mergejoin.Counter
	mergejoin.ReferenceJoin(build, probe[:cancelBlock], &oracle)

	pool := memory.NewPool(1 << 20)
	lease := pool.Acquire()
	table := newChainTable(build, lease)
	table.insert(0, len(build), false)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := &cancelingCounter{cancel: cancel}
	before := lease.Stats()
	inspected := table.probe(ctx, probe, out, lease)
	if out.Count != oracle.Count || out.Count%batch.DefaultSize == 0 {
		t.Fatalf("canceled probe delivered %d pairs, want the first block's %d (not a whole number of batches)", out.Count, oracle.Count)
	}
	if inspected < oracle.Count || inspected >= uint64(len(probe)) {
		t.Fatalf("canceled probe inspected %d entries over %d probe tuples", inspected, len(probe))
	}
	for i := 0; i < 3; i++ {
		lease.Uint64s(batch.DefaultSize)
	}
	if after := lease.Stats(); after.Buffers != before.Buffers+6 || after.Reused != before.Reused+3 {
		t.Fatalf("output columns not handed back: lease stats %+v → %+v", before, after)
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
