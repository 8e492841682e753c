package sink

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/memory"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/sorting"
)

// mapAggregate is the brute-force oracle of the group-by kernel (and what
// AggregateTuples was before it): a Go map fold followed by a sort by key. It
// shares no code with the kernel beyond the Agg fold itself.
func mapAggregate(tuples []relation.Tuple, agg Agg) []relation.Tuple {
	groups := make(map[uint64]uint64)
	for _, t := range tuples {
		if acc, ok := groups[t.Key]; ok {
			groups[t.Key] = agg.fold(acc, t.Payload)
		} else {
			groups[t.Key] = agg.initial(t.Payload)
		}
	}
	out := make([]relation.Tuple, 0, len(groups))
	for k, v := range groups {
		out = append(out, relation.Tuple{Key: k, Payload: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

var allAggs = []Agg{AggSum, AggMin, AggMax, AggCount}

// splitmix is the tests' seeded generator.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// kernelInputs are the key distributions the kernel is pinned on, each large
// enough (where the shape allows) to take the partitioned parallel path.
func kernelInputs(seed uint64) map[string][]relation.Tuple {
	rng := splitmix(seed)
	gen := func(n int, key func(i int) uint64) []relation.Tuple {
		out := make([]relation.Tuple, n)
		for i := range out {
			out[i] = relation.Tuple{Key: key(i), Payload: rng.next() % 1_000_000}
		}
		return out
	}
	return map[string][]relation.Tuple{
		"uniform": gen(30_000, func(int) uint64 { return rng.next() % 10_000 }),
		"wide":    gen(20_000, func(int) uint64 { return rng.next() }),
		"skew80:20": gen(30_000, func(int) uint64 {
			if rng.next()%5 != 0 {
				return rng.next() % 4_000
			}
			return 4_000 + rng.next()%16_000
		}),
		"all-equal": gen(20_000, func(int) uint64 { return 7 }),
		"max-keys": gen(20_000, func(i int) uint64 {
			if i%3 == 0 {
				return math.MaxUint64
			}
			return math.MaxUint64 - rng.next()%5_000
		}),
		"sorted":     gen(30_000, func(i int) uint64 { return uint64(i / 3) }),
		"descending": gen(30_000, func(i int) uint64 { return uint64(30_000 - i) }),
		"empty":      nil,
		"one":        gen(1, func(int) uint64 { return 42 }),
		"few":        gen(3, func(i int) uint64 { return uint64(i % 2) }),
	}
}

// checkGroups fails unless got is strictly ascending by key and equal to the
// oracle's groups.
func checkGroups(t *testing.T, label string, got, want []relation.Tuple) {
	t.Helper()
	for i := 1; i < len(got); i++ {
		if got[i].Key <= got[i-1].Key {
			t.Fatalf("%s: keys not strictly ascending at %d: %d after %d", label, i, got[i].Key, got[i-1].Key)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d groups, oracle has %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: group %d = %+v, oracle has %+v", label, i, got[i], want[i])
		}
	}
}

// TestAggregateMatchesMapOracle: the kernel over a materialized stream agrees
// with the map oracle for every aggregate, distribution and worker count —
// including more workers than tuples — with and without a scratch pool, and
// leaves its input untouched.
func TestAggregateMatchesMapOracle(t *testing.T) {
	const seed = 20260926
	pool := memory.NewPool(0)
	for name, in := range kernelInputs(seed) {
		before := append([]relation.Tuple(nil), in...)
		for _, agg := range allAggs {
			want := mapAggregate(in, agg)
			for _, workers := range []int{1, 3, 64} {
				for _, pooled := range []bool{false, true} {
					var lease *memory.Lease
					if pooled {
						lease = pool.Acquire()
					}
					g := NewGroups(context.Background(), agg, nil, ValueOpaque, nil)
					g.SetScratch(lease)
					if err := g.Aggregate(in, workers); err != nil {
						t.Fatalf("seed=%d %s/%v/workers=%d: %v", seed, name, agg, workers, err)
					}
					checkGroups(t, name+"/"+agg.String(), g.Rows(), want)
					lease.Release()
				}
			}
			checkGroups(t, name+"/AggregateTuples", AggregateTuples(in, agg), want)
		}
		for i := range in {
			if in[i] != before[i] {
				t.Fatalf("%s: the kernel modified its input at %d", name, i)
			}
		}
	}
	if err := pool.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupsGuessTooNarrow plants the widest group key, 2^23 among keys below
// 2^20, twice — in the first and in the last writer's entries — where no
// writer's sample (sorting.GuessMaxKey) sees it, at two and three writers,
// so that the finalisation's partition.Count guesses the key width too narrow
// and counts every writer's entries again at the exact configuration. The
// group list must be the map oracle's for every aggregate.
func TestGroupsGuessTooNarrow(t *testing.T) {
	const n, wide = 3 * groupPartitionEntries, 1 << 23
	for _, workers := range []int{2, 3} {
		rng := splitmix(workers)
		in := make([]relation.Tuple, n)
		for i := range in {
			in[i] = relation.Tuple{Key: rng.next() % (1 << 20), Payload: rng.next() % 1_000_000}
			if i > 0 && in[i].Key == in[i-1].Key {
				in[i].Key ^= 1 // no run to fold: writer w's entries are its chunk
			}
		}
		var chunks [][]relation.Tuple
		for w := range workers {
			chunks = append(chunks, in[w*n/workers:(w+1)*n/workers])
		}
		for _, chunk := range [][]relation.Tuple{chunks[0], chunks[workers-1]} {
			sampled := map[int]bool{len(chunk) - 1: true}
			for i := range 64 {
				sampled[i*(len(chunk)/64)] = true
			}
			i := 1
			for sampled[i] {
				i++
			}
			chunk[i].Key = wide
		}
		var guess uint64
		for _, chunk := range chunks {
			guess = max(guess, sorting.GuessMaxKey(chunk))
		}
		if partition.NewRadixConfig(groupHistogramBits, guess) == partition.NewRadixConfig(groupHistogramBits, wide) {
			t.Fatalf("T=%d: the writers' samples guess %d, as wide as %d", workers, guess, uint64(wide))
		}
		for _, agg := range allAggs {
			g := NewGroups(context.Background(), agg, nil, ValuePayloadSum, nil)
			if err := g.Aggregate(in, workers); err != nil {
				t.Fatal(err)
			}
			if len(g.writers) != workers {
				t.Fatalf("T=%d: the kernel opened %d writers", workers, len(g.writers))
			}
			checkGroups(t, fmt.Sprintf("T=%d/%v", workers, agg), g.Rows(), mapAggregate(in, agg))
		}
	}
}

// TestGroupWritersBatchAndRowPathsAgree drives the fused form directly: pairs
// dealt to the writers in blocks, through Consume and as range batches of one
// entry per pair, with the default and a key-rewriting projection, must
// aggregate like the oracle over the projected pairs.
func TestGroupWritersBatchAndRowPathsAgree(t *testing.T) {
	const seed, workers, block = 77, 4, 100
	swap := func(r, s relation.Tuple) relation.Tuple {
		return relation.Tuple{Key: s.Payload % 5_000, Payload: r.Key}
	}
	for name, in := range kernelInputs(seed) {
		for _, project := range []Projection{nil, swap} {
			projected := make([]relation.Tuple, len(in))
			for i, t := range in {
				r, s := t, relation.Tuple{Key: t.Key, Payload: uint64(i)}
				if project == nil {
					projected[i] = DefaultProjection(r, s)
				} else {
					projected[i] = project(r, s)
				}
			}
			for _, agg := range allAggs {
				want := mapAggregate(projected, agg)
				for _, batched := range []bool{false, true} {
					g := NewGroups(context.Background(), agg, project, ValueOpaque, nil)
					b := BindChecked(g, workers, nil, nil)
					for lo := 0; lo < len(in); lo += block {
						hi := min(lo+block, len(in))
						w := b.Writer((lo / block) % workers)
						if !batched {
							for i := lo; i < hi; i++ {
								w.Consume(in[i], relation.Tuple{Key: in[i].Key, Payload: uint64(i)})
							}
							continue
						}
						var keys, rp, sp []uint64
						for i := lo; i < hi; i++ {
							keys, rp, sp = append(keys, in[i].Key), append(rp, in[i].Payload), append(sp, uint64(i))
						}
						w.ConsumeRanges(pairBatch(keys, rp, sp))
					}
					if err := b.Close(); err != nil {
						t.Fatal(err)
					}
					if b.Matches() != uint64(len(in)) {
						t.Fatalf("%s: counted %d pairs, want %d", name, b.Matches(), len(in))
					}
					checkGroups(t, name+"/"+agg.String(), g.Rows(), want)
				}
			}
		}
	}
}

// TestGroupsReuseAndCancellation: Open resets the kernel for a second join,
// and a canceled context surfaces from Close instead of a partial result.
func TestGroupsReuseAndCancellation(t *testing.T) {
	in := kernelInputs(5)["uniform"]
	ctx, cancel := context.WithCancel(context.Background())
	g := NewGroups(ctx, AggSum, nil, ValueOpaque, nil)
	for round := 0; round < 2; round++ {
		if err := g.Aggregate(in, 3); err != nil {
			t.Fatal(err)
		}
		checkGroups(t, "reuse", g.Rows(), mapAggregate(in, AggSum))
	}
	cancel()
	if err := g.Aggregate(in, 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled kernel returned %v, want context.Canceled", err)
	}
}
