package hashjoin

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/batch"
	"repro/internal/mergejoin"
	"repro/internal/numa"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/result"
	"repro/internal/sched"
	"repro/internal/sink"
	"repro/internal/sorting"
	"repro/internal/workload"
)

// The correctness tests drive the joins on a background context, so the
// cancellation error path cannot trigger; these wrappers keep them concise.

func wisconsin(r, s *relation.Relation, opts Options) *result.Result {
	res, err := Wisconsin(context.Background(), r, s, opts)
	if err != nil {
		panic(err)
	}
	return res
}

func radix(r, s *relation.Relation, opts RadixOptions) *result.Result {
	res, err := Radix(context.Background(), r, s, opts)
	if err != nil {
		panic(err)
	}
	return res
}

// reference computes the expected join cardinality and max-sum with the
// trusted oracle.
func reference(r, s *relation.Relation) (count, maxSum uint64) {
	var agg mergejoin.MaxAggregate
	mergejoin.ReferenceJoin(r.Tuples, s.Tuples, &agg)
	return agg.Count, agg.Max
}

func testDataset(rSize, mult int, seed uint64) (*relation.Relation, *relation.Relation) {
	r, s, err := workload.Generate(workload.Spec{
		RSize:        rSize,
		Multiplicity: mult,
		ForeignKey:   true,
		Seed:         seed,
	})
	if err != nil {
		panic(err)
	}
	return r, s
}

func TestWisconsinCorrectness(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		for _, mult := range []int{1, 4} {
			r, s := testDataset(2000, mult, uint64(workers*10+mult))
			wantCount, wantMax := reference(r, s)
			res := wisconsin(r, s, Options{Workers: workers})
			if res.Matches != wantCount || res.MaxSum != wantMax {
				t.Fatalf("workers=%d mult=%d: got (%d, %d), want (%d, %d)",
					workers, mult, res.Matches, res.MaxSum, wantCount, wantMax)
			}
			if res.Algorithm != "Wisconsin" || res.Workers != workers {
				t.Fatalf("result metadata wrong: %+v", res)
			}
			if res.PhaseDuration("build") == 0 && r.Len() > 0 {
				t.Fatal("build phase duration missing")
			}
			if res.PhaseDuration("probe") == 0 && s.Len() > 0 {
				t.Fatal("probe phase duration missing")
			}
		}
	}
}

func TestWisconsinEmptyInputs(t *testing.T) {
	empty := relation.New("E", nil)
	r, _ := testDataset(100, 1, 1)
	if res := wisconsin(empty, r, Options{Workers: 2}); res.Matches != 0 {
		t.Fatalf("empty build side produced %d matches", res.Matches)
	}
	if res := wisconsin(r, empty, Options{Workers: 2}); res.Matches != 0 {
		t.Fatalf("empty probe side produced %d matches", res.Matches)
	}
}

func TestWisconsinDuplicateKeys(t *testing.T) {
	// All keys equal: the join is a full cross product.
	n := 200
	tuples := make([]relation.Tuple, n)
	for i := range tuples {
		tuples[i] = relation.Tuple{Key: 7, Payload: uint64(i)}
	}
	r := relation.New("R", tuples)
	s := r.Clone()
	res := wisconsin(r, s, Options{Workers: 4})
	if res.Matches != uint64(n*n) {
		t.Fatalf("matches = %d, want %d", res.Matches, n*n)
	}
	if res.MaxSum != uint64(2*(n-1)) {
		t.Fatalf("max sum = %d, want %d", res.MaxSum, 2*(n-1))
	}
}

func TestWisconsinNUMAAccounting(t *testing.T) {
	r, s := testDataset(5000, 4, 3)
	dup := r.Clone()
	dup.Tuples[r.Len()-1].Key = dup.Tuples[0].Key
	for _, r := range []*relation.Relation{r, dup} {
		res := wisconsin(r, s, Options{Workers: 8, TrackNUMA: true, CollectPerWorker: true})
		if res.NUMA.TotalAccesses() == 0 {
			t.Fatal("NUMA accounting enabled but no accesses recorded")
		}
		checkPerWorker(t, res, 8)
		// Synchronization is charged as executed: a compare-and-swap per insert
		// (plus retries) when workers share the bucket heads, nothing for the
		// plain stores of a one-worker build. The probe's random reads — one
		// head per probe tuple plus every entry inspected, or over a distinct
		// build its match alone — do not depend on that, nor on the order in
		// which the workers linked the chains, and both builds must agree on
		// whether the keys are distinct.
		if res.NUMA.SyncOps < uint64(r.Len()) {
			t.Fatalf("shared-table build of %d tuples recorded %d sync ops", r.Len(), res.NUMA.SyncOps)
		}
		solo := wisconsin(r, s, Options{Workers: 1, TrackNUMA: true})
		if solo.NUMA.SyncOps != 0 {
			t.Fatalf("one-worker build recorded %d sync ops, want 0: it executes none", solo.NUMA.SyncOps)
		}
		randReads := func(a numa.AccessStats) uint64 { return a.LocalRandRead + a.RemoteRandRead }
		if got := randReads(solo.NUMA); got != randReads(res.NUMA) || got < uint64(s.Len())+solo.Matches {
			t.Fatalf("random reads: %d at one worker, %d at eight, want equal and at least %d", got, randReads(res.NUMA), uint64(s.Len())+solo.Matches)
		}
		if res.NUMA.RemoteRandRead+res.NUMA.RemoteRandWrite == 0 {
			t.Fatal("shared-table join must record remote random accesses")
		}
		if res.SimulatedNUMACost == 0 {
			t.Fatal("simulated NUMA cost missing")
		}
	}
}

// checkPerWorker requires the per-worker breakdown of a join run on the
// given number of workers: one per worker, each over the result's phases, and
// the workers' matches summing to the result's.
func checkPerWorker(t *testing.T, res *result.Result, workers int) {
	t.Helper()
	if len(res.PerWorker) != workers {
		t.Fatalf("%s: %d per-worker breakdowns, want %d", res.Algorithm, len(res.PerWorker), workers)
	}
	var matches uint64
	for _, w := range res.PerWorker {
		if len(w.Phases) != len(res.Phases) {
			t.Fatalf("%s: worker %d has phases %v, the result %v", res.Algorithm, w.Worker, w.Phases, res.Phases)
		}
		for i, p := range w.Phases {
			if p.Name != res.Phases[i].Name {
				t.Fatalf("%s: worker %d has phases %v, the result %v", res.Algorithm, w.Worker, w.Phases, res.Phases)
			}
		}
		matches += w.Matches
	}
	if matches != res.Matches || matches == 0 {
		t.Fatalf("%s: per-worker matches sum to %d, Result.Matches = %d", res.Algorithm, matches, res.Matches)
	}
}

func TestRadixCorrectness(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		for _, mult := range []int{1, 4} {
			r, s := testDataset(2000, mult, uint64(workers*100+mult))
			wantCount, wantMax := reference(r, s)
			res := radix(r, s, RadixOptions{Options: Options{Workers: workers}})
			if res.Matches != wantCount || res.MaxSum != wantMax {
				t.Fatalf("workers=%d mult=%d: got (%d, %d), want (%d, %d)",
					workers, mult, res.Matches, res.MaxSum, wantCount, wantMax)
			}
		}
	}
}

func TestRadixExplicitBits(t *testing.T) {
	r, s := testDataset(3000, 2, 5)
	wantCount, wantMax := reference(r, s)
	for _, bitsUsed := range []int{1, 4, 8} {
		res, err := radixJoin(context.Background(), r, s, Options{Workers: 4}, bitsUsed)
		if err != nil {
			t.Fatal(err)
		}
		if res.Matches != wantCount || res.MaxSum != wantMax {
			t.Fatalf("bits=%d: got (%d, %d), want (%d, %d)", bitsUsed, res.Matches, res.MaxSum, wantCount, wantMax)
		}
	}
}

func TestRadixEmptyInputs(t *testing.T) {
	empty := relation.New("E", nil)
	r, _ := testDataset(100, 1, 7)
	if res := radix(empty, r, RadixOptions{Options: Options{Workers: 2}}); res.Matches != 0 {
		t.Fatalf("empty build side produced %d matches", res.Matches)
	}
	if res := radix(r, empty, RadixOptions{Options: Options{Workers: 2}}); res.Matches != 0 {
		t.Fatalf("empty probe side produced %d matches", res.Matches)
	}
}

func TestRadixSkewedData(t *testing.T) {
	r, s, err := workload.Generate(workload.Spec{
		RSize:        3000,
		Multiplicity: 4,
		RSkew:        workload.SkewHigh80,
		SSkew:        workload.SkewLow80,
		KeyDomain:    1 << 20,
		Seed:         9,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantCount, wantMax := reference(r, s)
	res := radix(r, s, RadixOptions{Options: Options{Workers: 4}})
	if res.Matches != wantCount {
		t.Fatalf("matches = %d, want %d", res.Matches, wantCount)
	}
	if wantCount > 0 && res.MaxSum != wantMax {
		t.Fatalf("max = %d, want %d", res.MaxSum, wantMax)
	}
}

func TestRadixNUMAAccounting(t *testing.T) {
	r, s := testDataset(5000, 4, 11)
	res := radix(r, s, RadixOptions{Options: Options{Workers: 8, TrackNUMA: true, CollectPerWorker: true}})
	if res.NUMA.TotalAccesses() == 0 {
		t.Fatal("NUMA accounting enabled but no accesses recorded")
	}
	checkPerWorker(t, res, 8)
	// Radix join never synchronizes per tuple (histogram-based scatter).
	if res.NUMA.SyncOps != 0 {
		t.Fatalf("radix join recorded %d sync ops, want 0", res.NUMA.SyncOps)
	}
	// Partitioning both inputs must cause remote writes.
	if res.NUMA.RemoteRandWrite == 0 {
		t.Fatal("partitioning phase should record remote writes")
	}
	// The partitioning reads every input tuple once per count barrier (a
	// second one when the sampled key width was too narrow) and once to
	// scatter it; the join reads every partition once.
	for _, workers := range []int{1, 2, 8} {
		res, err := radixJoin(context.Background(), r, s, Options{Workers: workers, TrackNUMA: true}, 6)
		if err != nil {
			t.Fatal(err)
		}
		var guess, exact uint64
		for _, rel := range []*relation.Relation{r, s} {
			for _, c := range rel.Split(workers) {
				guess = max(guess, sorting.GuessMaxKey(c.Tuples))
			}
			for _, tup := range rel.Tuples {
				exact = max(exact, tup.Key)
			}
		}
		reads := 3 // count, scatter, join
		if partition.NewRadixConfig(6, guess) != partition.NewRadixConfig(6, exact) {
			reads++
		}
		got, want := res.NUMA.LocalSeqRead+res.NUMA.RemoteSeqRead, uint64(reads)*uint64(r.Len()+s.Len())
		if got != want {
			t.Fatalf("T=%d: radix join charged %d sequential reads, want %d·(|R|+|S|) = %d", workers, got, reads, want)
		}
	}
}

// TestRadixGuessTooNarrow hides R's widest key, two partners of it in S and
// an even wider key of S from every chunk's sample at one, two and three
// workers, so that the radix join's partitioning guesses the shared key
// width too narrow and must count both inputs again at the exact
// configuration. R alone is a bit narrower than S: a count that took either
// input's domain alone would partition R and S on different bits. The pairs
// must be a map oracle's under either scheduler.
func TestRadixGuessTooNarrow(t *testing.T) {
	const n = 3 * 40000
	rng := rand.New(rand.NewSource(47))
	rt, st := make([]relation.Tuple, n), make([]relation.Tuple, n/2)
	for i := range rt {
		rt[i] = relation.Tuple{Key: rng.Uint64() >> 44, Payload: uint64(i)}
	}
	for i := range st {
		st[i] = relation.Tuple{Key: rt[rng.Intn(n)].Key, Payload: uint64(i)}
	}
	const wide = 1 << 22 // two bits wider than every other key of R
	hidden := func(tuples []relation.Tuple, k int) []int {
		sampled := map[int]bool{}
		for workers := 1; workers <= 3; workers++ {
			for _, c := range relation.New("", tuples).Split(workers) {
				size := len(c.Tuples)
				sampled[c.Offset+size-1] = true
				for i := range min(size, 64) {
					sampled[c.Offset+i*max(size/64, 1)] = true
				}
			}
		}
		var free []int
		for i := 1; len(free) < k; i++ {
			if !sampled[i] {
				free = append(free, i)
			}
		}
		return free
	}
	rt[hidden(rt, 1)[0]].Key = wide
	hs := hidden(st, 3)
	st[hs[0]].Key, st[hs[1]].Key, st[hs[2]].Key = wide, wide, 2*wide
	r, s := relation.New("R", rt), relation.New("S", st)

	partners := map[uint64][]uint64{}
	for _, t := range st {
		partners[t.Key] = append(partners[t.Key], t.Payload)
	}
	var want []mergejoin.JoinedTuple
	for _, t := range rt {
		for _, p := range partners[t.Key] {
			want = append(want, mergejoin.JoinedTuple{Key: t.Key, RPayload: t.Payload, SPayload: p})
		}
	}
	want = sortedPairs(want)
	bits := choosePartitionBits(n)
	for workers := 1; workers <= 3; workers++ {
		var guess uint64
		for _, rel := range []*relation.Relation{r, s} {
			for _, c := range rel.Split(workers) {
				guess = max(guess, sorting.GuessMaxKey(c.Tuples))
			}
		}
		if partition.NewRadixConfig(bits, guess) == partition.NewRadixConfig(bits, 2*wide) {
			t.Fatalf("T=%d: the chunks' samples guess %d, as wide as %d", workers, guess, uint64(2*wide))
		}
		for _, mode := range []sched.Mode{sched.Static, sched.Morsel} {
			out := sink.NewMaterialize()
			res := radix(r, s, RadixOptions{Options: Options{Workers: workers, Scheduler: mode, Sink: out}})
			var got []mergejoin.JoinedTuple
			for _, p := range out.Pairs() {
				got = append(got, mergejoin.JoinedTuple{Key: p.R.Key, RPayload: p.R.Payload, SPayload: p.S.Payload})
			}
			if got = sortedPairs(got); res.Matches != uint64(len(want)) || !slices.Equal(got, want) {
				t.Fatalf("T=%d/%v: %d pairs (%d matches), the map oracle has %d", workers, mode, len(got), res.Matches, len(want))
			}
		}
	}
}

func TestChoosePartitionBits(t *testing.T) {
	if b := choosePartitionBits(1000); b != 1 {
		t.Fatalf("choosePartitionBits(1000) = %d, want 1", b)
	}
	if b := choosePartitionBits(1 << 20); b <= 4 {
		t.Fatalf("choosePartitionBits(1M) = %d, want > 4", b)
	}
	if b := choosePartitionBits(1 << 30); b != 14 {
		t.Fatalf("choosePartitionBits(1G) = %d, want capped at 14", b)
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 5: 8, 1024: 1024, 1025: 2048}
	for n, want := range cases {
		if got := nextPow2(n); got != want {
			t.Errorf("nextPow2(%d) = %d, want %d", n, got, want)
		}
	}
}

// TestSharedTableDirect drives the one table type below the joins: entries
// stay in the build slice, both insert flavours chain them alike and flag the
// key the build holds twice, and a probe reports its matches in probe order —
// one range entry per matching probe tuple, its build matches in chain order
// against the probe tuple at the entry's first slot — and the entries it
// inspected. Over a distinct build each loop inspects every hit exactly once.
func TestSharedTableDirect(t *testing.T) {
	build := []relation.Tuple{{Key: 1, Payload: 10}, {Key: 2, Payload: 20}, {Key: 1, Payload: 30}, {Key: 99, Payload: 40}}
	for _, shared := range []bool{false, true} {
		table := newChainTable(build, nil)
		if len(table.heads) != 32 || len(table.next) != len(build)+1 || &table.build[0] != &build[0] {
			t.Fatalf("table over %d tuples: %d heads, %d links, entries copied = %v",
				len(build), len(table.heads), len(table.next), &table.build[0] != &build[0])
		}
		var dup bool
		if retries := table.insert(0, 2, shared, &dup) + table.insert(2, len(build), shared, &dup); retries != 0 || !dup {
			t.Fatalf("shared=%v: uncontended insert reported %d retries, duplicate flagged = %v", shared, retries, dup)
		}
		var m mergejoin.Materializer
		var entries [][4]int32
		out := rangeSpy(func(b *batch.Ranges) {
			for x, i := range b.I {
				entries = append(entries, [4]int32{i, b.IEnd[x], b.Lo[x], b.Hi[x]})
			}
			mergejoin.Pairs(&m).ConsumeRanges(b)
		})
		inspected := table.probe(context.Background(), []relation.Tuple{{Key: 1, Payload: 100}, {Key: 5}, {Key: 99, Payload: 7}}, out, false, nil)
		want := []mergejoin.JoinedTuple{{Key: 1, RPayload: 30, SPayload: 100}, {Key: 1, RPayload: 10, SPayload: 100}, {Key: 99, RPayload: 40, SPayload: 7}}
		if !slices.Equal(m.Out, want) {
			t.Fatalf("shared=%v: probe emitted %v, want %v", shared, m.Out, want)
		}
		if wantEntries := [][4]int32{{0, 2, 0, 1}, {2, 3, 2, 3}}; !slices.Equal(entries, wantEntries) {
			t.Fatalf("shared=%v: probe emitted entries %v, want %v", shared, entries, wantEntries)
		}
		if inspected < 3 || inspected > uint64(3*len(build)) {
			t.Fatalf("shared=%v: probe inspected %d entries", shared, inspected)
		}

		// A distinct build: keys 1, 3, 9 and 6, all four in one bucket, so
		// that a walk to the chain's end passes every entry.
		distinct := []relation.Tuple{{Key: 1, Payload: 10}, {Key: 3, Payload: 20}, {Key: 9, Payload: 40}, {Key: 6, Payload: 50}}
		table = newChainTable(distinct, nil)
		table.shift = 63 // two buckets, and all four keys hash to one
		for _, tup := range distinct {
			if bucketOf(tup.Key, table.shift) != bucketOf(distinct[0].Key, table.shift) {
				t.Fatalf("key %d does not share key 1's bucket", tup.Key)
			}
		}
		dup = false
		table.insert(0, len(distinct), shared, &dup)
		if table.distinct = !dup; dup {
			t.Fatalf("shared=%v: distinct build flagged a duplicate", shared)
		}
		// Key 8 shares the bucket and misses.
		probe := []relation.Tuple{{Key: 1, Payload: 100}, {Key: 8}, {Key: 9, Payload: 7}, {Key: 1, Payload: 3}}
		var c mergejoin.Counter
		for _, folds := range []bool{false, true} {
			out := sink.BindChecked(sink.NewMaxSum(), 1, nil, nil)
			var w mergejoin.RangeConsumer = &c
			if folds {
				w = out.Writer(0)
			}
			if inspected := table.probe(context.Background(), probe, w, folds, nil); inspected != 3 {
				t.Fatalf("shared=%v folds=%v: probing a distinct build for 3 hits inspected %d entries", shared, folds, inspected)
			}
			if err := out.Close(); err != nil {
				t.Fatal(err)
			}
			if folds && (out.Matches() != 3 || out.MaxSum() != 110) {
				t.Fatalf("shared=%v: fold over a distinct build reported (%d, %d), want (3, 110)", shared, out.Matches(), out.MaxSum())
			}
		}
		if c.Count != 3 {
			t.Fatalf("shared=%v: range loop over a distinct build delivered %d pairs, want 3", shared, c.Count)
		}
	}
}

// rangeSpy is a range consumer made of a closure.
type rangeSpy func(b *batch.Ranges)

func (f rangeSpy) ConsumeRanges(b *batch.Ranges) { f(b) }

// TestChainLengthBounded pins the bucket function to the top bits of the
// hash product. Bits 16… of it — the old choice — depend only on the key bits
// below them: keys j<<20 filled 512 of 8 192 buckets with chains of 8, and
// keys j<<48 (normalized short strings keep their bytes at the high end) one
// bucket with a chain of n, a quadratic join.
func TestChainLengthBounded(t *testing.T) {
	const n = 4096
	for _, shift := range []uint{0, 20, 48} {
		build := make([]relation.Tuple, n)
		for j := range build {
			build[j].Key = uint64(j) << shift
		}
		table := newChainTable(build, nil)
		table.insert(0, n, false, nil)
		longest, used := 0, 0
		for _, head := range table.heads {
			length := 0
			for idx := head; idx != 0; idx = table.next[idx] {
				length++
			}
			if length > 0 {
				used++
			}
			longest = max(longest, length)
		}
		if longest > 3 || used < n/2 {
			t.Errorf("keys j<<%d: longest chain %d, %d of %d buckets used by %d keys", shift, longest, used, len(table.heads), n)
		}
		inspected := table.probe(context.Background(), build, &mergejoin.Counter{}, false, nil)
		if inspected > 2*n {
			t.Errorf("keys j<<%d: probing every key once inspected %d entries", shift, inspected)
		}
	}
}

// TestFoldProbeSentinel: the groupjoin's probe loop ends every walk on a slot
// holding the probe key — the entry's, or the sentinel's for a key the table
// lacks. Every present key folds into its own slot, the absent ones only into
// the sentinel, and the entries inspected are those a walk that stops at the
// end of the chain would count.
func TestFoldProbeSentinel(t *testing.T) {
	const n = 4096
	for _, shift := range []uint{0, 20, 48} {
		build := make([]relation.Tuple, n)
		slots := make([]uint64, slotWords*(n+1))
		for j := range build {
			build[j].Key = uint64(j) << shift
			slots[slotWords*(j+1)] = build[j].Key
		}
		table := newChainTable(build, nil)
		table.insert(0, n, false, nil)
		var probe []relation.Tuple
		want := uint64(0)
		for j, b := range build {
			for _, k := range []uint64{b.Key, uint64(j+n) << shift, b.Key} { // present twice, absent once
				probe = append(probe, relation.Tuple{Key: k, Payload: uint64(j)})
				for idx := table.heads[bucketOf(k, table.shift)]; idx != 0; idx = table.next[idx] {
					if want++; build[idx-1].Key == k {
						break
					}
				}
			}
		}
		inspected := table.foldProbe(context.Background(), probe, slots, sink.AggSum)
		if inspected != want {
			t.Errorf("keys j<<%d: foldProbe inspected %d entries, a walk to the chain's end %d", shift, inspected, want)
		}
		if slots[1] != n {
			t.Errorf("keys j<<%d: the sentinel counted %d tuples without a partner, want %d", shift, slots[1], n)
		}
		for j := range build {
			if slot := slots[slotWords*(j+1):][:3]; slot[1] != 2 || slot[2] != 2*uint64(j) {
				t.Fatalf("keys j<<%d: key %d folded count %d, sum %d; want 2, %d", shift, slot[0], slot[1], slot[2], 2*j)
			}
		}
	}
}

// TestValidateRejectsBuildSideBeyondInt32: slots and chain links are int32;
// one tuple more than they address is an error, not a silent wrap.
func TestValidateRejectsBuildSideBeyondInt32(t *testing.T) {
	limit := math.MaxInt32
	if err := validate("the join", Options{}, limit); err != nil {
		t.Fatalf("%d build tuples rejected: %v", limit, err)
	}
	if err := validate("the join", Options{}, limit+1); err == nil {
		t.Fatalf("%d build tuples accepted", limit+1)
	}
}

// TestHashJoinsRejectKindsAndBands: the hash joins share core.Options with the
// MPSM variants and so can see Kind and Band; called directly — below
// exec.validateJoin, which rejects both earlier — they must return an error
// rather than silently run an inner equi-join.
func TestHashJoinsRejectKindsAndBands(t *testing.T) {
	r, s := testDataset(100, 2, 5)
	for name, opts := range map[string]Options{
		"semi": {Workers: 2, Kind: mergejoin.Semi},
		"band": {Workers: 2, Band: 3},
	} {
		if res, err := Wisconsin(context.Background(), r, s, opts); err == nil || res != nil {
			t.Errorf("Wisconsin accepted a %s join: (%v, %v)", name, res, err)
		}
		if res, err := Radix(context.Background(), r, s, RadixOptions{Options: opts}); err == nil || res != nil {
			t.Errorf("Radix accepted a %s join: (%v, %v)", name, res, err)
		}
	}
}
