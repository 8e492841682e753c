package hashjoin

import (
	"context"
	"math"
	"slices"
	"testing"

	"repro/internal/mergejoin"
	"repro/internal/numa"
	"repro/internal/relation"
	"repro/internal/result"
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
	res := wisconsin(r, s, Options{Workers: 8, TrackNUMA: true})
	if res.NUMA.TotalAccesses() == 0 {
		t.Fatal("NUMA accounting enabled but no accesses recorded")
	}
	// Synchronization is charged as executed: a compare-and-swap per insert
	// (plus retries) when workers share the bucket heads, nothing for the
	// plain stores of a one-worker build. The probe's random reads — every
	// entry inspected plus one head per probe tuple — do not depend on that.
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
		res := radix(r, s, RadixOptions{Options: Options{Workers: 4}, PartitionBits: bitsUsed})
		if res.Matches != wantCount || res.MaxSum != wantMax {
			t.Fatalf("bits=%d: got (%d, %d), want (%d, %d)", bitsUsed, res.Matches, res.MaxSum, wantCount, wantMax)
		}
	}
}

func TestRadixPassCounts(t *testing.T) {
	r, s := testDataset(4000, 4, 21)
	wantCount, wantMax := reference(r, s)
	for _, passes := range []int{1, 2} {
		res := radix(r, s, RadixOptions{Options: Options{Workers: 4}, PartitionBits: 8, Passes: passes})
		if res.Matches != wantCount || res.MaxSum != wantMax {
			t.Fatalf("passes=%d: got (%d, %d), want (%d, %d)", passes, res.Matches, res.MaxSum, wantCount, wantMax)
		}
	}
}

func TestRefinePartitionPreservesTuplesAndRanges(t *testing.T) {
	tuples := make([]relation.Tuple, 0, 1000)
	rng := workload.NewRNG(5)
	for i := 0; i < 1000; i++ {
		tuples = append(tuples, relation.Tuple{Key: rng.Uint64n(1 << 16), Payload: uint64(i)})
	}
	refined := refinePartition(tuples, 8, 4, nil) // 16 sub-partitions on bits 8..11
	var back []relation.Tuple
	for b, part := range refined {
		for _, tup := range part {
			if int((tup.Key>>8)&0xF) != b {
				t.Fatalf("tuple with key %d landed in sub-partition %d", tup.Key, b)
			}
			back = append(back, tup)
		}
	}
	if !relation.SameMultiset(tuples, back) {
		t.Fatal("refinement lost or duplicated tuples")
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
	res := radix(r, s, RadixOptions{Options: Options{Workers: 8, TrackNUMA: true}})
	if res.NUMA.TotalAccesses() == 0 {
		t.Fatal("NUMA accounting enabled but no accesses recorded")
	}
	// Radix join never synchronizes per tuple (histogram-based scatter).
	if res.NUMA.SyncOps != 0 {
		t.Fatalf("radix join recorded %d sync ops, want 0", res.NUMA.SyncOps)
	}
	// Partitioning both inputs must cause remote writes.
	if res.NUMA.RemoteRandWrite == 0 {
		t.Fatal("partitioning phase should record remote writes")
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
// stay in the build slice, both insert flavours chain them alike, and a probe
// reports its matches in probe order and the entries it inspected.
func TestSharedTableDirect(t *testing.T) {
	build := []relation.Tuple{{Key: 1, Payload: 10}, {Key: 2, Payload: 20}, {Key: 1, Payload: 30}, {Key: 99, Payload: 40}}
	for _, shared := range []bool{false, true} {
		table := newChainTable(build, nil)
		if len(table.heads) != 32 || len(table.next) != len(build) || &table.build[0] != &build[0] {
			t.Fatalf("table over %d tuples: %d heads, %d links, entries copied = %v",
				len(build), len(table.heads), len(table.next), &table.build[0] != &build[0])
		}
		if retries := table.insert(0, 2, shared) + table.insert(2, len(build), shared); retries != 0 {
			t.Fatalf("shared=%v: uncontended insert reported %d retries", shared, retries)
		}
		var m mergejoin.Materializer
		inspected := table.probe(context.Background(), []relation.Tuple{{Key: 1, Payload: 100}, {Key: 5}, {Key: 99, Payload: 7}}, &m, nil)
		want := []mergejoin.JoinedTuple{{Key: 1, RPayload: 30, SPayload: 100}, {Key: 1, RPayload: 10, SPayload: 100}, {Key: 99, RPayload: 40, SPayload: 7}}
		if !slices.Equal(m.Out, want) {
			t.Fatalf("shared=%v: probe emitted %v, want %v", shared, m.Out, want)
		}
		if inspected < 3 || inspected > uint64(3*len(build)) {
			t.Fatalf("shared=%v: probe inspected %d entries", shared, inspected)
		}
	}
}

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
		table.insert(0, n, false)
		longest, used := 0, 0
		for _, head := range table.heads {
			length := 0
			for idx := head; idx >= 0; idx = table.next[idx] {
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
		inspected := table.probe(context.Background(), build, &mergejoin.Counter{}, nil)
		if inspected > 2*n {
			t.Errorf("keys j<<%d: probing every key once inspected %d entries", shift, inspected)
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
