package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/mergejoin"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/result"
	"repro/internal/sched"
	"repro/internal/sink"
	"repro/internal/sorting"
	"repro/internal/workload"
)

// The correctness tests drive the algorithms on a background context, so the
// cancellation error path cannot trigger; these wrappers keep them concise.
// The cancellation behaviour itself is covered by cancel_test.go and the
// public-API tests.

func pmpsm(r, s *relation.Relation, opts Options) *result.Result {
	res, err := PMPSM(context.Background(), r, s, opts)
	if err != nil {
		panic(err)
	}
	return res
}

func bmpsm(r, s *relation.Relation, opts Options) *result.Result {
	res, err := BMPSM(context.Background(), r, s, opts)
	if err != nil {
		panic(err)
	}
	return res
}

// mpsmByName returns the in-memory variant a table-free test names "B" or "P".
func mpsmByName(alg string) func(r, s *relation.Relation, opts Options) *result.Result {
	if alg == "B" {
		return bmpsm
	}
	return pmpsm
}

func dmpsm(r, s *relation.Relation, opts Options, diskOpts DiskOptions) (*result.Result, DiskStats) {
	res, stats, err := DMPSM(context.Background(), r, s, opts, diskOpts)
	if err != nil {
		panic(err)
	}
	return res, stats
}

// reference computes the expected join cardinality and max-sum.
func reference(r, s *relation.Relation) (count, maxSum uint64) {
	var agg mergejoin.MaxAggregate
	mergejoin.ReferenceJoin(r.Tuples, s.Tuples, &agg)
	return agg.Count, agg.Max
}

func uniformDataset(rSize, mult int, seed uint64) (*relation.Relation, *relation.Relation) {
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

func checkJoinResult(t *testing.T, name string, r, s *relation.Relation, matches, maxSum uint64) {
	t.Helper()
	wantCount, wantMax := reference(r, s)
	if matches != wantCount {
		t.Fatalf("%s: matches = %d, want %d", name, matches, wantCount)
	}
	if wantCount > 0 && maxSum != wantMax {
		t.Fatalf("%s: max sum = %d, want %d", name, maxSum, wantMax)
	}
}

// TestBMPSMCorrectness also pins B-MPSM's public scan: every worker scans
// every public run in full, T·|S| tuples — into Materialize, and into the
// default sink over 64-bit payloads, which leave no room in the sort word —
// or, where the default sink folds over payloads that share the word with
// their keys, T times the runs' entries, one per key of each chunk.
func TestBMPSMCorrectness(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 4, 8} {
		for _, mult := range []int{1, 4} {
			r, s := uniformDataset(1500, mult, uint64(workers*31+mult))
			res := bmpsm(r, s, Options{Workers: workers})
			checkJoinResult(t, "B-MPSM", r, s, res.Matches, res.MaxSum)
			if res.Algorithm != "B-MPSM" || res.Workers != workers {
				t.Fatalf("result metadata: %+v", res)
			}
			if len(res.Phases) != 3 {
				t.Fatalf("B-MPSM should report 3 phases, got %d", len(res.Phases))
			}
			// B-MPSM scans the complete public input once per worker.
			if res.PublicScanned != workers*s.Len() {
				t.Fatalf("PublicScanned = %d, want %d", res.PublicScanned, workers*s.Len())
			}
			if res := bmpsm(r, s, Options{Workers: workers, Sink: sink.NewMaterialize()}); res.PublicScanned != workers*s.Len() {
				t.Fatalf("into Materialize: PublicScanned = %d, want %d", res.PublicScanned, workers*s.Len())
			}
			nr, ns := narrowPayloads(r, 20), narrowPayloads(s, 20)
			res = bmpsm(nr, ns, Options{Workers: workers})
			checkJoinResult(t, "B-MPSM grouped", nr, ns, res.Matches, res.MaxSum)
			if want := workers * publicEntries(ns, workers, payloadBound(nr)); res.PublicScanned != want || want >= workers*s.Len() && mult > 1 {
				t.Fatalf("grouped: PublicScanned = %d, want T·(entries) = %d of T·|S| = %d", res.PublicScanned, want, workers*s.Len())
			}
		}
	}
}

func TestPMPSMCorrectness(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 4, 8} {
		for _, mult := range []int{1, 4, 8} {
			r, s := uniformDataset(1500, mult, uint64(workers*17+mult))
			res := pmpsm(r, s, Options{Workers: workers})
			checkJoinResult(t, "P-MPSM", r, s, res.Matches, res.MaxSum)
			if len(res.Phases) != 4 {
				t.Fatalf("P-MPSM should report 4 phases, got %d", len(res.Phases))
			}
		}
	}
}

func TestPMPSMAllSplitterStrategies(t *testing.T) {
	r, s := uniformDataset(3000, 4, 99)
	for _, strategy := range []SplitterStrategy{SplitterEquiCost, SplitterEquiHeight, SplitterUniform} {
		res := pmpsm(r, s, Options{Workers: 4, Splitters: strategy})
		checkJoinResult(t, strategy.String(), r, s, res.Matches, res.MaxSum)
	}
}

func TestPMPSMScansLessPublicDataThanBMPSM(t *testing.T) {
	// The whole point of range partitioning: each worker only scans ~1/T of
	// every public run, so the total public data scanned must be well below
	// B-MPSM's T·|S|.
	workers := 8
	r, s := uniformDataset(4000, 4, 7)
	b := bmpsm(r, s, Options{Workers: workers})
	p := pmpsm(r, s, Options{Workers: workers})
	if p.PublicScanned >= b.PublicScanned/2 {
		t.Fatalf("P-MPSM scanned %d public tuples, B-MPSM %d; expected a large reduction",
			p.PublicScanned, b.PublicScanned)
	}
}

func TestPMPSMSkewedNegativeCorrelation(t *testing.T) {
	// Section 5.6 workload: R skewed high, S skewed low, at multiplicity 4.
	r, s, err := workload.Generate(workload.Spec{
		RSize:        4000,
		Multiplicity: 4,
		RSkew:        workload.SkewHigh80,
		SSkew:        workload.SkewLow80,
		KeyDomain:    1 << 22,
		Seed:         13,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, strategy := range []SplitterStrategy{SplitterEquiCost, SplitterEquiHeight} {
		res := pmpsm(r, s, Options{Workers: 8, Splitters: strategy, CollectPerWorker: true})
		checkJoinResult(t, "P-MPSM skewed "+strategy.String(), r, s, res.Matches, res.MaxSum)
		if len(res.PerWorker) != 8 {
			t.Fatalf("expected 8 per-worker breakdowns, got %d", len(res.PerWorker))
		}
		// Per-worker counters must be consistent with the totals.
		var privSum, scannedSum int
		var matchSum uint64
		for _, wb := range res.PerWorker {
			privSum += wb.PrivateTuples
			scannedSum += wb.PublicScanned
			matchSum += wb.Matches
		}
		if privSum != r.Len() {
			t.Fatalf("per-worker private tuples sum to %d, want %d", privSum, r.Len())
		}
		if scannedSum != res.PublicScanned {
			t.Fatalf("per-worker scanned sum %d != total %d", scannedSum, res.PublicScanned)
		}
		if matchSum != res.Matches {
			t.Fatalf("per-worker matches sum %d != total %d", matchSum, res.Matches)
		}
	}

	// The equi-cost splitters balance what the workers' phases 3 and 4 book,
	// counted, not timed. On the gate's join_large_skew shape — R skewed high,
	// S skewed low and location-clustered, 2^20 keys — the fullest worker
	// books at most 5 % over the mean at 2, 8 and 32 workers (the splitters
	// that priced the sort as a comparison sort read 1.17, 1.36 and 1.15). On
	// skew-negcorr's 500 private tuples the clusters are coarse; there it
	// holds those splitters' readings, 1.064 and 1.031.
	r, s, err = workload.Generate(workload.Spec{
		RSize:               1 << 19,
		Multiplicity:        4,
		RSkew:               workload.SkewHigh80,
		SSkew:               workload.SkewLow80,
		KeyDomain:           1 << 20,
		Seed:                1600,
		SLocationSkew:       workload.LocationClustered,
		LocationSkewWorkers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, r, s *relation.Relation, workers int, bound float64) {
		t.Run(fmt.Sprintf("%s_T%d", name, workers), func(t *testing.T) {
			res := pmpsm(r, s, Options{Workers: workers, Scheduler: sched.Static, CollectPerWorker: true})
			got := pricedImbalance(res, workers)
			t.Logf("priced max/mean %.4f", got)
			if got > bound {
				t.Errorf("the fullest worker books %.4f of the mean's priced work, want at most %.4f", got, bound)
			}
		})
	}
	for _, workers := range []int{2, 8, 32} {
		check("join_large_skew", r, s, workers, 1.05)
	}
	for _, in := range workload.EdgeInputs(1) {
		if in.Name == "skew-negcorr" {
			check(in.Name, in.R, in.S, 2, 1.064)
			check(in.Name, in.R, in.S, 8, 1.031)
		}
	}
}

// pricedImbalance is the fullest worker's phase 3 and 4 work over the mean,
// each worker's private tuples and public entries scanned priced as the
// equi-cost splitters price a partition.
func pricedImbalance(res *result.Result, workers int) float64 {
	var total uint64
	for _, wb := range res.PerWorker {
		total += uint64(wb.PrivateTuples)
	}
	costs := make([]float64, len(res.PerWorker))
	sum := 0.0
	for i, wb := range res.PerWorker {
		costs[i] = partition.PartitionCost(uint64(wb.PrivateTuples), uint64(wb.PublicScanned), total, workers)
		sum += costs[i]
	}
	return slices.Max(costs) * float64(len(costs)) / sum
}

func TestPMPSMSkewedAllKeysEqual(t *testing.T) {
	// Pathological skew: every key identical. All tuples land in one
	// partition; the join must still be correct.
	n := 2000
	tuples := make([]relation.Tuple, n)
	for i := range tuples {
		tuples[i] = relation.Tuple{Key: 12345, Payload: uint64(i)}
	}
	r := relation.New("R", tuples)
	s := r.Clone()
	res := pmpsm(r, s, Options{Workers: 4})
	if res.Matches != uint64(n*n) {
		t.Fatalf("matches = %d, want %d", res.Matches, n*n)
	}
}

func TestPMPSMLocationSkew(t *testing.T) {
	// Section 5.5: location skew in S must not change the result.
	workers := 8
	spec := workload.Spec{
		RSize:               3000,
		Multiplicity:        4,
		ForeignKey:          true,
		Seed:                17,
		SLocationSkew:       workload.LocationClustered,
		LocationSkewWorkers: workers,
	}
	r, s, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	res := pmpsm(r, s, Options{Workers: workers})
	checkJoinResult(t, "P-MPSM location skew", r, s, res.Matches, res.MaxSum)
}

func TestMPSMEmptyInputs(t *testing.T) {
	empty := relation.New("E", nil)
	r, _ := uniformDataset(500, 1, 3)
	for name, run := range map[string]func() uint64{
		"B empty private": func() uint64 { return bmpsm(empty, r, Options{Workers: 4}).Matches },
		"B empty public":  func() uint64 { return bmpsm(r, empty, Options{Workers: 4}).Matches },
		"P empty private": func() uint64 { return pmpsm(empty, r, Options{Workers: 4}).Matches },
		"P empty public":  func() uint64 { return pmpsm(r, empty, Options{Workers: 4}).Matches },
		"P both empty":    func() uint64 { return pmpsm(empty, empty, Options{Workers: 4}).Matches },
	} {
		if got := run(); got != 0 {
			t.Fatalf("%s: matches = %d, want 0", name, got)
		}
	}
}

func TestMPSMMoreWorkersThanTuples(t *testing.T) {
	r, s := uniformDataset(5, 1, 5)
	for _, workers := range []int{8, 16} {
		res := pmpsm(r, s, Options{Workers: workers})
		checkJoinResult(t, "tiny P-MPSM", r, s, res.Matches, res.MaxSum)
		res = bmpsm(r, s, Options{Workers: workers})
		checkJoinResult(t, "tiny B-MPSM", r, s, res.Matches, res.MaxSum)
	}
}

func TestMPSMRoleReversal(t *testing.T) {
	// Joining R⋈S must produce the same result regardless of which input
	// plays the private role.
	r, s := uniformDataset(1000, 4, 23)
	a := pmpsm(r, s, Options{Workers: 4})
	b := pmpsm(s, r, Options{Workers: 4})
	if a.Matches != b.Matches || a.MaxSum != b.MaxSum {
		t.Fatalf("role reversal changed the result: (%d, %d) vs (%d, %d)",
			a.Matches, a.MaxSum, b.Matches, b.MaxSum)
	}
}

func TestMPSMNUMAAccountingObeysCommandments(t *testing.T) {
	r, s := uniformDataset(5000, 4, 29)
	res := pmpsm(r, s, Options{Workers: 8, TrackNUMA: true})
	if res.NUMA.TotalAccesses() == 0 {
		t.Fatal("NUMA tracking enabled but nothing recorded")
	}
	// C3: MPSM performs no fine-grained synchronization.
	if res.NUMA.SyncOps != 0 {
		t.Fatalf("MPSM recorded %d sync ops, want 0", res.NUMA.SyncOps)
	}
	// C1/C2: random accesses happen only on local memory (sorting); remote
	// accesses are sequential only.
	if res.NUMA.RemoteRandRead != 0 || res.NUMA.RemoteRandWrite != 0 {
		t.Fatalf("MPSM recorded remote random accesses: %+v", res.NUMA)
	}
	if res.SimulatedNUMACost == 0 {
		t.Fatal("simulated NUMA cost missing")
	}

	// The same workload through the Wisconsin-style accounting should show
	// remote random traffic — covered in the hashjoin package tests.
	bres := bmpsm(r, s, Options{Workers: 8, TrackNUMA: true})
	if bres.NUMA.SyncOps != 0 || bres.NUMA.RemoteRandRead != 0 {
		t.Fatalf("B-MPSM violated commandments: %+v", bres.NUMA)
	}
	// B-MPSM's run generation reads every input tuple twice (the first pass,
	// which finds the key domain and counts the first digit, and the
	// scatter); its match phase reads every private run once per public run
	// and every public run once per worker: its tuples into Materialize and
	// into the default sink over 64-bit payloads, its entries, one per key of
	// a chunk, where the default sink folds over payloads that share the sort
	// word with their keys.
	nr, ns := narrowPayloads(r, 20), narrowPayloads(s, 20)
	for _, workers := range []int{1, 2, 8} {
		for _, sk := range []sink.Sink{nil, sink.NewMaterialize()} {
			res := bmpsm(r, s, Options{Workers: workers, TrackNUMA: true, Sink: sk})
			got, want := res.NUMA.LocalSeqRead+res.NUMA.RemoteSeqRead, uint64(2+workers)*uint64(r.Len()+s.Len())
			if got != want {
				t.Fatalf("T=%d into %T: B-MPSM charged %d sequential reads, want (2+T)·(|R|+|S|) = %d", workers, sk, got, want)
			}
		}
		res := bmpsm(nr, ns, Options{Workers: workers, TrackNUMA: true})
		entries := publicEntries(ns, workers, payloadBound(nr))
		got, want := res.NUMA.LocalSeqRead+res.NUMA.RemoteSeqRead, uint64(2+workers)*uint64(r.Len())+2*uint64(s.Len())+uint64(workers*entries)
		if got != want || entries >= s.Len() {
			t.Fatalf("T=%d grouped: B-MPSM charged %d sequential reads, want (2+T)·|R| + 2·|S| + T·(%d entries) = %d", workers, got, entries, want)
		}
	}

	// D-MPSM's run generation is B-MPSM's; its page walk reads through the
	// buffer pool, which the model does not place.
	dres, _ := dmpsm(r, s, Options{Workers: 8, TrackNUMA: true}, DiskOptions{PageSize: 256})
	if dres.NUMA.TotalAccesses() == 0 || dres.SimulatedNUMACost == 0 {
		t.Fatalf("D-MPSM: NUMA tracking enabled but nothing reported: %+v", dres.NUMA)
	}
	if dres.NUMA.SyncOps != 0 || dres.NUMA.RemoteRandRead != 0 || dres.NUMA.RemoteRandWrite != 0 {
		t.Fatalf("D-MPSM violated commandments: %+v", dres.NUMA)
	}
}

// TestPMPSMGuessTooNarrow gives P-MPSM a private input whose one widest key
// sits off the sample positions of every worker's chunk at one, two and three
// workers, so that phase 2 guesses the key width too narrow, must count its
// histograms again at the exact radix configuration, and sums phase 3's
// first-digit counts from those. The private partitions exceed the sort's
// single-bucket size at every worker count, so phase 3 scatters by the counts
// it was handed. The pairs must be a map oracle's under either scheduler.
func TestPMPSMGuessTooNarrow(t *testing.T) {
	const n = 3 * 40000
	rng := rand.New(rand.NewSource(43))
	rt, st := make([]relation.Tuple, n), make([]relation.Tuple, n/2)
	for i := range rt {
		rt[i] = relation.Tuple{Key: rng.Uint64() >> 44, Payload: uint64(i)}
	}
	// The first index that no chunk at any worker count samples: 64 evenly
	// spaced keys of the chunk and its last one.
	sampled := map[int]bool{}
	for workers := 1; workers <= 3; workers++ {
		for _, c := range relation.New("R", rt).Split(workers) {
			size := len(c.Tuples)
			sampled[c.Offset+size-1] = true
			for i := range min(size, 64) {
				sampled[c.Offset+i*max(size/64, 1)] = true
			}
		}
	}
	planted := 1
	for sampled[planted] {
		planted++
	}
	const wide = 1 << 22 // two bits wider than every other key: phase 2's clusters shift by two bits more
	rt[planted].Key = wide
	for i := range st {
		st[i] = relation.Tuple{Key: rt[rng.Intn(n)].Key, Payload: uint64(i)}
	}
	st[0].Key, st[1].Key = wide, wide
	r, s := relation.New("R", rt), relation.New("S", st)

	partners := map[uint64][]uint64{}
	for _, t := range st {
		partners[t.Key] = append(partners[t.Key], t.Payload)
	}
	var oracle []sink.Pair
	for _, rt := range rt {
		for _, p := range partners[rt.Key] {
			oracle = append(oracle, sink.Pair{R: rt, S: relation.Tuple{Key: rt.Key, Payload: p}})
		}
	}
	want := canonicalPairs(oracle)
	for workers := 1; workers <= 3; workers++ {
		var guess uint64
		for _, c := range r.Split(workers) {
			guess = max(guess, sorting.GuessMaxKey(c.Tuples))
		}
		if bits := histogramBits(workers); partition.NewRadixConfig(bits, guess) == partition.NewRadixConfig(bits, wide) {
			t.Fatalf("T=%d: the chunks' samples guess %d, as wide as %d", workers, guess, uint64(wide))
		}
		for _, mode := range []sched.Mode{sched.Static, sched.Morsel} {
			got, _, _ := runMaterialized(t, "P", r, s, Options{Workers: workers, Scheduler: mode})
			if !slices.Equal(got, want) {
				t.Fatalf("T=%d/%v: %d pairs, the map oracle has %d", workers, mode, len(got), len(want))
			}
		}
	}
}

func TestDMPSMCorrectness(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		for _, budget := range []int{0, 4, 16} {
			r, s := uniformDataset(2000, 4, uint64(workers*7+budget))
			res, stats := dmpsm(r, s, Options{Workers: workers}, DiskOptions{
				PageSize:   256,
				PageBudget: budget,
			})
			checkJoinResult(t, "D-MPSM", r, s, res.Matches, res.MaxSum)
			if stats.PageWrites == 0 || stats.PageReads == 0 {
				t.Fatalf("D-MPSM did not touch the disk: %+v", stats)
			}
			if budget > 0 && stats.Pool.MaxResident > budget {
				t.Fatalf("buffer pool exceeded budget: %+v", stats.Pool)
			}
		}
	}
}

func TestDMPSMSkewedData(t *testing.T) {
	r, s, err := workload.Generate(workload.Spec{
		RSize:        3000,
		Multiplicity: 2,
		RSkew:        workload.SkewHigh80,
		SSkew:        workload.SkewLow80,
		KeyDomain:    1 << 22,
		Seed:         31,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, _ := dmpsm(r, s, Options{Workers: 4}, DiskOptions{PageSize: 128, PageBudget: 8})
	checkJoinResult(t, "D-MPSM skewed", r, s, res.Matches, res.MaxSum)
}

func TestDMPSMEmptyInputs(t *testing.T) {
	empty := relation.New("E", nil)
	r, _ := uniformDataset(200, 1, 41)
	if res, _ := dmpsm(empty, r, Options{Workers: 2}, DiskOptions{}); res.Matches != 0 {
		t.Fatalf("empty private side produced %d matches", res.Matches)
	}
	if res, _ := dmpsm(r, empty, Options{Workers: 2}, DiskOptions{}); res.Matches != 0 {
		t.Fatalf("empty public side produced %d matches", res.Matches)
	}
}

func TestOptionsNormalize(t *testing.T) {
	o := Options{}.Normalize()
	if o.Workers <= 0 {
		t.Fatal("Workers default missing")
	}
	if o.MorselSize != sched.DefaultMorselSize {
		t.Fatalf("MorselSize default = %d, want %d", o.MorselSize, sched.DefaultMorselSize)
	}
	if o.Topology.Nodes == 0 {
		t.Fatal("Topology default missing")
	}

	// The histogram has the paper's B = 10 bits, raised to one radix cluster
	// per worker where the workers need more.
	for _, c := range []struct{ workers, bits int }{{1, 10}, {64, 10}, {1024, 10}, {1025, 11}, {1 << 12, 12}} {
		if got := histogramBits(c.workers); got != c.bits {
			t.Fatalf("histogramBits(%d) = %d, want %d", c.workers, got, c.bits)
		}
	}
}

func TestSplitterStrategyString(t *testing.T) {
	if SplitterEquiCost.String() != "equi-cost" ||
		SplitterEquiHeight.String() != "equi-height" ||
		SplitterUniform.String() != "uniform" {
		t.Fatal("unexpected SplitterStrategy strings")
	}
	if SplitterStrategy(9).String() != "SplitterStrategy(9)" {
		t.Fatal("unknown strategy should render numerically")
	}
}

func TestLog2Ceil(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 32: 5, 33: 6, 64: 6}
	for n, want := range cases {
		if got := log2ceil(n); got != want {
			t.Errorf("log2ceil(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestChunkSourceNode(t *testing.T) {
	topo := Options{}.Normalize().Topology
	if n := chunkSourceNode(0, 8, topo); n != 0 {
		t.Fatalf("chunk 0 node = %d", n)
	}
	if n := chunkSourceNode(7, 8, topo); n != 3 {
		t.Fatalf("chunk 7 node = %d, want 3", n)
	}
	if n := chunkSourceNode(0, 0, topo); n != 0 {
		t.Fatalf("degenerate worker count node = %d", n)
	}
}
