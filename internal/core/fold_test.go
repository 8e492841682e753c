package core

import (
	"cmp"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/batch"
	"repro/internal/memory"
	"repro/internal/mergejoin"
	"repro/internal/relation"
	"repro/internal/result"
	"repro/internal/sched"
	"repro/internal/sink"
	"repro/internal/sorting"
	"repro/internal/workload"
)

// foldInputs are the shapes the merge fold is checked on beyond
// workload.EdgeInputs' own: duplicate key groups whose pair sums wrap past
// 2^64 for some pairs and not others, and private key ranges without a public
// partner.
func foldInputs() []workload.EdgeInput {
	tuples := func(name string, n int, key, pay func(i int) uint64) *relation.Relation {
		ts := make([]relation.Tuple, n)
		for i := range ts {
			ts[i] = relation.Tuple{Key: key(i), Payload: pay(i)}
		}
		return relation.New(name, ts)
	}
	// Payloads about 2^63 on both sides, beside small ones, in groups of 12
	// private and 20 public tuples: in every other group the sum of the two
	// largest payloads wraps past 2^64 and some other pairs' sums do not, so
	// the group's pairs decide its largest sum.
	half := func(i int) uint64 {
		switch i % 4 {
		case 0:
			return 1<<63 + uint64(i%11)
		case 1:
			return 1<<63 - 1 - uint64(i%13)
		case 2:
			return uint64(i % 17)
		}
		return 1<<62 + uint64(i)
	}
	return []workload.EdgeInput{
		{Name: "half-wrap", R: tuples("R", 360, func(i int) uint64 { return uint64(i / 12) }, half),
			S: tuples("S", 600, func(i int) uint64 { return uint64(i % 30) }, func(i int) uint64 { return half(i + 1) })},
		// Keys 0..199 privately, only 100..199 publicly (three times each):
		// the lower half of the key domain — a whole P-MPSM partition — has
		// no public partner.
		{Name: "one-sided", R: tuples("R", 200, func(i int) uint64 { return uint64(i) }, func(i int) uint64 { return uint64(i) * 7 }),
			S: tuples("S", 300, func(i int) uint64 { return 100 + uint64(i%100) }, func(i int) uint64 { return uint64(i) })},
	}
}

// foldCell is one configuration of the fold differential.
type foldCell struct {
	alg  string
	mode sched.Mode
	disk DiskOptions
}

func (c foldCell) String() string {
	if c.alg == "D" {
		return fmt.Sprintf("D-MPSM/page=%d", c.disk.PageSize)
	}
	return fmt.Sprintf("%s-MPSM/%v", c.alg, c.mode)
}

// foldCells are B-MPSM under the static scheduler (a full scan of every
// public run, no skip) and the morsel one, P-MPSM under both, and D-MPSM with
// pages of 16 and 7 tuples, which key groups of the inputs span.
var foldCells = []foldCell{
	{alg: "B", mode: sched.Static}, {alg: "B", mode: sched.Morsel},
	{alg: "P", mode: sched.Static}, {alg: "P", mode: sched.Morsel},
	{alg: "D", disk: DiskOptions{PageSize: 16, PageBudget: 4}}, {alg: "D", disk: DiskOptions{PageSize: 7}},
}

// maxTasks bounds the number of match tasks of a cell: one per worker, and
// under the morsel scheduler one per segment of at most morsel private tuples
// and public run.
func maxTasks(c foldCell, r *relation.Relation, workers, morsel int) uint64 {
	if c.alg == "D" || c.mode == sched.Static {
		return uint64(workers)
	}
	return uint64((r.Len()/morsel + workers) * workers)
}

// narrowPayloads returns a copy of rel with every payload cut to its low b
// bits: payloads that ride in the sort word beside keys of 64 − b bits or
// fewer, so that a folding B- or P-MPSM join groups the relation's runs.
func narrowPayloads(rel *relation.Relation, b uint) *relation.Relation {
	out := rel.Clone()
	for i := range out.Tuples {
		out.Tuples[i].Payload &= 1<<b - 1
	}
	return out
}

// payloadBound is the OR of rel's payloads.
func payloadBound(rel *relation.Relation) uint64 {
	var bound uint64
	for _, t := range rel.Tuples {
		bound |= t.Payload
	}
	return bound
}

// publicEntries is the number of entries in B- and P-MPSM's public runs of s
// at the given number of workers when the join folds, derived from the runs
// run generation gives: a chunk's groups where it is grouped
// (sorting.SortTuplesIntoGroups), its tuples where it is not, or where its
// grouped payloads can carry past 2^64 − 1 against private payloads up to
// privBound and the run is sorted again raw.
func publicEntries(s *relation.Relation, workers int, privBound uint64) int {
	entries := 0
	for _, c := range s.Split(workers) {
		keys, pays := make([]uint64, c.Len()), make([]uint64, c.Len())
		counts, bound := sorting.SortTuplesIntoGroups(c.Tuples, keys, pays, nil)
		if _, carry := bits.Add64(bound, privBound, 0); counts == nil || carry != 0 {
			entries += c.Len()
		} else {
			entries += len(counts)
		}
	}
	return entries
}

// TestMergeFoldMatchesOracle: B-, P- and D-MPSM's inner equi-join into the
// max-sum sink (nil and explicit) and into the count sink — the joins that
// fold their pairs in the merge loop (mergejoin.FoldColumns, and
// mergejoin.FoldGroups over B- and P-MPSM's grouped public runs) — report the
// reference join's pair count and largest payload sum, mod 2^64, over groups
// whose sums wrap for some pairs only, duplicate keys on both sides, empty
// and one-tuple inputs, private ranges without a public partner and key
// groups that span D-MPSM's pages; and each hands its sink at most one
// (count, max) per match task, every match in one of them. Every input runs
// once more with its payloads cut to 16 bits, so that B- and P-MPSM group its
// public runs wherever the keys leave room; wide-private-payloads, wrapping-sums
// and half-wrap as they are make them sort grouped runs again raw, where the
// private payloads can carry against them. B-MPSM's static scan must count
// exactly the entries of its public runs (publicEntries) once per worker.
func TestMergeFoldMatchesOracle(t *testing.T) {
	const morsel = 32
	inputs := foldInputs()
	for _, in := range workload.EdgeInputs(matchSeed) {
		switch in.Name {
		case "skew-negcorr", "all-duplicate", "empty-R", "empty-S", "one-tuple", "disjoint", "page-straddle", "wrapping-sums", "keys-0-and-max", "wide-private-payloads":
			inputs = append(inputs, in)
		}
	}
	for _, in := range slices.Clone(inputs) {
		inputs = append(inputs, workload.EdgeInput{Name: in.Name + "/payloads<2^16", R: narrowPayloads(in.R, 16), S: narrowPayloads(in.S, 16)})
	}
	sinks := []struct {
		name string
		new  func() sink.Sink
	}{
		{"default", func() sink.Sink { return nil }},
		{"max-sum", func() sink.Sink { return sink.NewMaxSum() }},
		{"count", func() sink.Sink { return sink.NewCount() }},
	}
	for _, in := range inputs {
		var want mergejoin.MaxAggregate
		want.Count, want.Max = reference(in.R, in.S)
		for _, c := range foldCells {
			for _, workers := range []int{1, 3, 4} {
				for _, sk := range sinks {
					label := fmt.Sprintf("input=%s %v workers=%d sink=%s", in.Name, c, workers, sk.name)
					s := sk.new()
					opts := Options{Workers: workers, Scheduler: c.mode, MorselSize: morsel, Sink: s}
					res, _ := runMPSM(c.alg, in.R, in.S, opts, c.disk)
					got := mergejoin.MaxAggregate{Count: res.Matches, Max: res.MaxSum}
					if count, ok := s.(*sink.Count); ok {
						got.Max = want.Max
						if count.Total() != res.Matches {
							t.Fatalf("%s: the count sink took %d of %d matches", label, count.Total(), res.Matches)
						}
					}
					privBound := payloadBound(in.R)
					if sk.name == "count" {
						privBound = 0 // the count sink drops the largest sum: nothing to carry
					}
					switch {
					case c.alg == "B" && c.mode == sched.Static && res.PublicScanned != workers*publicEntries(in.S, workers, privBound):
						t.Fatalf("%s: B-MPSM scanned %d public entries, its runs hold %d, once per worker", label, res.PublicScanned, workers*publicEntries(in.S, workers, privBound))
					case got != want:
						t.Fatalf("%s: (matches, max) = (%d, %d), the reference join gives (%d, %d)", label, got.Count, got.Max, want.Count, want.Max)
					case res.Batch.Tuples != res.Matches:
						t.Fatalf("%s: Batch = %+v for %d matches", label, res.Batch, res.Matches)
					case res.Matches > 0 && res.Batch.Batches == 0:
						t.Fatalf("%s: %d matches in no batch", label, res.Matches)
					case res.Batch.Batches > maxTasks(c, in.R, workers, morsel):
						t.Fatalf("%s: %d batches, more than the %d match tasks: the join did not fold", label, res.Batch.Batches, maxTasks(c, in.R, workers, morsel))
					}
				}
			}
		}
	}
}

// TestOnlyInnerEquiJoinsFold pins which joins take the fold: one worker's
// inner equi-join of 3 × batch.DefaultSize matching key groups into the
// max-sum or count sink hands it exactly one batch under B-, P- and D-MPSM,
// where the same join into Materialize, a band join, a semi join and a join
// under a tie-break verifier each take several range batches. A fold reads no
// range batch, so it leases one scratch buffer fewer than the join under the
// verifier, which leases everything else alike (64-bit payloads: no public
// run groups).
func TestOnlyInnerEquiJoinsFold(t *testing.T) {
	r, s := uniformDataset(3*batch.DefaultSize, 2, 61)
	matches, _ := reference(r, s)
	identity := func(rp, sp uint64) (uint64, uint64, bool) { return rp, sp, true }
	for _, c := range foldCells {
		c.disk.PageSize = s.Len() // one page: one kernel call
		run := func(opts Options) *result.Result {
			opts.Workers, opts.Scheduler, opts.MorselSize, opts.Scratch = 1, c.mode, r.Len(), memory.NewPool(0)
			res, _ := runMPSM(c.alg, r, s, opts, c.disk)
			return res
		}
		verified := run(Options{KeyCheck: identity}).Scratch.Buffers
		for _, sk := range []sink.Sink{nil, sink.NewCount()} {
			res := run(Options{Sink: sk})
			if res.Batch.Batches != 1 || res.Matches != matches {
				t.Errorf("%v into %T: Batch = %+v for %d matches (want %d), want one fold", c, sk, res.Batch, res.Matches, matches)
			}
			if res.Scratch.Buffers != verified-1 {
				t.Errorf("%v into %T: %d scratch buffers, under the verifier %d, want one fewer", c, sk, res.Scratch.Buffers, verified)
			}
		}
		ranged := map[string]Options{
			"materialize": {Sink: sink.NewMaterialize()},
			"tie-break":   {KeyCheck: identity},
		}
		if c.alg != "D" { // D-MPSM joins inner equi-joins only
			ranged["band"] = Options{Band: 3}
			ranged["semi"] = Options{Kind: mergejoin.Semi}
		}
		for name, opts := range ranged {
			if res := run(opts); res.Batch.Batches < 2 {
				t.Errorf("%v %s: Batch = %+v, want range batches", c, name, res.Batch)
			}
		}
	}
}

// TestGroupedRunsFallBackToRaw runs workload.EdgeInputs' wide-private-payloads
// — public payloads below 2^4, private ones of 2^63 and more, so that the
// public runs group but some of their largest sums carry — through B- and
// P-MPSM under both schedulers at one to four workers. Into the max-sum sink
// every grouped public run must be sorted again raw (B-MPSM's static scan
// counts T·|S| public tuples) and the largest sum be the reference join's;
// into the count sink, which drops the sum, the runs stay grouped (T times
// the chunks' groups); and with the private payloads cut below 2^62, where
// nothing carries, they stay grouped into max-sum too. A private input sorted
// by key and declared presorted, whose runs skip the sort that takes their
// payloads' bound, must fall back as the unsorted one does.
func TestGroupedRunsFallBackToRaw(t *testing.T) {
	var in workload.EdgeInput
	for _, e := range workload.EdgeInputs(matchSeed) {
		if e.Name == "wide-private-payloads" {
			in = e
		}
	}
	narrowR, sortedR := narrowPayloads(in.R, 62), in.R.Clone()
	slices.SortStableFunc(sortedR.Tuples, func(a, b relation.Tuple) int { return cmp.Compare(a.Key, b.Key) })
	cells := []struct {
		name               string
		r                  *relation.Relation
		sink               func() sink.Sink
		grouped, presorted bool
	}{
		{"max-sum", in.R, func() sink.Sink { return sink.NewMaxSum() }, false, false},
		{"count", in.R, func() sink.Sink { return sink.NewCount() }, true, false},
		{"max-sum/private<2^62", narrowR, func() sink.Sink { return nil }, true, false},
		{"max-sum/presorted-private", sortedR, func() sink.Sink { return nil }, false, true},
	}
	for _, c := range cells {
		wantCount, wantMax := reference(c.r, in.S)
		for _, alg := range []string{"B", "P"} {
			for _, mode := range []sched.Mode{sched.Static, sched.Morsel} {
				for _, workers := range []int{1, 2, 3, 4} {
					label := fmt.Sprintf("%s/%s-MPSM/%v/T=%d", c.name, alg, mode, workers)
					s := c.sink()
					res := mpsmByName(alg)(c.r, in.S, Options{Workers: workers, Scheduler: mode, MorselSize: 32, Sink: s, PresortedPrivate: c.presorted})
					if _, count := s.(*sink.Count); !count && res.MaxSum != wantMax || res.Matches != wantCount {
						t.Fatalf("%s: (matches, max) = (%d, %d), the reference join gives (%d, %d)", label, res.Matches, res.MaxSum, wantCount, wantMax)
					}
					if alg != "B" || mode != sched.Static {
						continue
					}
					want := workers * in.S.Len()
					if c.grouped {
						want = workers * publicEntries(in.S, workers, 0)
					}
					if res.PublicScanned != want || c.grouped == (want == workers*in.S.Len()) {
						t.Fatalf("%s: scanned %d public entries, want %d (grouped: %t, |S| = %d)", label, res.PublicScanned, want, c.grouped, in.S.Len())
					}
				}
			}
		}
	}
}

// denseBelow2to20 builds a primary-key R — every key below 2^12, then every
// 251st key up to 2^20 — and a foreign-key S of 40 000 tuples per worker,
// seven in eight of them on R's keys below 2^12, all payloads below 2^20:
// each public chunk passes l2Values, and its first stage-1 bucket, keys
// below 2^12 with 12 key bits left, is dense enough for its counting pass to
// cover them (the grouped sort's groupCounted), beside sparse buckets it
// sorts; R's key range covers every public key.
func denseBelow2to20(workers int, seed int64) (r, s *relation.Relation) {
	rng := rand.New(rand.NewSource(seed))
	var rt []relation.Tuple
	for k := uint64(0); k < 1<<20; k++ {
		if k < 1<<12 || k%251 == 0 {
			rt = append(rt, relation.Tuple{Key: k, Payload: rng.Uint64() >> 44})
		}
	}
	st := make([]relation.Tuple, 40000*workers)
	for i := range st {
		key := rt[rng.Intn(len(rt))].Key
		if rng.Intn(8) > 0 {
			key = uint64(rng.Intn(1 << 12))
		}
		st[i] = relation.Tuple{Key: key, Payload: rng.Uint64() >> 44}
	}
	rng.Shuffle(len(rt), func(i, j int) { rt[i], rt[j] = rt[j], rt[i] })
	return relation.New("R", rt), relation.New("S", st)
}

// TestDenseGroupedRunsMatchOracle runs B- and P-MPSM's folding join into the
// default sink over denseBelow2to20's keys and payloads below 2^20, whose
// public runs group with their densest buckets counted rather than sorted,
// at one to three workers, and requires the reference join's matches and
// largest sum, the public entries scanned and the sequential reads the NUMA
// model books. B-MPSM's static scan reads every public run once per worker:
// T·entries scanned, and (2+T)·|R| + 2·|S| + T·entries sequential reads.
// P-MPSM enters each public run at the window its private range reaches;
// those windows split every public run, so it scans the entries once in all,
// and reads 3·|R| (phase 2's count and scatter, phase 3's sort) + 2·|S| +
// T·|R| (a private run per public run) + entries.
func TestDenseGroupedRunsMatchOracle(t *testing.T) {
	for workers := 1; workers <= 3; workers++ {
		r, s := denseBelow2to20(workers, int64(workers))
		wantCount, wantMax := reference(r, s)
		entries := publicEntries(s, workers, payloadBound(r))
		if entries*4 > s.Len() {
			t.Fatalf("T=%d: %d public entries for %d tuples: the runs barely group", workers, entries, s.Len())
		}
		nr, ns, t64 := uint64(r.Len()), uint64(s.Len()), uint64(workers)
		for _, c := range []struct {
			alg              string
			scanned, seqRead uint64
		}{
			{"B", t64 * uint64(entries), (2+t64)*nr + 2*ns + t64*uint64(entries)},
			{"P", uint64(entries), (3+t64)*nr + 2*ns + uint64(entries)},
		} {
			label := fmt.Sprintf("%s-MPSM/T=%d", c.alg, workers)
			res := mpsmByName(c.alg)(r, s, Options{Workers: workers, TrackNUMA: true})
			if res.Matches != wantCount || res.MaxSum != wantMax {
				t.Fatalf("%s: (matches, max) = (%d, %d), the reference join gives (%d, %d)", label, res.Matches, res.MaxSum, wantCount, wantMax)
			}
			if uint64(res.PublicScanned) != c.scanned {
				t.Fatalf("%s: scanned %d public entries, want %d (%d entries)", label, res.PublicScanned, c.scanned, entries)
			}
			if got := res.NUMA.LocalSeqRead + res.NUMA.RemoteSeqRead; got != c.seqRead {
				t.Fatalf("%s: charged %d sequential reads, want %d (|R| = %d, |S| = %d, %d entries)", label, got, c.seqRead, nr, ns, entries)
			}
		}
	}
}
