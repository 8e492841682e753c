package core

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"repro/internal/memory"
	"repro/internal/mergejoin"
	"repro/internal/relation"
	"repro/internal/result"
	"repro/internal/sched"
	"repro/internal/sink"
	"repro/internal/workload"
)

// sortedPairs returns the materialized result pairs in a canonical order so
// that two executions can be compared as multisets.
func sortedPairs(m *sink.Materialize) []sink.Pair { return canonicalPairs(m.Pairs()) }

// canonicalPairs returns pairs in canonical order.
func canonicalPairs(pairs []sink.Pair) []sink.Pair {
	return slices.SortedFunc(slices.Values(pairs), func(a, b sink.Pair) int {
		return cmp.Or(cmp.Compare(a.R.Key, b.R.Key), cmp.Compare(a.R.Payload, b.R.Payload), cmp.Compare(a.S.Key, b.S.Key), cmp.Compare(a.S.Payload, b.S.Payload))
	})
}

// runMPSM runs the MPSM variant named "B", "P" or "D", the last with disk.
func runMPSM(alg string, r, s *relation.Relation, opts Options, disk DiskOptions) (*result.Result, DiskStats) {
	if alg == "D" {
		return dmpsm(r, s, opts, disk)
	}
	return mpsmByName(alg)(r, s, opts), DiskStats{}
}

// runMaterialized executes one MPSM join with a materializing sink and
// returns the canonicalized pairs plus the (matches, maxSum) counters.
func runMaterialized(t *testing.T, alg string, r, s *relation.Relation, opts Options) ([]sink.Pair, uint64, uint64) {
	t.Helper()
	m := sink.NewMaterialize()
	opts.Sink = m
	res, _ := runMPSM(alg, r, s, opts, DiskOptions{PageSize: 256, PageBudget: 16})
	return sortedPairs(m), res.Matches, res.MaxSum
}

// referencePairs is the brute-force join of r and s under kind, or under the
// band when it is non-zero, in canonical order.
func referencePairs(kind mergejoin.Kind, band uint64, r, s *relation.Relation) []sink.Pair {
	m := sink.NewMaterialize()
	bound := sink.BindChecked(m, 1, nil, nil)
	if band > 0 {
		mergejoin.ReferenceJoinBand(r.Tuples, s.Tuples, band, bound.Writer(0))
	} else {
		mergejoin.ReferenceJoinKind(kind, r.Tuples, s.Tuples, bound.Writer(0))
	}
	_ = bound.Close()
	return sortedPairs(m)
}

// matchSeed seeds the core differential's inputs.
const matchSeed = 1017

// matchCell is one configuration of the core differential.
type matchCell struct {
	alg  string
	in   workload.EdgeInput
	opts Options
	disk DiskOptions // D-MPSM's
}

func (c matchCell) String() string {
	o := c.opts
	return fmt.Sprintf("input=%s %s-MPSM kind=%v band=%d sched=%v morsel=%d splitters=%v pool=%t workers=%d disk=%+v",
		c.in.Name, c.alg, o.Kind, o.Band, o.Scheduler, o.MorselSize, o.Splitters, o.Scratch != nil, o.Workers, c.disk)
}

// matchCells enumerates B- and P-MPSM under every kind and band 3, and
// D-MPSM, over every small input of workload.EdgeInputs(matchSeed), and
// rotates the scheduler, the morsel size, the splitters, one pool or none,
// and the worker count from one to more than there are tuples. rot records
// which input and algorithm each rotated value met.
func matchCells(rot *workload.Rotation) []matchCell {
	pool := memory.NewPool(0)
	var cells []matchCell
	for i, in := range workload.EdgeInputs(matchSeed) {
		for k, kind := range append(allKinds, mergejoin.Inner) {
			for a, alg := range []string{"B", "P", "D"} {
				band := uint64(k / len(allKinds) * 3)
				if in.Large || alg == "D" && (kind != mergejoin.Inner || band > 0) {
					continue
				}
				pick := func(axis string, n int) int {
					v := rot.Pick(axis, n, i, k, a)
					rot.Meet(fmt.Sprint(axis, v), "input "+in.Name, "algorithm "+alg)
					return v
				}
				o := Options{Kind: kind, Band: band, Scheduler: sched.Mode(pick("sched", 2)), MorselSize: []int{7, 32, 128}[pick("morsel", 3)],
					Splitters: []SplitterStrategy{SplitterEquiCost, SplitterEquiHeight, SplitterUniform}[pick("splitters", 3)],
					Scratch:   []*memory.Pool{nil, pool}[pick("pool", 2)], Workers: []int{1, 4, min(in.R.Len()+5, 65)}[pick("workers", 3)]}
				cells = append(cells, matchCell{alg, in, o, DiskOptions{PageSize: 16, PageBudget: 8}})
			}
		}
	}
	return cells
}

// runMatchCells runs each cell into a materializing sink and requires the
// oracle's multiset of pairs — the public side of every semi, anti or
// unmatched private tuple the exact zero tuple — their number as Matches and
// MaxSum 0, and D-MPSM's public input spilled to pages; then into the default
// sink, which folds ranges, and requires the oracle's count and max-sum with
// every match batched; and pools left intact.
func runMatchCells(t *testing.T, cells []matchCell) {
	t.Helper()
	oracles := map[string][]sink.Pair{}
	for _, c := range cells {
		key := fmt.Sprint(c.in.Name, c.opts.Kind, c.opts.Band)
		if _, ok := oracles[key]; !ok {
			oracles[key] = referencePairs(c.opts.Kind, c.opts.Band, c.in.R, c.in.S)
		}
		want := oracles[key]
		var agg mergejoin.MaxAggregate
		for _, p := range want {
			agg.Consume(p.R, p.S)
		}
		m, opts := sink.NewMaterialize(), c.opts
		opts.Sink = m
		res, stats := runMPSM(c.alg, c.in.R, c.in.S, opts, c.disk)
		switch got := sortedPairs(m); {
		case res.Matches != uint64(len(want)) || len(got) != len(want):
			t.Fatalf("%v: %d matches, %d pairs; the oracle has %d", c, res.Matches, len(got), len(want))
		case res.MaxSum != 0:
			t.Fatalf("%v: materializing join reported MaxSum %d", c, res.MaxSum)
		case !slices.Equal(got, want):
			t.Fatalf("%v: pairs differ from the oracle's", c)
		case c.alg == "D" && stats.PublicPages < c.in.S.Len()/c.disk.PageSize:
			t.Fatalf("%v: %d public pages for %d tuples", c, stats.PublicPages, c.in.S.Len())
		}
		if res, _ := runMPSM(c.alg, c.in.R, c.in.S, c.opts, c.disk); res.Matches != agg.Count || res.MaxSum != agg.Max || res.Batch.Tuples != res.Matches {
			t.Fatalf("%v: folded (matches, max, batched) = (%d, %d, %d), the oracle's (%d, %d)", c, res.Matches, res.MaxSum, res.Batch.Tuples, agg.Count, agg.Max)
		}
		if c.opts.Scratch != nil {
			if err := c.opts.Scratch.CheckIntegrity(); err != nil {
				t.Fatalf("%v: %v", c, err)
			}
		}
	}
}

// variants returns one cell variant per value, as set applies it.
func variants[T any](set func(*Options, T), values ...T) []func(*Options) {
	out := make([]func(*Options), len(values))
	for i, v := range values {
		out[i] = func(o *Options) { set(o, v) }
	}
	return out
}

// cellsOf returns the differential's cells over the named inputs that keep
// selects, once per variant and scheduler.
func cellsOf(keep func(matchCell) bool, vary []func(*Options), inputs ...string) []matchCell {
	var out []matchCell
	for _, c := range matchCells(new(workload.Rotation)) {
		if !keep(c) || !slices.Contains(inputs, c.in.Name) {
			continue
		}
		for _, v := range vary {
			for _, mode := range []sched.Mode{sched.Static, sched.Morsel} {
				v(&c.opts)
				c.opts.Scheduler = mode
				out = append(out, c)
			}
		}
	}
	return out
}

func anyCell(matchCell) bool       { return true }
func innerCell(c matchCell) bool   { return c.opts.Kind == mergejoin.Inner && c.opts.Band == 0 }
func bandCell(c matchCell) bool    { return c.opts.Band > 0 }
func setWorkers(o *Options, n int) { o.Workers = n }

// TestSchedulerModeParity: the static and morsel schedulers, at morsels of 7
// tuples that make the morsel path split, steal and interleave, both give
// every differential cell over the paper's distributions and the degenerate
// sizes the oracle's pairs.
func TestSchedulerModeParity(t *testing.T) {
	runMatchCells(t, cellsOf(anyCell, variants(func(o *Options, n int) { o.MorselSize = n }, 7),
		"uniform-fk", "skew-negcorr", "all-duplicate", "workers-over-tuples", "one-tuple", "page-straddle"))
}

// TestSchedulerModeParityUnderSkew: on the negatively correlated skew input,
// the scenario the morsel scheduler exists for, both schedulers give every
// MPSM variant's inner join on 8 workers the oracle's pairs under every
// splitter strategy, the data-oblivious uniform one included.
func TestSchedulerModeParityUnderSkew(t *testing.T) {
	runMatchCells(t, cellsOf(innerCell, variants(func(o *Options, sp SplitterStrategy) { o.Workers, o.Splitters = 8, sp },
		SplitterEquiCost, SplitterEquiHeight, SplitterUniform), "skew-negcorr"))
}

// TestMorselSchedulingBalancesSkewedMatchPhase is the scheduler-fairness
// regression test: under heavy value skew with data-oblivious splitters,
// static scheduling leaves almost all phase-4 work (measured by matches
// produced, which is deterministic) on a few workers, while the morsel queue
// spreads it across whoever is idle.
func TestMorselSchedulingBalancesSkewedMatchPhase(t *testing.T) {
	r, s, err := workload.Generate(workload.Spec{
		RSize:        6000,
		Multiplicity: 4,
		RSkew:        workload.SkewHigh80,
		SSkew:        workload.SkewHigh80,
		KeyDomain:    1 << 14,
		Seed:         123,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := Options{Workers: 8, Splitters: SplitterUniform, CollectPerWorker: true, MorselSize: 64}

	share := func(mode sched.Mode) (float64, uint64) {
		opts := base
		opts.Scheduler = mode
		res := pmpsm(r, s, opts)
		var total, maxMatches uint64
		for _, wb := range res.PerWorker {
			total += wb.Matches
			if wb.Matches > maxMatches {
				maxMatches = wb.Matches
			}
		}
		if total == 0 {
			t.Fatalf("%v: skew workload produced no matches", mode)
		}
		return float64(maxMatches) / float64(total), total
	}

	staticShare, staticTotal := share(sched.Static)
	morselShare, morselTotal := share(sched.Morsel)
	if staticTotal != morselTotal {
		t.Fatalf("modes disagree on matches: static %d, morsel %d", staticTotal, morselTotal)
	}

	// Sanity: the workload must actually skew the static assignment (with
	// 8 workers a balanced run would put ~12.5% on the heaviest worker).
	if staticShare < 0.25 {
		t.Fatalf("static share %.2f too balanced — the skew scenario is broken", staticShare)
	}
	// The point of the morsel queue: the heaviest worker's share of the
	// match work must drop meaningfully versus static scheduling.
	if morselShare >= staticShare*0.75 {
		t.Fatalf("morsel scheduling did not rebalance: heaviest worker share %.2f (static %.2f)",
			morselShare, staticShare)
	}
}

// TestPresortedPrivateSkipsSort locks in the PresortedPrivate contract for
// B-MPSM: when the private input is declared and verified sorted, phase 2
// skips the sorting pass entirely — observable as exactly the 2·|R| random
// reads and 2·|R| random writes the sort would have charged to the NUMA
// tracker — while the join result is unchanged.
func TestPresortedPrivateSkipsSort(t *testing.T) {
	r, s := uniformDataset(4000, 2, 55)
	sortedR := r.Clone()
	sortTuples(sortedR.Tuples)

	run := func(private *relation.Relation, presorted bool) (*relationResult, uint64) {
		res := bmpsm(private, s, Options{Workers: 4, TrackNUMA: true, PresortedPrivate: presorted})
		return &relationResult{
			randReads:  res.NUMA.LocalRandRead + res.NUMA.RemoteRandRead,
			randWrites: res.NUMA.LocalRandWrite + res.NUMA.RemoteRandWrite,
			maxSum:     res.MaxSum,
		}, res.Matches
	}

	declared, declaredMatches := run(sortedR, true)
	undeclared, undeclaredMatches := run(sortedR, false)

	if declaredMatches != undeclaredMatches || declared.maxSum != undeclared.maxSum {
		t.Fatalf("PresortedPrivate changed the result: (%d, %d) vs (%d, %d)",
			declaredMatches, declared.maxSum, undeclaredMatches, undeclared.maxSum)
	}
	n := uint64(sortedR.Len())
	if undeclared.randReads-declared.randReads != 2*n {
		t.Fatalf("declared run saved %d random reads, want exactly %d (the skipped sort)",
			undeclared.randReads-declared.randReads, 2*n)
	}
	if undeclared.randWrites-declared.randWrites != 2*n {
		t.Fatalf("declared run saved %d random writes, want exactly %d (the skipped sort)",
			undeclared.randWrites-declared.randWrites, 2*n)
	}

	// A false declaration must fall back to sorting: same access counts as
	// the undeclared run, and a correct result despite the unsorted input.
	falseDeclared, falseMatches := run(r, true)
	if falseMatches != undeclaredMatches {
		t.Fatalf("false declaration broke the join: %d matches, want %d", falseMatches, undeclaredMatches)
	}
	if falseDeclared.randReads != undeclared.randReads || falseDeclared.randWrites != undeclared.randWrites {
		t.Fatalf("false declaration skipped the sort: %+v vs %+v", falseDeclared, undeclared)
	}
}

// relationResult bundles the counters TestPresortedPrivateSkipsSort compares.
type relationResult struct {
	randReads, randWrites uint64
	maxSum                uint64
}

// sortTuples key-sorts a tuple slice in place (test helper).
func sortTuples(tuples []relation.Tuple) {
	slices.SortFunc(tuples, func(a, b relation.Tuple) int { return cmp.Compare(a.Key, b.Key) })
}
