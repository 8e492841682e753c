package mpsm

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/mergejoin"
)

// oraclePairs materializes the reference join of the given kind, sorted.
func oraclePairs(kind JoinKind, r, s *Relation) []Pair {
	var pairs []Pair
	mergejoin.ReferenceJoinKind(kind, r.Tuples, s.Tuples, consumerFunc(func(rt, st Tuple) {
		pairs = append(pairs, Pair{R: rt, S: st})
	}))
	sortPairs(pairs)
	return pairs
}

// consumerFunc adapts a closure to the oracle's consumer interface.
type consumerFunc func(r, s Tuple)

func (f consumerFunc) Consume(r, s Tuple) { f(r, s) }

// TestColumnarRowParityAllAlgorithms is the differential gate of the engine's
// join paths: every algorithm, under both schedulers and with the scratch
// pool on and off, must materialize the exact multiset of pairs the
// brute-force oracle (mergejoin.ReferenceJoin) produces. The adversarial
// distributions (uniform, low-skew, high-skew over a narrow domain) provoke
// heavy duplicate-key cross products.
func TestColumnarRowParityAllAlgorithms(t *testing.T) {
	type dataset struct {
		name string
		r, s *Relation
	}
	datasets := []dataset{
		{"fk-uniform", GenerateUniform("R", 800, 201), nil},
		{"narrow-low-skew", GenerateSkewedWithDomain("R", 400, 300, SkewLow80, 203), GenerateSkewedWithDomain("S", 1200, 300, SkewLow80, 204)},
		{"narrow-high-skew", GenerateSkewedWithDomain("R", 400, 250, SkewHigh80, 205), GenerateSkewedWithDomain("S", 1200, 250, SkewHigh80, 206)},
	}
	datasets[0].s = GenerateForeignKey("S", datasets[0].r, 3200, 202)

	for _, pool := range []bool{false, true} {
		engine := New(WithWorkers(3), WithScratchPool(pool))
		for _, ds := range datasets {
			want := oraclePairs(InnerJoin, ds.r, ds.s)
			var wantAgg mergejoin.MaxAggregate
			for _, p := range want {
				wantAgg.Consume(p.R, p.S)
			}
			for _, alg := range allAlgorithms {
				for _, sched := range []Scheduler{Static, Morsel} {
					name := fmt.Sprintf("%s/%v/pool=%v/sched=%v", ds.name, alg, pool, sched)
					mat := NewMaterializeSink()
					res, err := engine.Join(context.Background(), ds.r, ds.s,
						WithAlgorithm(alg), WithScheduler(sched), WithSink(mat))
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if res.Matches != wantAgg.Count {
						t.Fatalf("%s: %d matches, oracle %d", name, res.Matches, wantAgg.Count)
					}
					got := append([]Pair(nil), mat.Pairs()...)
					sortPairs(got)
					if len(got) != len(want) {
						t.Fatalf("%s: %d pairs, oracle %d", name, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%s: pair %d = %+v, oracle %+v", name, i, got[i], want[i])
						}
					}
					// The default sink folds the same output.
					folded, err := engine.Join(context.Background(), ds.r, ds.s,
						WithAlgorithm(alg), WithScheduler(sched))
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if folded.Matches != wantAgg.Count || folded.MaxSum != wantAgg.Max {
						t.Fatalf("%s: (matches, maxSum) = (%d, %d), oracle (%d, %d)",
							name, folded.Matches, folded.MaxSum, wantAgg.Count, wantAgg.Max)
					}
				}
			}
		}
	}
}

// TestColumnarBatchCounters pins when Result.Batch reports traffic: every
// join hands its sink range batches and nothing else — B-, P- and D-MPSM from
// the merge kernel, the hash joins from their probe loop — so every algorithm
// must report every match of an inner join as batched.
func TestColumnarBatchCounters(t *testing.T) {
	r := GenerateUniform("R", 1000, 207)
	s := GenerateForeignKey("S", r, 4000, 208)
	engine := New(WithWorkers(4))

	for _, alg := range allAlgorithms {
		res, err := engine.Join(context.Background(), r, s, WithAlgorithm(alg))
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if res.Matches == 0 {
			t.Fatalf("%v: no matches, test dataset is broken", alg)
		}
		if res.Batch.Batches == 0 || res.Batch.Tuples != res.Matches {
			t.Fatalf("%v: Batch = %+v with %d matches; want nonzero batches covering every match",
				alg, res.Batch, res.Matches)
		}
	}
}

// TestKindsReportBatchTraffic: the outer, semi and anti joins run on the
// inner join's column runs and kernel, so their output — the classification
// entries against the null run included — crosses the sink boundary in range
// batches too, and the default sink folds all of it: every match is a batched
// one, and the counts are the oracle's.
func TestKindsReportBatchTraffic(t *testing.T) {
	r := GenerateSkewedWithDomain("R", 500, 2000, SkewNone, 209)
	s := GenerateSkewedWithDomain("S", 1500, 2000, SkewNone, 210)
	engine := New(WithWorkers(3))

	for _, kind := range []JoinKind{LeftOuterJoin, SemiJoin, AntiJoin} {
		var want mergejoin.MaxAggregate
		for _, p := range oraclePairs(kind, r, s) {
			want.Consume(p.R, p.S)
		}
		for _, alg := range []Algorithm{BMPSM, PMPSM} {
			res, err := engine.Join(context.Background(), r, s, WithAlgorithm(alg), WithKind(kind))
			if err != nil {
				t.Fatalf("%v/%v: %v", alg, kind, err)
			}
			if res.Matches != want.Count || res.MaxSum != want.Max {
				t.Fatalf("%v/%v: (matches, maxSum) = (%d, %d), oracle (%d, %d)",
					alg, kind, res.Matches, res.MaxSum, want.Count, want.Max)
			}
			if res.Batch.Batches == 0 || res.Batch.Tuples != res.Matches {
				t.Fatalf("%v/%v: Batch = %+v with %d matches; want every match batched",
					alg, kind, res.Batch, res.Matches)
			}
		}
	}
}

// TestBandJoinsAlwaysRunColumnar: every match of a band join flows through
// the batch boundary under both schedulers, and the result is the brute-force
// band join's.
func TestBandJoinsAlwaysRunColumnar(t *testing.T) {
	r := GenerateSkewedWithDomain("R", 500, 2000, SkewNone, 209)
	s := GenerateSkewedWithDomain("S", 1500, 2000, SkewNone, 210)
	const band = 3
	var want uint64
	for _, rt := range r.Tuples {
		for _, st := range s.Tuples {
			if rt.Key <= st.Key+band && st.Key <= rt.Key+band {
				want++
			}
		}
	}
	engine := New(WithWorkers(3))
	for _, alg := range []Algorithm{BMPSM, PMPSM} {
		for _, sched := range []Scheduler{Static, Morsel} {
			res, err := engine.Join(context.Background(), r, s,
				WithAlgorithm(alg), WithScheduler(sched), WithBandWidth(band))
			if err != nil {
				t.Fatalf("%v/%v: %v", alg, sched, err)
			}
			if res.Matches != want || res.Batch.Batches == 0 || res.Batch.Tuples != want {
				t.Fatalf("%v/%v: %d matches in batches %+v, brute force finds %d",
					alg, sched, res.Matches, res.Batch, want)
			}
		}
	}
}
