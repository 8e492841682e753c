package mpsm

import (
	"context"
	"fmt"
	"testing"
)

// TestColumnarRowParityAllAlgorithms is the differential gate for the
// columnar batch path: every algorithm, under both schedulers and with the
// scratch pool on and off, must materialize the exact multiset of pairs the
// row-at-a-time path produces, for the default batch size and a small odd
// batch size that forces frequent flushes. The adversarial distributions
// (uniform, low-skew, high-skew over a narrow domain) provoke heavy
// duplicate-key cross products.
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
			// Row-path baseline per algorithm, shared across schedulers and
			// batch sizes.
			for _, alg := range allAlgorithms {
				rowMat := NewMaterializeSink()
				rowRes, err := engine.Join(context.Background(), ds.r, ds.s,
					WithAlgorithm(alg), WithBatchSize(-1), WithSink(rowMat))
				if err != nil {
					t.Fatalf("%s/%v row baseline: %v", ds.name, alg, err)
				}
				want := append([]Pair(nil), rowMat.Pairs()...)
				sortPairs(want)

				for _, sched := range []Scheduler{Static, Morsel} {
					for _, batchSize := range []int{0, 33} {
						name := fmt.Sprintf("%s/%v/pool=%v/sched=%v/batch=%d",
							ds.name, alg, pool, sched, batchSize)
						mat := NewMaterializeSink()
						res, err := engine.Join(context.Background(), ds.r, ds.s,
							WithAlgorithm(alg), WithScheduler(sched),
							WithBatchSize(batchSize), WithSink(mat))
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if res.Matches != rowRes.Matches || res.MaxSum != rowRes.MaxSum {
							t.Fatalf("%s: (matches, maxSum) = (%d, %d), row path (%d, %d)",
								name, res.Matches, res.MaxSum, rowRes.Matches, rowRes.MaxSum)
						}
						got := append([]Pair(nil), mat.Pairs()...)
						sortPairs(got)
						if len(got) != len(want) {
							t.Fatalf("%s: %d pairs, row path %d", name, len(got), len(want))
						}
						for i := range got {
							if got[i] != want[i] {
								t.Fatalf("%s: pair %d = %+v, row path %+v", name, i, got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestColumnarBatchCounters pins when Result.Batch reports traffic: the
// columnar-eligible algorithms (B-MPSM, P-MPSM and the hash joins, which
// always batch their probe output) must report it, and WithBatchSize(-1)
// must silence it for the MPSM algorithms by falling back to the row path.
func TestColumnarBatchCounters(t *testing.T) {
	r := GenerateUniform("R", 1000, 207)
	s := GenerateForeignKey("S", r, 4000, 208)
	engine := New(WithWorkers(4))

	for _, alg := range []Algorithm{BMPSM, PMPSM, Wisconsin, RadixHash} {
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

	for _, alg := range []Algorithm{BMPSM, PMPSM} {
		res, err := engine.Join(context.Background(), r, s, WithAlgorithm(alg), WithBatchSize(-1))
		if err != nil {
			t.Fatalf("%v row: %v", alg, err)
		}
		if res.Batch.Batches != 0 || res.Batch.Tuples != 0 {
			t.Fatalf("%v: WithBatchSize(-1) still reported batch traffic %+v", alg, res.Batch)
		}
	}
}

// TestColumnarIneligibleFallsBackToRows verifies the eligibility guard:
// non-inner kinds must run the row kernels (no batch traffic) and still
// produce correct results against the row baseline.
func TestColumnarIneligibleFallsBackToRows(t *testing.T) {
	r := GenerateSkewedWithDomain("R", 500, 2000, SkewNone, 209)
	s := GenerateSkewedWithDomain("S", 1500, 2000, SkewNone, 210)
	engine := New(WithWorkers(3))

	cases := []struct {
		name string
		opts []Option
	}{
		{"left-outer", []Option{WithKind(LeftOuterJoin)}},
		{"semi", []Option{WithKind(SemiJoin)}},
		{"anti", []Option{WithKind(AntiJoin)}},
	}
	for _, alg := range []Algorithm{BMPSM, PMPSM} {
		for _, tc := range cases {
			base, err := engine.Join(context.Background(), r, s,
				append([]Option{WithAlgorithm(alg), WithBatchSize(-1)}, tc.opts...)...)
			if err != nil {
				t.Fatalf("%v/%s row: %v", alg, tc.name, err)
			}
			res, err := engine.Join(context.Background(), r, s,
				append([]Option{WithAlgorithm(alg), WithBatchSize(4096)}, tc.opts...)...)
			if err != nil {
				t.Fatalf("%v/%s: %v", alg, tc.name, err)
			}
			if res.Batch.Batches != 0 {
				t.Fatalf("%v/%s: ineligible join reported batch traffic %+v", alg, tc.name, res.Batch)
			}
			if res.Matches != base.Matches || res.MaxSum != base.MaxSum {
				t.Fatalf("%v/%s: (matches, maxSum) = (%d, %d), row path (%d, %d)",
					alg, tc.name, res.Matches, res.MaxSum, base.Matches, base.MaxSum)
			}
		}
	}
}

// TestBandJoinsAlwaysRunColumnar: a band join has no row path left to fall
// back to — WithBatchSize(-1), which keeps an equi-join on the row kernels,
// changes nothing for it. Every match flows through the batch boundary under
// both schedulers, and the result is the brute-force band join's.
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
			for _, batchSize := range []int{-1, 0, 5} {
				res, err := engine.Join(context.Background(), r, s,
					WithAlgorithm(alg), WithScheduler(sched), WithBandWidth(band), WithBatchSize(batchSize))
				if err != nil {
					t.Fatalf("%v/%v/batch=%d: %v", alg, sched, batchSize, err)
				}
				if res.Matches != want || res.Batch.Batches == 0 || res.Batch.Tuples != want {
					t.Fatalf("%v/%v/batch=%d: %d matches in batches %+v, brute force finds %d",
						alg, sched, batchSize, res.Matches, res.Batch, want)
				}
			}
		}
	}
}
