package planner

import (
	"context"
	"fmt"
	"math"
	"os"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/memory"
	"repro/internal/workload"
)

// ladderRungs are the private-input sizes of the worker ladder; the public
// input holds four foreign keys per private tuple and the join runs into the
// max-sum sink. The first rung is short_concurrent's join, the third
// query_mix's, the last join_large's.
var ladderRungs = []int{4096, 16384, 65536, 131072, 262144, 524288}

var ladderAlgorithms = []exec.Algorithm{exec.AlgorithmPMPSM, exec.AlgorithmBMPSM, exec.AlgorithmWisconsin, exec.AlgorithmRadix}

// ladderMeasured is the committed table the parallel terms of the cost model
// were read from: how much faster each rung runs on two workers than on one,
// per algorithm, on the reference sandbox (2 vCPUs, pooled, interleaved,
// medians of 15). The first reading of P-MPSM and of Wisconsin is ISSUE 24's,
// taken at commit d1768b7; the others are two runs of TestWorkerLadderMeasured
// at this change, after four seconds of two-worker load (a process on this host gets
// its second core at full speed only then: without the warm-up the first
// three rungs read 0.70–0.83 for every algorithm).
var ladderMeasured = map[exec.Algorithm][][]float64{
	exec.AlgorithmPMPSM: {
		{0.69, 1.15, 1.53, 1.63, 1.67, 1.71},
		{0.76, 1.14, 1.30, 1.52, 1.68, 1.69},
		{0.75, 1.12, 1.35, 1.59, 1.73, 1.75},
	},
	exec.AlgorithmBMPSM: {
		{0.87, 1.04, 1.24, 1.29, 1.43, 1.57},
		{0.85, 1.05, 1.30, 1.38, 1.52, 1.60},
	},
	exec.AlgorithmWisconsin: {
		{0.63, 0.96, 1.43, 1.38, 1.59, 1.69},
		{0.73, 0.84, 1.32, 1.65, 1.77, 1.84},
		{0.76, 0.89, 1.35, 1.69, 1.85, 1.95},
	},
	exec.AlgorithmRadix: {
		{0.98, 1.32, 1.66, 1.93, 1.99, 1.99},
		{0.91, 1.30, 1.67, 1.79, 1.80, 1.82},
	},
}

// ladderInputs are the cost model's inputs for one rung: the generator's
// foreign keys hit about 98 % of the private keys, so nearly every public
// tuple finds its one partner.
func ladderInputs(n, workers int) joinInputs {
	return joinInputs{build: float64(n), probe: 4 * float64(n), matches: 4 * float64(n), groups: float64(n), workers: workers, static: true}
}

// modelledSpeedup is the cost model's time on one worker over its time on
// two, into the max-sum sink.
func modelledSpeedup(cm CostModel, alg exec.Algorithm, n int) float64 {
	return cm.Estimate(alg, ladderInputs(n, 1), maxSum) / cm.Estimate(alg, ladderInputs(n, 2), maxSum)
}

// TestWorkerLadderModel: the per-phase parallel terms reproduce the measured
// ladder — every rung of every algorithm within 0.2× of each committed
// reading, a loss on two workers at the first rung, and for P-MPSM at least
// 1.5× from 131 072 × 524 288 up. No clock: the test prices, it does not run.
func TestWorkerLadderModel(t *testing.T) {
	cm := DefaultCostModel()
	for _, alg := range ladderAlgorithms {
		for i, n := range ladderRungs {
			model := modelledSpeedup(cm, alg, n)
			for _, reading := range ladderMeasured[alg] {
				if math.Abs(model-reading[i]) > 0.2 {
					t.Errorf("%v at %d × %d: modelled %.2f× on two workers, measured %.2f×", alg, n, 4*n, model, reading[i])
				}
			}
			if i == 0 && model >= 1 {
				t.Errorf("%v at %d × %d: modelled %.2f×, but two workers are slower than one there", alg, n, 4*n, model)
			}
			if n >= 131072 && alg == exec.AlgorithmPMPSM && model < 1.5 {
				t.Errorf("%v at %d × %d: modelled %.2f×, measured at least 1.5× from this rung up", alg, n, 4*n, model)
			}
		}
	}
}

// ladderTimes are the ladder's measured times of the whole join in
// milliseconds, per algorithm on one and on two workers at every rung: one run
// of TestWorkerLadderMeasured on a 2-vCPU host whose memory is slower than the
// reference sandbox's (P-MPSM's phase 1 reads 37 ns a tuple at 2^21 tuples
// there, 25.5 on the reference sandbox).
var ladderTimes = map[exec.Algorithm][2][]float64{
	exec.AlgorithmPMPSM:     {{0.464, 3.251, 15.13, 28.53, 58.586, 109.395}, {0.717, 2.382, 8.928, 17.38, 34.003, 65.609}},
	exec.AlgorithmBMPSM:     {{0.59, 3.1, 14.242, 29.158, 58.11, 112.033}, {0.469, 2.248, 9.48, 18.269, 38.499, 72.884}},
	exec.AlgorithmWisconsin: {{0.149, 0.749, 6.947, 15.286, 49.428, 106.937}, {0.168, 1.025, 4.834, 10.505, 26.758, 59.14}},
	exec.AlgorithmRadix:     {{0.359, 1.606, 6.762, 18.472, 37.884, 73.472}, {0.308, 0.937, 3.525, 9.635, 19.287, 38.715}},
}

// TestWorkerLadderModelTimes keeps the model's absolute figures from drifting
// unnoticed: its time of every algorithm over the committed ladderTimes, the
// median over the rungs on one and two workers, stays within 0.25–1.25, and
// no algorithm's median is more than 2.5 times another's. The per-access
// constants price the merge's and the hash probes' accesses below the clock
// (CostModel), so the medians read 0.60 (P-MPSM), 0.58 (B-MPSM), 0.30
// (Wisconsin) and 0.67 (Radix HJ); the model's costs order candidates and
// worker counts, and est_ms is that price, not a forecast of the clock.
func TestWorkerLadderModelTimes(t *testing.T) {
	cm := DefaultCostModel()
	lo, hi := math.Inf(1), 0.0
	for _, alg := range ladderAlgorithms {
		var ratios []float64
		for w, times := range ladderTimes[alg] {
			for i, n := range ladderRungs {
				ratios = append(ratios, cm.Estimate(alg, ladderInputs(n, w+1), maxSum)/1e6/times[i])
			}
		}
		sort.Float64s(ratios)
		median := (ratios[len(ratios)/2-1] + ratios[len(ratios)/2]) / 2
		if median < 0.25 || median > 1.25 {
			t.Errorf("%v: modelled over measured time %.2f in the median over the ladder, want 0.25–1.25", alg, median)
		}
		lo, hi = math.Min(lo, median), math.Max(hi, median)
	}
	if hi > 2.5*lo {
		t.Errorf("the algorithms' medians of modelled over measured time span %.2f–%.2f, more than 2.5×", lo, hi)
	}
}

// TestWorkerLadderMeasured takes the ladder itself, under MPSM_PERF_ASSERT=1
// only: every algorithm at every rung on one and on two workers, and prints
// the measured speed-up and phase times beside the modelled ones. Wall-clock
// ratios stay out of tier-1.
func TestWorkerLadderMeasured(t *testing.T) {
	if os.Getenv("MPSM_PERF_ASSERT") == "" {
		t.Skip("wall-clock measurement: runs only under MPSM_PERF_ASSERT=1")
	}
	const reps = 15
	ctx := context.Background()
	cm := DefaultCostModel()
	pool := memory.NewPool(0)
	join := func(alg exec.Algorithm, n, workers int) func() []float64 {
		r := workload.UniformRelation("R", n, workload.DefaultKeyDomain, 1)
		s := workload.ForeignKeyRelation("S", r, 4*n, 2)
		return func() []float64 {
			res, _, err := exec.Join(ctx, alg, r, s, core.Options{Workers: workers, Scratch: pool}, core.DiskOptions{})
			if err != nil {
				t.Fatal(err)
			}
			times := []float64{float64(res.Total)}
			for _, p := range res.Phases {
				times = append(times, float64(p.Duration))
			}
			return times
		}
	}
	// The sandbox gives a process its second core at full speed only after a
	// few seconds of two-thread load: warm up before reading anything.
	for warm, start := join(exec.AlgorithmPMPSM, 131072, 2), time.Now(); time.Since(start) < 4*time.Second; {
		warm()
	}
	median := func(v []float64) float64 { sort.Float64s(v); return v[len(v)/2] / 1e6 }
	for _, n := range ladderRungs {
		// samples[algorithm][workers-1][0: total, 1…: phases] over the repetitions.
		samples := make([][2][][]float64, len(ladderAlgorithms))
		runs := make([][2]func() []float64, len(ladderAlgorithms))
		for a, alg := range ladderAlgorithms {
			runs[a] = [2]func() []float64{join(alg, n, 1), join(alg, n, 2)}
		}
		for rep := 0; rep < reps+2; rep++ { // two warm-up rounds fill the pool
			for a := range ladderAlgorithms {
				for w, run := range runs[a] {
					times := run()
					if rep < 2 {
						continue
					}
					if samples[a][w] == nil {
						samples[a][w] = make([][]float64, len(times))
					}
					for k, d := range times {
						samples[a][w][k] = append(samples[a][w][k], d)
					}
				}
			}
		}
		for a, alg := range ladderAlgorithms {
			one, two := samples[a][0], samples[a][1]
			measured, model := median(one[0])/median(two[0]), modelledSpeedup(cm, alg, n)
			line := fmt.Sprintf("%7d × %7d %-9v one worker %7.3f ms (modelled %7.3f), two %7.3f (%7.3f): %.2f× (modelled %.2f×); phases",
				n, 4*n, alg, median(one[0]), cm.Estimate(alg, ladderInputs(n, 1), maxSum)/1e6,
				median(two[0]), cm.Estimate(alg, ladderInputs(n, 2), maxSum)/1e6, measured, model)
			for k := 1; k < len(one); k++ {
				line += fmt.Sprintf(" %.3f→%.3f", median(one[k]), median(two[k]))
			}
			t.Log(line)
			if math.Abs(measured-model) > 0.3 {
				t.Errorf("%v at %d × %d: measured %.2f× on two workers, modelled %.2f×", alg, n, 4*n, measured, model)
			}
		}
	}
}
