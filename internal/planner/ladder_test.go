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
