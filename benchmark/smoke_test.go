package main

import (
	"context"
	"regexp"
	"runtime"
	"sync"
	"testing"
	"time"
)

var (
	smokeOnce sync.Once
	smokeCfg  config
	smokeErr  error
)

// smokeConfig builds the daemon once for all smoke tests: tiny relations and
// one-second windows. The tests assert which metrics come out and that every
// answer is right — never how long anything took.
func smokeConfig(t *testing.T) config {
	t.Helper()
	smokeOnce.Do(func() {
		smokeCfg = config{seed: 1, window: time.Second, sizes: quickSizes, nproc: runtime.NumCPU()}
		smokeErr = smokeCfg.prepare(context.Background())
	})
	if smokeErr != nil {
		t.Fatal(smokeErr)
	}
	return smokeCfg
}

func TestSmokeEveryMetricOnEveryWorkload(t *testing.T) {
	c := readContract(t)
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, traced := range []bool{false, true} {
		cfg := smokeConfig(t)
		cfg.trace = traced
		want := c.EndToEnd
		if traced {
			want = c.PerLayer
		}
		for _, w := range c.Workloads {
			res, err := runWorkload(context.Background(), cfg, w.Name)
			if err != nil {
				t.Fatalf("%s (traced=%v): %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (traced=%v): %d of %d requests failed: %v", w.Name, traced, res.Failed, res.Attempted, res.firstFailure)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (traced=%v): %d metrics reported, the contract names %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || !name.MatchString(m.Name) {
					t.Errorf("%s (traced=%v): metric %s reported as %+v (present: %v)", w.Name, traced, m.Name, got, ok)
				}
				if got.Value != got.Value { // NaN
					t.Errorf("%s (traced=%v): metric %s has no value", w.Name, traced, m.Name)
				}
			}
		}
	}
}

// A wrong expectation in the oracle must fail the run, whichever request
// trips over it first.
func TestCorruptedOracleFailsTheRun(t *testing.T) {
	cfg := smokeConfig(t)
	for _, name := range []string{"join_large", "query_mix"} {
		w, err := buildWorkload(name, cfg.seed, cfg.sizes, cfg.nproc)
		if err != nil {
			t.Fatal(err)
		}
		// Corrupt what the first request of the window expects. Requests
		// with the same text share the expectation, so the warm-up may
		// already trip over it; then the run does not even start.
		if req := w.request(0, warmupRequests); req.join != nil {
			req.join.matches++
		} else {
			req.query.rows++
		}
		res, err := measure(context.Background(), cfg, w)
		if err == nil && (res.Correct || res.Failed == 0 || summarize([]*runResult{res}, false).Correct) {
			t.Errorf("%s: a corrupted expectation went unnoticed: %+v", name, res)
		}
	}
}
