package bench

import (
	"bytes"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// tinyConfig keeps experiment runtime in unit tests small.
func tinyConfig() Config {
	return Config{Scale: 0.02, Workers: 4}
}

// TestRegistryContainsAllPaperFigures pins the exact registry: the paper's
// figures and claims, nothing else. Measurements of the program as a whole
// belong to the end-to-end gate (benchmark/), not to a new experiment here.
func TestRegistryContainsAllPaperFigures(t *testing.T) {
	want := []string{"ablation-partitioning", "dmpsm", "figure1", "figure12", "figure13", "figure14",
		"figure15", "figure16", "figure9", "morsel", "sort"}
	var got []string
	for _, e := range Experiments() {
		got = append(got, e.Name)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("registered experiments = %v, want exactly %v", got, want)
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, ok := Lookup("does-not-exist"); ok {
		t.Fatal("Lookup of unknown experiment succeeded")
	}
}

func TestExperimentsSortedByName(t *testing.T) {
	exps := Experiments()
	for i := 1; i < len(exps); i++ {
		if exps[i].Name < exps[i-1].Name {
			t.Fatalf("experiments not sorted: %q after %q", exps[i].Name, exps[i-1].Name)
		}
	}
}

// TestDefaultConfig: scale 1 on GOMAXPROCS workers, whatever the
// environment says — -scale and -workers are the only knobs.
func TestDefaultConfig(t *testing.T) {
	t.Setenv("MPSM_SCALE", "0.5")
	t.Setenv("MPSM_WORKERS", "3")
	if cfg := DefaultConfig(); cfg.Scale != 1.0 || cfg.Workers != runtime.GOMAXPROCS(0) {
		t.Fatalf("DefaultConfig = %+v, want scale 1 on GOMAXPROCS workers", cfg)
	}
}

func TestConfigRSize(t *testing.T) {
	if got := (Config{Scale: 1.0}).RSize(); got != baseRSize {
		t.Fatalf("RSize at scale 1 = %d", got)
	}
	if got := (Config{Scale: 0.000001}).RSize(); got != 1024 {
		t.Fatalf("RSize floor = %d, want 1024", got)
	}
}

// TestEveryExperimentRuns executes every registered experiment at a tiny scale
// and checks that it produces non-empty tabular output without errors.
func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are too slow for -short")
	}
	for _, e := range Experiments() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(tinyConfig(), &buf); err != nil {
				t.Fatalf("experiment failed: %v", err)
			}
			out := buf.String()
			if len(strings.TrimSpace(out)) == 0 {
				t.Fatal("experiment produced no output")
			}
			if !strings.Contains(out, "ms") && !strings.Contains(out, "[ms]") {
				t.Fatalf("experiment output does not look like a timing table:\n%s", out)
			}
		})
	}
}

func TestRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are too slow for -short")
	}
	var buf bytes.Buffer
	if err := RunAll(Config{Scale: 0.01, Workers: 2}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, e := range Experiments() {
		if !strings.Contains(buf.String(), e.Name) {
			t.Fatalf("RunAll output missing experiment %q", e.Name)
		}
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration should panic")
		}
	}()
	register(Experiment{Name: "figure12", Title: "dup", Run: nil})
}

func TestMsFormatting(t *testing.T) {
	if got := ms(1500 * 1000); got != "1.50" { // 1.5ms in nanoseconds
		t.Fatalf("ms(1.5ms) = %q", got)
	}
}

func TestLog2Helper(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 1, 4: 2, 2048: 11}
	for n, want := range cases {
		if got := log2(n); got != want {
			t.Errorf("log2(%d) = %d, want %d", n, got, want)
		}
	}
}
