package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// tinyConfig keeps experiment runtime in unit tests small.
func tinyConfig() Config {
	return Config{Scale: 0.02, Workers: 4}
}

func TestRegistryContainsAllPaperFigures(t *testing.T) {
	want := []string{"figure1", "figure9", "figure12", "figure13", "figure14", "figure15", "figure16",
		"sort", "ablation-partitioning", "dmpsm", "morsel", "steadystate", "plan", "planner"}
	for _, name := range want {
		if _, ok := Lookup(name); !ok {
			t.Errorf("experiment %q not registered", name)
		}
	}
	if len(Experiments()) < len(want) {
		t.Fatalf("registry has %d experiments, want at least %d", len(Experiments()), len(want))
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

func TestDefaultConfig(t *testing.T) {
	t.Setenv("MPSM_SCALE", "0.5")
	t.Setenv("MPSM_WORKERS", "3")
	cfg := DefaultConfig()
	if cfg.Scale != 0.5 || cfg.Workers != 3 {
		t.Fatalf("DefaultConfig = %+v", cfg)
	}
	t.Setenv("MPSM_SCALE", "not-a-number")
	t.Setenv("MPSM_WORKERS", "-2")
	cfg = DefaultConfig()
	if cfg.Scale != 1.0 || cfg.Workers <= 0 {
		t.Fatalf("DefaultConfig with bad env = %+v", cfg)
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

// TestRunReportJSON locks in the machine-readable report: every algorithm
// appears once per scheduling mode, the JSON round-trips, and the scheduler
// modes agree on every algorithm's match count.
func TestRunReportJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("the report runs every algorithm twice")
	}
	rep, err := RunReport(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 10 {
		t.Fatalf("report has %d results, want 10 (5 algorithms x 2 schedulers)", len(rep.Results))
	}
	matchesByAlg := map[string]map[string]uint64{}
	for _, r := range rep.Results {
		if r.TotalMillis <= 0 || len(r.Phases) == 0 {
			t.Fatalf("result %s/%s missing timings: %+v", r.Algorithm, r.Scheduler, r)
		}
		if matchesByAlg[r.Algorithm] == nil {
			matchesByAlg[r.Algorithm] = map[string]uint64{}
		}
		matchesByAlg[r.Algorithm][r.Scheduler] = r.Matches
	}
	for alg, bySched := range matchesByAlg {
		if len(bySched) != 2 {
			t.Fatalf("algorithm %s ran under %d schedulers, want 2", alg, len(bySched))
		}
		if bySched["static"] != bySched["morsel"] {
			t.Fatalf("algorithm %s: static %d matches, morsel %d", alg, bySched["static"], bySched["morsel"])
		}
	}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded Report
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if len(decoded.Results) != len(rep.Results) {
		t.Fatalf("decoded %d results, want %d", len(decoded.Results), len(rep.Results))
	}
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

// perfAssert reports whether the report tests assert wall-clock ratios. They
// do only under MPSM_PERF_ASSERT=1, which the CI bench job sets on steps that
// have the machine to themselves: `go test ./...` runs packages side by side
// on shared runners, where a ratio of two timings can land anywhere, and
// tier-1 must never fail on wall-clock noise. Without it the tests check what
// is deterministic — report shape, estimates, the planner's choices.
func perfAssert() bool { return os.Getenv("MPSM_PERF_ASSERT") != "" }

// TestSteadyStateJSONReport locks in the machine-readable steady-state
// report: both pool settings appear, the pooled run reuses buffers, the byte
// reduction is substantial even at tiny scale, and the JSON round-trips.
func TestSteadyStateJSONReport(t *testing.T) {
	if testing.Short() {
		t.Skip("the steady-state report runs dozens of joins")
	}
	rep, err := buildSteadyStateReport(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 2 || rep.Runs[0].Pool || !rep.Runs[1].Pool {
		t.Fatalf("runs = %+v, want pool off then on", rep.Runs)
	}
	if rep.Runs[1].ScratchReused == 0 {
		t.Fatal("warm pooled run reused no scratch buffers")
	}
	if rep.AllocBytesReduction < 0.5 {
		t.Fatalf("alloc byte reduction %.2f, want >= 0.5 even at tiny scale", rep.AllocBytesReduction)
	}
	var buf bytes.Buffer
	if err := WriteAnyJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	var decoded SteadyStateReport
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("steady-state JSON does not round-trip: %v", err)
	}
	if decoded.Joins != rep.Joins || len(decoded.Runs) != 2 {
		t.Fatalf("decoded report = %+v", decoded)
	}
}

// TestSortJSONReport locks in the machine-readable sort report: every
// routine appears on every input, the host is recorded, and the multi-level
// rewrite beats the retained one-level baseline on the 1M-tuple acceptance
// workload. The default run checks the report's shape; the ≥1.3x acceptance
// ratio is asserted only under MPSM_PERF_ASSERT=1, as the CI bench job does
// on an otherwise idle step.
func TestSortJSONReport(t *testing.T) {
	if testing.Short() {
		t.Skip("the sort report sorts 1M tuples repeatedly")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts the speedup ratios the test asserts")
	}
	rep, err := sortJSON(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	sr := rep.(*SortReport)
	if sr.GoMaxProcs < 1 || sr.NumCPU < 1 || sr.Workers != 1 {
		t.Fatalf("sort report does not record its host: %+v", sr)
	}
	byName := map[string]SortTiming{}
	for _, r := range sr.Results {
		if r.NsPerOp <= 0 || r.NsPerTuple <= 0 {
			t.Fatalf("sort report has an empty timing: %+v", r)
		}
		if r.Input == "uniform32" {
			byName[r.Routine] = r
		}
	}
	if len(sr.Results) != len(sortRoutines)*len(sortInputs) || len(byName) != len(sortRoutines) {
		t.Fatalf("sort report has %d timings, want every routine on every input: %+v", len(sr.Results), sr.Results)
	}
	if !perfAssert() {
		return // tier-1 checks shape and choice quality only; see perfAssert
	}
	if s := byName["multi-level"].SpeedupVsOneLev; s < 1.3 {
		t.Fatalf("multi-level speedup over one-level = %.2fx, want >= 1.30x", s)
	}
	if s, m := byName["sort-into"].SpeedupVsOneLev, byName["multi-level"].SpeedupVsOneLev; s < m {
		t.Fatalf("sort-into (%.2fx) should not be slower than multi-level (%.2fx)", s, m)
	}
}
