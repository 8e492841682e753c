package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// contract is ../BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []contractMetric `json:"end_to_end"`
	PerLayer   []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name, Unit, Better string
	Bound              float64
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	return c
}

// BENCHMARK.json and the benchmark's own tables must say the same.
func TestContractMatchesTables(t *testing.T) {
	c := readContract(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(c.Workloads) != len(workloadDefs) {
		t.Fatalf("contract lists %d workloads, the benchmark has %d", len(c.Workloads), len(workloadDefs))
	}
	for i, w := range c.Workloads {
		if w.Name != workloadDefs[i].name || w.Why != workloadDefs[i].why {
			t.Errorf("workload %d: contract says %q (%q), the benchmark %q (%q)", i, w.Name, w.Why, workloadDefs[i].name, workloadDefs[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") || !name.MatchString(w.Name) {
			t.Errorf("workload %q breaks the contract's limits", w.Name)
		}
	}

	check := func(kind string, got []contractMetric, want []metricDef, limit int) {
		if len(got) != len(want) || len(got) > limit {
			t.Fatalf("%s: contract lists %d metrics, the benchmark %d, the limit is %d", kind, len(got), len(want), limit)
		}
		for i, m := range got {
			w := want[i]
			if m.Name != w.name || m.Unit != w.unit || m.Better != w.better || m.Bound != w.bound {
				t.Errorf("%s metric %d: contract says %+v, the benchmark %+v", kind, i, m, w)
			}
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || m.Bound > 0.25 {
				t.Errorf("%s metric %q breaks the contract's limits", kind, m.Name)
			}
		}
	}
	check("end-to-end", c.EndToEnd, endToEnd, 16)
	check("per-layer", c.PerLayer, perLayer, 128)
	if c.EndToEnd[0].Name != "setup_s" || c.EndToEnd[0].Unit != "s" || c.EndToEnd[0].Better != "lower" {
		t.Error("the contract requires a setup_s metric in seconds, lower is better")
	}
}

func TestQuartilesFollowPython(t *testing.T) {
	// statistics.quantiles([...], n=4) of these samples.
	for _, c := range []struct {
		values []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 30, 20}, 10, 30},
		{[]float64{4, 1}, 0.25, 4.75},
		{[]float64{5, 1, 9, 3, 7}, 2, 8},
	} {
		q1, q3 := quartiles(c.values)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", c.values, q1, q3, c.q1, c.q3)
		}
	}
	if got := percentile([]float64{4, 1, 3, 2}, 0.5); got != 2.5 {
		t.Errorf("median of 1..4 = %v", got)
	}
}

func TestRelativeLatency(t *testing.T) {
	ms := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	// One class: the plain median of round trip ÷ calibration.
	one := []sample{{"join", ms(10), 0, "", 10}, {"join", ms(60), 0, "", 20}, {"join", ms(20), 0, "", 10}}
	if got := relativeLatency(one); math.Abs(got-2) > 1e-12 {
		t.Errorf("one class: %v, want the median of 1, 3 and 2", got)
	}
	// Two classes with medians 2 and 8: their geometric mean, however many
	// samples each class has.
	two := append(one, sample{"band", ms(80), 0, "", 10})
	if got := relativeLatency(two); math.Abs(got-4) > 1e-12 {
		t.Errorf("two classes: %v, want sqrt(2·8)", got)
	}
}

func TestCalibrationSortSorts(t *testing.T) {
	g := newRNG(1)
	src := make([]calTuple, 1<<12)
	for i := range src {
		src[i] = calTuple{key: g.next() >> 32, payload: 1}
	}
	first := src[0]
	a, b := make([]calTuple, len(src)), make([]calTuple, len(src))
	sortAndScan(src, a, b)
	for i := 1; i < len(b); i++ {
		if b[i-1].key > b[i].key {
			t.Fatalf("the sorted run is out of order at %d", i)
		}
	}
	if src[0] != first {
		t.Error("the input was sorted in place; the next calibration would sort sorted data")
	}
}

func TestSelfTime(t *testing.T) {
	r := newRecorder()
	r.spans = []span{
		{Name: "request", Start: 0, End: 100, Parent: noParent, Request: 1},
		{Name: "call", Start: 10, End: 90, Parent: 0, Request: 1},
		{Name: "phase a", Start: 20, End: 50, Parent: 1, Request: 1},
		{Name: "phase b", Start: 40, End: 80, Parent: 1, Request: 1}, // overlaps phase a
		{Name: "request", Start: 200, End: 300, Parent: noParent, Request: 2},
		{Name: "call", Start: 200, End: 300, Parent: 4, Request: 2},
	}
	self := r.selfTimes()
	for i, want := range []int64{20, 20, 30, 40, 0, 100} {
		if self[i] != want {
			t.Errorf("self time of span %d = %d, want %d", i, self[i], want)
		}
	}
	// Request 1 leaves 20+20 of 100 to spans that have children; request 2,
	// whose call reports no phases, only the root's 0.
	if got := r.unattributedShare("request"); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("unattributed share = %v, want the median of 0.4 and 0", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(file string, p50, qps, setup []float64) string {
		rep := report{}
		for i := range p50 {
			rep.Runs = append(rep.Runs, &runResult{Workload: "join_large", Rep: i, Metrics: map[string]metricValue{
				"latency_p50_cal": {p50[i], "cal"}, "throughput_per_cal": {qps[i], "1/cal"}, "setup_s": {setup[i], "s"},
			}})
		}
		path := dir + "/" + file
		if err := writeReport(path, environment{}, config{}, rep.Runs); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", []float64{100, 101, 99}, []float64{10, 10.1, 9.9}, []float64{2, 3, 1})
	b := write("b.json", []float64{130, 131, 129}, []float64{10.5, 10.4, 10.6}, []float64{2, 3, 1})

	var out bytes.Buffer
	regressed, err := compareFiles(&out, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Error("a 30% slower median against a 25% bound is not reported as a regression")
	}
	for metric, verdict := range map[string]string{"latency_p50_cal": "regressed", "throughput_per_cal": "ok", "setup_s": "unresolved"} {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, metric) {
				found = strings.HasSuffix(line, verdict)
			}
		}
		if !found {
			t.Errorf("%s is not judged %s:\n%s", metric, verdict, out.String())
		}
	}
	if regressed, err := compareFiles(&out, a, a); err != nil || regressed {
		t.Errorf("a report against itself: regressed = %v, err = %v", regressed, err)
	}
}
