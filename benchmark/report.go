package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// environment records where and on what a report was measured.
type environment struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"mpsmd_workers"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	GitCommit  string `json:"git_commit"`
}

func readEnvironment(cfg config) environment {
	env := environment{
		Nproc: cfg.nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: cfg.nproc,
		GoVersion: runtime.Version(), CPUModel: "unknown", GitCommit: "unknown",
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	// A checkout that is not a git repository simply has no commit to name.
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = cfg.repoRoot
	if out, err := cmd.Output(); err == nil {
		env.GitCommit = strings.TrimSpace(string(out))
	}
	return env
}

func (e environment) print(out io.Writer) {
	fmt.Fprintf(out, "nproc %d, GOMAXPROCS %d, mpsmd -workers %d, %s, cpu %q, commit %s\n",
		e.Nproc, e.GOMAXPROCS, e.Workers, e.GoVersion, e.CPUModel, e.GitCommit)
}

// report is the file -out writes and -compare reads.
type report struct {
	Environment environment  `json:"environment"`
	Seed        uint64       `json:"seed"`
	Seconds     float64      `json:"seconds"`
	Traced      bool         `json:"traced"`
	Runs        []*runResult `json:"runs"`
}

func writeReport(path string, env environment, cfg config, runs []*runResult) error {
	data, err := json.MarshalIndent(report{env, cfg.seed, cfg.window.Seconds(), cfg.trace, runs}, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding report: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing report: %w", err)
	}
	return nil
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := new(report)
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// values collects one metric's value from every run of one workload.
func (r *report) values(workload, metric string) []float64 {
	var vs []float64
	for _, run := range r.Runs {
		if m, ok := run.Metrics[metric]; ok && run.Workload == workload {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

// compareFiles prints, per workload and end-to-end metric, both sides' median
// and quartiles, how much worse B is than A relative to A, the metric's bound
// and a verdict: `regressed` when B is worse by more than the bound,
// `unresolved` when either side's own spread (quartile distance ÷ median) is
// wider than the bound, so the comparison cannot tell, and `ok` otherwise.
// It reports whether anything regressed.
func compareFiles(out io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := readReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "%-17s %-15s %36s %36s %8s %6s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "worse", "bound", "verdict")
	for _, wd := range workloadDefs {
		for _, def := range endToEnd {
			va, vb := a.values(wd.name, def.name), b.values(wd.name, def.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if def.better == "higher" {
				worse = -worse
			}
			sa, spreadA := describe(va)
			sb, spreadB := describe(vb)
			verdict := "ok"
			switch {
			case max(spreadA, spreadB) > def.bound:
				verdict = "unresolved"
			case worse > def.bound:
				verdict = "regressed"
				regressed = true
			}
			fmt.Fprintf(out, "%-17s %-15s %36s %36s %+7.1f%% %5.0f%%  %s\n", wd.name, def.name, sa, sb, 100*worse, 100*def.bound, verdict)
		}
	}
	return regressed, nil
}

// describe renders a sample as "median [q1, q3]" and returns its spread, the
// quartile distance as a share of the median; one value has no spread.
func describe(values []float64) (string, float64) {
	m := median(values)
	if len(values) < 2 {
		return fmt.Sprintf("%.4g", m), 0
	}
	q1, q3 := quartiles(values)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", m, q1, q3), (q3 - q1) / m
}
