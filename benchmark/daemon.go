package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	healthDeadline = 15 * time.Second // daemon start → /healthz OK
	drainDeadline  = 15 * time.Second // SIGTERM → process exit
	requestTimeout = 60 * time.Second // any one HTTP request
)

// buildDaemon compiles cmd/mpsmd from the repository the benchmark sits in
// and returns how long the build took.
func buildDaemon(ctx context.Context, repoRoot, bin string) (time.Duration, error) {
	start := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/mpsmd")
	cmd.Dir = repoRoot
	if out, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("building cmd/mpsmd: %v\n%s", err, out)
	}
	return time.Since(start), nil
}

// daemon is one running mpsmd subprocess.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	http   *http.Client
	output bytes.Buffer // stdout and stderr; read only after the process ended
}

// startDaemon launches mpsmd on a free loopback port and waits for /healthz.
// On failure the process is gone and the error carries its output. Cancelling
// ctx kills the daemon, so that an interrupted benchmark leaves none behind.
func startDaemon(ctx context.Context, bin string, workers int) (*daemon, error) {
	// Pick the port by binding :0 and releasing it; mpsmd takes an address,
	// not a listener, so the small window before it binds is unavoidable.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("finding a free port: %w", err)
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		return nil, fmt.Errorf("releasing the probe listener: %w", err)
	}

	d := &daemon{base: "http://" + addr, http: &http.Client{Timeout: requestTimeout}}
	d.cmd = exec.CommandContext(ctx, bin, "-addr", addr, "-workers", strconv.Itoa(workers), "-pool", "-auto")
	d.cmd.Stdout, d.cmd.Stderr = &d.output, &d.output
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting mpsmd: %w", err)
	}
	deadline := time.Now().Add(healthDeadline)
	for {
		resp, err := d.http.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained only to reuse the connection
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("mpsmd not healthy after %v (last error: %v)\n%s", healthDeadline, err, d.output.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// kill ends the process without ceremony and reaps it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already exited is fine
	_ = d.cmd.Wait()         // the exit status of a killed process says nothing
	d.http.CloseIdleConnections()
}

// stop reads the daemon's peak resident set, asks it to drain with SIGTERM
// and waits for it to exit; a daemon that does not drain in time is killed
// and reported.
func (d *daemon) stop() (peakRSSMB float64, err error) {
	peakRSSMB, rssErr := d.peakRSSMB()
	d.http.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return 0, fmt.Errorf("signalling mpsmd: %v\n%s", err, d.output.String())
	}
	exited := make(chan error, 1)
	go func() { exited <- d.cmd.Wait() }()
	select {
	case err := <-exited:
		if err != nil || !strings.Contains(d.output.String(), "mpsmd: drained") {
			return 0, fmt.Errorf("mpsmd did not drain cleanly (%v)\n%s", err, d.output.String())
		}
	case <-time.After(drainDeadline):
		_ = d.cmd.Process.Kill() // Wait above reaps it
		<-exited
		return 0, fmt.Errorf("mpsmd still running %v after SIGTERM; killed\n%s", drainDeadline, d.output.String())
	}
	return peakRSSMB, rssErr
}

// peakRSSMB reads VmHWM, the kernel's high-water mark of the resident set.
func (d *daemon) peakRSSMB() (float64, error) {
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/%d/status", d.cmd.Process.Pid)
}

// post sends one JSON body and returns the status and the whole response.
func (d *daemon) post(path string, body []byte) (int, []byte, error) {
	resp, err := d.http.Post(d.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// upload registers one relation from its explicit tuples.
func (d *daemon) upload(in *input) error {
	status, body, err := d.post("/v1/relations", in.body)
	if err != nil {
		return fmt.Errorf("uploading %s: %w", in.name, err)
	}
	if status != http.StatusCreated {
		return fmt.Errorf("uploading %s: HTTP %d: %s", in.name, status, body)
	}
	return nil
}

// serviceStats is the part of GET /v1/stats the benchmark reads.
type serviceStats struct {
	Admission   struct{ Admitted, Queued uint64 }
	PlanCache   struct{ Hits, Misses uint64 }
	Memory      struct{ Hits, Misses uint64 }
	Degradation struct{ NarrowedQueries uint64 }
}

// since turns two snapshots into the counts of the time between them.
func (s serviceStats) since(before serviceStats) serviceStats {
	s.Admission.Admitted -= before.Admission.Admitted
	s.Admission.Queued -= before.Admission.Queued
	s.PlanCache.Hits -= before.PlanCache.Hits
	s.PlanCache.Misses -= before.PlanCache.Misses
	s.Memory.Hits -= before.Memory.Hits
	s.Memory.Misses -= before.Memory.Misses
	s.Degradation.NarrowedQueries -= before.Degradation.NarrowedQueries
	return s
}

func (d *daemon) stats() (serviceStats, error) {
	var st serviceStats
	resp, err := d.http.Get(d.base + "/v1/stats")
	if err != nil {
		return st, fmt.Errorf("reading /v1/stats: %w", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	return st, nil
}
