package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the traced run. Start and End are nanoseconds
// since the recorder was created; Parent is the index of the span that caused
// this one (noParent for a root); spans of one request share Request.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Request int    `json:"request_id"`
}

const noParent = -1

// recorder keeps the spans of a traced run in memory until the workload ends.
// Spans are recorded by the benchmark around its calls into the program's
// public functions (and around its own HTTP requests); nothing inside the
// program is instrumented. A nil *recorder records nothing, which is how the
// untraced run — the one the end-to-end numbers come from — runs.
type recorder struct {
	mu       sync.Mutex
	epoch    time.Time
	spans    []span
	requests int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// nextRequest allots a request identifier.
func (r *recorder) nextRequest() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.requests++
	return r.requests
}

// begin opens a span now and returns its index.
func (r *recorder) begin(name string, parent, request int) int {
	if r == nil {
		return noParent
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.epoch)), Parent: parent, Request: request})
	return len(r.spans) - 1
}

// end closes a span opened by begin.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = int64(time.Since(r.epoch))
}

// selfTimes derives every span's self time: its duration minus the part of
// its interval that its child spans cover (overlapping children are counted
// once).
func (r *recorder) selfTimes() []int64 {
	children := make(map[int][]span)
	for _, s := range r.spans {
		if s.Parent != noParent {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(r.spans))
	for i, s := range r.spans {
		self[i] = s.End - s.Start - covered(children[i], s.Start, s.End)
	}
	return self
}

// covered is the length of the union of the spans' intervals within [lo, hi].
func covered(spans []span, lo, hi int64) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total int64
	at := lo
	for _, s := range spans {
		start, end := max(s.Start, at), min(s.End, hi)
		if end > start {
			total += end - start
			at = end
		}
	}
	return total
}

// unattributedShare is the median, over the requests whose root span is named
// root, of the share of the request that no leaf span accounts for: the self
// time of every span that has children. A leaf is a call the benchmark could
// wrap or a phase the program reports; what is left over is time inside the
// wrapped calls that only tracing inside the program could break down.
func (r *recorder) unattributedShare(root string) float64 {
	self := r.selfTimes()
	inner := make([]bool, len(r.spans))
	for _, s := range r.spans {
		if s.Parent != noParent {
			inner[s.Parent] = true
		}
	}
	opaque := make(map[int]int64) // request → self time of its inner spans
	for i, s := range r.spans {
		if inner[i] {
			opaque[s.Request] += self[i]
		}
	}
	var shares []float64
	for i, s := range r.spans {
		if s.Name == root && s.Parent == noParent && inner[i] && s.End > s.Start {
			shares = append(shares, float64(opaque[s.Request])/float64(s.End-s.Start))
		}
	}
	return median(shares)
}

// selfByName sums self time per span name, for the printed table.
func (r *recorder) selfByName() map[string]time.Duration {
	out := make(map[string]time.Duration)
	for i, d := range r.selfTimes() {
		out[r.spans[i].Name] += time.Duration(d)
	}
	return out
}

// write stores the spans as JSON.
func (r *recorder) write(path string) error {
	data, err := json.Marshal(r.spans)
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
