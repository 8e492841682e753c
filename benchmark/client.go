package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	mpsm "repro"
)

// joinResponse and queryResponse are the parts of mpsmd's answers the
// benchmark reads.
type joinResponse struct {
	Matches     uint64  `json:"matches"`
	MaxSum      uint64  `json:"max_sum"`
	Algorithm   string  `json:"algorithm"`
	TotalMillis float64 `json:"total_millis"`
}

type queryResponse struct {
	Rows        int          `json:"rows"`
	Tuples      []mpsm.Tuple `json:"tuples"`
	TotalMillis float64      `json:"total_millis"`
}

// decodeQueryResponse parses a /v1/query answer. Answers carry up to 65 536
// tuples, and decoding them with encoding/json would cost the load generator
// several times the CPU the daemon spent producing them — on a machine the
// two share. So the tuple array is scanned by hand when it has exactly the
// layout encoding/json gives []mpsm.Tuple today; any other layout falls back
// to encoding/json, which keeps the check independent of how the daemon
// chooses to encode.
func decodeQueryResponse(body []byte) (*queryResponse, error) {
	if resp, ok := scanQueryResponse(body); ok {
		return resp, nil
	}
	resp := new(queryResponse)
	if err := json.Unmarshal(body, resp); err != nil {
		return nil, fmt.Errorf("decoding query response: %w", err)
	}
	return resp, nil
}

// scanQueryResponse is decodeQueryResponse's fast path: it lifts the tuple
// array out of the body, leaves the (small) rest to encoding/json and scans
// the array as a strict sequence of {"Key":n,"Payload":n} objects.
func scanQueryResponse(body []byte) (*queryResponse, bool) {
	const open = `,"tuples":[`
	start := bytes.Index(body, []byte(open))
	if start < 0 {
		return nil, false
	}
	p := start + len(open)
	var tuples []mpsm.Tuple
	for p < len(body) && body[p] != ']' {
		if len(tuples) > 0 {
			if body[p] != ',' {
				return nil, false
			}
			p++
		}
		var t mpsm.Tuple
		var ok bool
		if p, ok = skip(body, p, `{"Key":`); !ok {
			return nil, false
		}
		if t.Key, p, ok = scanUint(body, p); !ok {
			return nil, false
		}
		if p, ok = skip(body, p, `,"Payload":`); !ok {
			return nil, false
		}
		if t.Payload, p, ok = scanUint(body, p); !ok {
			return nil, false
		}
		if p, ok = skip(body, p, `}`); !ok {
			return nil, false
		}
		tuples = append(tuples, t)
	}
	if p >= len(body) {
		return nil, false
	}
	// What remains once the array is cut out is a small JSON object.
	rest := append(append(make([]byte, 0, start+len(body)-p), body[:start]...), body[p+1:]...)
	resp := new(queryResponse)
	if err := json.Unmarshal(rest, resp); err != nil {
		return nil, false
	}
	resp.Tuples = tuples
	return resp, true
}

func skip(b []byte, p int, lit string) (int, bool) {
	if !bytes.HasPrefix(b[p:], []byte(lit)) {
		return p, false
	}
	return p + len(lit), true
}

func scanUint(b []byte, p int) (uint64, int, bool) {
	q := p
	for q < len(b) && b[q] >= '0' && b[q] <= '9' {
		q++
	}
	v, err := strconv.ParseUint(string(b[p:q]), 10, 64)
	return v, q, err == nil
}

// sample is one request that was answered and verified.
type sample struct {
	class        string        // "join" or the query template's name
	rtt          time.Duration // client-side round trip, body fully read
	serverMillis float64       // the daemon's own total_millis
	algorithm    string        // join answers only
	calMillis    float64       // the calibration kernel's time around this request, 0 in a traced run
}

// check verifies one answer against the request's expectation.
func (r *request) check(status int, body []byte) (sample, error) {
	if status != http.StatusOK {
		return sample{}, fmt.Errorf("HTTP %d: %s", status, bytes.TrimSpace(body))
	}
	if r.join != nil {
		var resp joinResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return sample{}, fmt.Errorf("decoding join response: %w", err)
		}
		if resp.Matches != r.join.matches || (resp.Matches > 0 && resp.MaxSum != r.join.maxSum) {
			return sample{}, fmt.Errorf("matches, max_sum = %d, %d; oracle expects %d, %d",
				resp.Matches, resp.MaxSum, r.join.matches, r.join.maxSum)
		}
		return sample{serverMillis: resp.TotalMillis, algorithm: resp.Algorithm}, nil
	}
	resp, err := decodeQueryResponse(body)
	if err != nil {
		return sample{}, err
	}
	if err := r.query.check(resp, r.limit); err != nil {
		return sample{}, err
	}
	return sample{serverMillis: resp.TotalMillis}, nil
}

// loadResult is what one stretch of closed-loop load produced.
type loadResult struct {
	attempted, failed int
	samples           []sample
	elapsed           time.Duration // under load; calibrations in between do not count
	calUnits          float64       // elapsed, each slice divided by the calibration time around it
	calibrations      []float64     // every calibration made, in ms
	firstFailure      error
}

func (a *loadResult) merge(b loadResult) {
	a.attempted += b.attempted
	a.failed += b.failed
	a.samples = append(a.samples, b.samples...)
	a.elapsed += b.elapsed
	a.calUnits += b.calUnits
	a.calibrations = append(a.calibrations, b.calibrations...)
	if a.firstFailure == nil {
		a.firstFailure = b.firstFailure
	}
}

// load is a closed-loop client pool against one daemon: every client waits
// for its answer before sending its next request, as an analytic caller does.
type load struct {
	d    *daemon
	w    *workload
	next []int // per client, the position of its next request
}

func newLoad(d *daemon, w *workload) *load {
	return &load{d: d, w: w, next: make([]int, w.clients)}
}

// run drives every client for `each` requests when each > 0, and otherwise
// until `window` has passed (requests in flight then are completed and
// counted, and elapsed says how long that took). Spans go to rec when it is
// not nil.
func (l *load) run(each int, window time.Duration, rec *recorder) loadResult {
	results := make([]loadResult, l.w.clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := &results[c]
			for n := 0; ; n++ {
				if each > 0 && n == each || each <= 0 && time.Since(start) >= window {
					return
				}
				id := rec.nextRequest()
				root := rec.begin("client.request", noParent, id)
				build := rec.begin("client.build", root, id)
				req := l.w.request(c, l.next[c])
				rec.end(build)
				l.next[c]++

				trip := rec.begin("mpsmd.roundtrip", root, id)
				sent := time.Now()
				status, body, transportErr := l.d.post(req.path, req.body)
				rtt := time.Since(sent)
				rec.end(trip)

				verify := rec.begin("client.verify", root, id)
				var s sample
				err := transportErr
				if err == nil {
					s, err = req.check(status, body)
				}
				rec.end(verify)
				rec.end(root)

				res.attempted++
				if err != nil {
					res.failed++
					if res.firstFailure == nil {
						res.firstFailure = fmt.Errorf("client %d, %s request %d: %w", c, req.class, l.next[c]-1, err)
					}
					if transportErr != nil {
						return // no answer at all: the daemon is gone
					}
					continue
				}
				s.class, s.rtt = req.class, rtt
				res.samples = append(res.samples, s)
			}
		}()
	}
	wg.Wait()
	total := loadResult{}
	for _, r := range results {
		total.merge(r)
	}
	total.elapsed = time.Since(start)
	return total
}

// runCalibrated drives every client for `window`, a loadSlice at a time, and
// runs the calibration kernel before, between and after the slices, while the
// daemon is idle. Each request is paired with the mean of the two calibrations
// around its slice. The window covers load and calibrations alike.
func (l *load) runCalibrated(window time.Duration, cal *calibrator) loadResult {
	var total loadResult
	before := millis(cal.once())
	total.calibrations = append(total.calibrations, before)
	for begin := time.Now(); time.Since(begin) < window; {
		slice := l.run(0, loadSlice, nil)
		after := millis(cal.once())
		unit := (before + after) / 2
		for i := range slice.samples {
			slice.samples[i].calMillis = unit
		}
		slice.calUnits = millis(slice.elapsed) / unit
		slice.calibrations = []float64{after}
		total.merge(slice)
		before = after
	}
	return total
}

// relativeLatency is the median round trip in units of the calibration
// kernel: per request class the median of round trip ÷ calibration, and over
// the classes their geometric mean. The classes of a mix have latencies far
// apart (3 to 90 ms in query_mix), where the median of the pooled sample sits
// on the edge between two classes and jumps with the slightest shift; the
// geometric mean moves by the same share whichever class gets slower. A
// workload with one class gets the plain median.
func relativeLatency(samples []sample) float64 {
	byClass := make(map[string][]float64)
	for _, s := range samples {
		byClass[s.class] = append(byClass[s.class], millis(s.rtt)/s.calMillis)
	}
	logSum := 0.0
	for _, ratios := range byClass {
		logSum += math.Log(median(ratios))
	}
	return math.Exp(logSum / float64(len(byClass)))
}
