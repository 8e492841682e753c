package main

import (
	"sync"
	"time"
)

// The reference sandbox is a few cores of a shared host whose speed changes
// by up to a factor of 1.6 for seconds to minutes at a time (a neighbour on
// the sibling hardware threads, by the look of it: a dependent chain of
// register operations keeps its pace within 2 %, anything with memory traffic
// or instruction-level parallelism does not). No statistic over raw round
// trips sees through a spell that outlasts the run. So the gated latency and
// throughput are not given in seconds but in units of a calibration kernel:
// a fixed piece of work of the same kind as the daemon's (radix sorts and
// merge-like scans over tuples, one goroutine per CPU), owned by the
// benchmark, never edited with the program, and run every few hundred
// milliseconds between stretches of load, while the daemon is idle. The host
// slows both by nearly the same factor, so the ratio repeats where neither
// time does.

const (
	// The kernel sorts one run far larger than the second-level cache
	// (8 MB of tuples and twice that of buffers per goroutine) and then, for
	// about as long, runs that fit it. The host slows work that waits for
	// memory less than work that keeps the core busy — the small sorts lose
	// 1.7 times the share the large one loses — and the daemon's requests,
	// which do both, sit in between: against the large sort alone their
	// ratio rose by a tenth whenever the host lost a quarter of its speed.
	calibrationTuples      = 1 << 19
	calibrationSmallTuples = 1 << 15
	calibrationSmallSorts  = 32
	// loadSlice is how long the clients run between two calibrations. The
	// host's speed can change within a second or two; 0.4 s keeps a request
	// close to the calibrations it is compared with and the kernel to a
	// ninth of the window.
	loadSlice = 400 * time.Millisecond
)

type calTuple struct{ key, payload uint64 }

// calibrator holds the kernel's inputs and buffers, allocated once.
type calibrator struct {
	src, a, b [][]calTuple // per goroutine
	sums      []uint64     // per goroutine; keeps the work observable
}

// newCalibrator prepares a kernel for `threads` goroutines. Its input is the
// same on every run of every seed: it measures the host, not the workload.
func newCalibrator(threads int) *calibrator {
	const n = calibrationTuples
	c := &calibrator{sums: make([]uint64, threads)}
	g := newRNG(0xca11b7a7e)
	for t := 0; t < threads; t++ {
		src := make([]calTuple, n)
		for i := range src {
			src[i] = calTuple{key: g.next() >> 32, payload: g.next()}
		}
		c.src = append(c.src, src)
		c.a = append(c.a, make([]calTuple, n))
		c.b = append(c.b, make([]calTuple, n))
	}
	return c
}

// once runs the kernel on every goroutine at once and returns how long the
// slowest took, as a join phase waits for its slowest worker.
func (c *calibrator) once() time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for t := range c.src {
		wg.Add(1)
		go func() {
			defer wg.Done()
			const small = calibrationSmallTuples
			sum := sortAndScan(c.src[t], c.a[t], c.b[t])
			for i := 0; i < calibrationSmallSorts; i++ {
				sum += sortAndScan(c.src[t][:small], c.a[t][:small], c.b[t][:small])
			}
			c.sums[t] += sum
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// sortAndScan sorts src by its 32-bit keys with four passes of an 8-bit
// least-significant-digit radix sort through the buffers a and b, leaving the
// sorted run in b, then scans it the way a merge join does.
func sortAndScan(src, a, b []calTuple) uint64 {
	from, to := src, a
	for shift := uint(0); shift < 32; shift += 8 {
		var count [256]int
		for i := range from {
			count[from[i].key>>shift&255]++
		}
		sum := 0
		for d, n := range count {
			count[d], sum = sum, sum+n
		}
		for i := range from {
			d := from[i].key >> shift & 255
			to[count[d]] = from[i]
			count[d]++
		}
		if shift == 0 {
			from, to = a, b // src stays as it is for the next call
		} else {
			from, to = to, from
		}
	}
	var acc uint64
	for i := 1; i < len(from); i++ {
		if from[i].key-from[i-1].key < 4096 {
			acc += from[i].payload
		}
	}
	return acc
}
