package partition

import (
	"fmt"
	"sort"
)

// EquiHeightBoundsKeys extracts numBounds equi-height histogram bounds from
// the key column of a run that is already sorted: bound j (1-based) is the key
// value at rank j·len/numBounds. Because the run is sorted this costs only
// numBounds array accesses — the paper's "en passant, i.e. in almost no time"
// observation.
//
// The last bound is always the run's maximum key so that the derived CDF
// covers the full key range of the run.
func EquiHeightBoundsKeys(keys []uint64, numBounds int) []uint64 {
	if numBounds <= 0 || len(keys) == 0 {
		return nil
	}
	bounds := make([]uint64, numBounds)
	for j := 1; j <= numBounds; j++ {
		idx := j*len(keys)/numBounds - 1
		if idx < 0 {
			idx = 0
		}
		bounds[j-1] = keys[idx]
	}
	return bounds
}

// CDF is a global cumulative distribution function of the public input S,
// assembled from the per-run equi-height histogram bounds of all workers
// (Section 4.1 of the paper). Probing the CDF with a key returns an estimate
// of how many S tuples have a key less than or equal to the probe.
type CDF struct {
	// keys are the merged histogram bounds in ascending order.
	keys []uint64
	// mass[i] is the estimated number of tuples with key <= keys[i].
	mass []float64
	// total is the total number of tuples represented (|S|).
	total float64
}

// BuildCDF merges the per-run equi-height bounds into a global CDF. Each
// bound of a run with runLen tuples and numBounds bounds accounts for
// runLen/numBounds tuples (the equal-height assumption). The bounds of all
// runs are merged in ascending key order while accumulating mass.
//
// boundsPerRun[i] must be the EquiHeightBounds of run i; runLens[i] its
// length. Runs with no bounds (empty runs) contribute nothing.
func BuildCDF(boundsPerRun [][]uint64, runLens []int) *CDF {
	if len(boundsPerRun) != len(runLens) {
		panic(fmt.Sprintf("partition: BuildCDF got %d bound sets but %d run lengths", len(boundsPerRun), len(runLens)))
	}
	type step struct {
		key  uint64
		mass float64
	}
	var steps []step
	var total float64
	for i, bounds := range boundsPerRun {
		if len(bounds) == 0 {
			continue
		}
		per := float64(runLens[i]) / float64(len(bounds))
		total += float64(runLens[i])
		for _, b := range bounds {
			steps = append(steps, step{key: b, mass: per})
		}
	}
	sort.Slice(steps, func(a, b int) bool { return steps[a].key < steps[b].key })

	cdf := &CDF{total: total}
	var acc float64
	for _, s := range steps {
		acc += s.mass
		// Coalesce equal keys into a single step.
		if n := len(cdf.keys); n > 0 && cdf.keys[n-1] == s.key {
			cdf.mass[n-1] = acc
			continue
		}
		cdf.keys = append(cdf.keys, s.key)
		cdf.mass = append(cdf.mass, acc)
	}
	return cdf
}

// Total returns the total tuple mass |S| represented by the CDF.
func (c *CDF) Total() float64 { return c.total }

// Estimate returns the estimated number of tuples with key <= probe, using
// linear interpolation between the recorded steps (the diagonal connections
// between steps in Figure 8 of the paper). Probes below the first bound and
// above the last bound clamp to 0 and Total respectively.
func (c *CDF) Estimate(probe uint64) float64 {
	n := len(c.keys)
	if n == 0 {
		return 0
	}
	if probe >= c.keys[n-1] {
		return c.total
	}
	if probe < c.keys[0] {
		// Interpolate from mass 0 at key 0 up to the first step.
		if c.keys[0] == 0 {
			return c.mass[0]
		}
		return c.mass[0] * float64(probe) / float64(c.keys[0])
	}
	// Binary search for the first key strictly greater than probe.
	idx := sort.Search(n, func(i int) bool { return c.keys[i] > probe })
	// probe lies in [keys[idx-1], keys[idx]).
	k0, k1 := c.keys[idx-1], c.keys[idx]
	m0, m1 := c.mass[idx-1], c.mass[idx]
	if k1 == k0 {
		return m1
	}
	frac := float64(probe-k0) / float64(k1-k0)
	return m0 + frac*(m1-m0)
}
