package mergejoin

import "repro/internal/relation"

// JoinBand performs a non-equi band join between two key-sorted inputs: it
// emits every pair (r, s) with |r.Key − s.Key| <= band. With band = 0 it
// degenerates to the equi-join.
//
// The paper lists non-equi joins among the future join variants of MPSM; a
// band join is the non-equi variant that benefits most directly from MPSM's
// sorted runs, because each private tuple's match partners form a contiguous
// window of the public run. The kernel keeps a sliding window over the public
// input and therefore runs in O(|private| + |public| + |output|).
//
// Production does not call it: B-MPSM and P-MPSM run band joins on column
// runs through JoinColumnsBand, which emits a window per key group instead of
// a call per pair. JoinBand stays, under its name, as the row-at-a-time
// sibling the tests check that kernel against, pair for pair, and as the
// benchmark's mergejoin.band_ns_per_tuple probe.
//
// Both inputs must be sorted by ascending key.
func JoinBand(private, public []relation.Tuple, band uint64, out Consumer) {
	start := 0
	for _, r := range private {
		low, high := bandWindow(r.Key, band)
		// Advance the window start: keys below low can never match this or
		// any later private tuple (keys are non-decreasing).
		for start < len(public) && public[start].Key < low {
			start++
		}
		for j := start; j < len(public) && public[j].Key <= high; j++ {
			out.Consume(r, public[j])
		}
	}
}

// ReferenceJoinBand is the quadratic oracle for band-join tests.
func ReferenceJoinBand(r, s []relation.Tuple, band uint64, out Consumer) {
	for _, rt := range r {
		for _, st := range s {
			var diff uint64
			if rt.Key > st.Key {
				diff = rt.Key - st.Key
			} else {
				diff = st.Key - rt.Key
			}
			if diff <= band {
				out.Consume(rt, st)
			}
		}
	}
}
