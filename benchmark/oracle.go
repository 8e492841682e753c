package main

import (
	"fmt"
	"sort"

	mpsm "repro"
)

// The oracle is deliberately independent of the engine: plain maps and
// sorted slices, no code shared with internal/. It is computed once per
// workload during set-up (never-seen query constants are the one exception:
// their expectation is derived on first use, outside the timed round trip).

// joinExpectation is the expected /v1/join answer: the join cardinality and
// the paper's evaluation aggregate max(R.payload + S.payload).
type joinExpectation struct {
	matches, maxSum uint64
}

// expectJoin computes R ⋈ S with a hash map over R.
func expectJoin(r, s []mpsm.Tuple) joinExpectation {
	type side struct {
		count  uint64
		maxPay uint64
	}
	byKey := make(map[uint64]side, len(r))
	for _, t := range r {
		e := byKey[t.Key]
		e.count++
		e.maxPay = max(e.maxPay, t.Payload)
		byKey[t.Key] = e
	}
	var exp joinExpectation
	for _, t := range s {
		if e, ok := byKey[t.Key]; ok {
			exp.matches += e.count
			exp.maxSum = max(exp.maxSum, e.maxPay+t.Payload)
		}
	}
	return exp
}

// queryExpectation is the expected /v1/query answer: the total row count and
// the set every returned tuple must belong to. Aggregate templates list their
// groups; the range template, whose answer is a bag of base tuples, gives a
// membership predicate instead.
type queryExpectation struct {
	rows   int
	groups map[uint64]uint64
	member func(mpsm.Tuple) bool
}

// contains reports whether t is a tuple of the expected answer.
func (e *queryExpectation) contains(t mpsm.Tuple) bool {
	if e.member != nil {
		return e.member(t)
	}
	v, ok := e.groups[t.Key]
	return ok && v == t.Payload
}

// check verifies one /v1/query response against the expectation.
func (e *queryExpectation) check(resp *queryResponse, limit int) error {
	if resp.Rows != e.rows {
		return fmt.Errorf("rows = %d, oracle expects %d", resp.Rows, e.rows)
	}
	want := e.rows
	if limit > 0 && want > limit {
		want = limit
	}
	if len(resp.Tuples) != want {
		return fmt.Errorf("%d tuples returned, oracle expects %d", len(resp.Tuples), want)
	}
	for _, t := range resp.Tuples {
		if !e.contains(t) {
			return fmt.Errorf("tuple {%d %d} is not in the oracle's answer", t.Key, t.Payload)
		}
	}
	return nil
}

// keyAgg is the per-key summary of one relation.
type keyAgg struct {
	count, sum uint64
}

func byKey(tuples []mpsm.Tuple) map[uint64]keyAgg {
	m := make(map[uint64]keyAgg, len(tuples))
	for _, t := range tuples {
		a := m[t.Key]
		a.count++
		a.sum += t.Payload
		m[t.Key] = a
	}
	return m
}

// queryOracle answers the four query_mix templates over relations a..e.
type queryOracle struct {
	a       []mpsm.Tuple
	aKeys   map[uint64]keyAgg
	bKeys   map[uint64]keyAgg
	bTuples map[mpsm.Tuple]struct{}
	// rangeKeys/rangeRows answer the range template's row count by binary
	// search: the sorted keys of b's tuples that have a partner in a, and
	// the running total of pairs up to each position.
	rangeKeys []uint64
	rangeRows []int
	chain3    *queryExpectation
	dKeys     map[uint64]keyAgg
	eSorted   []uint64
}

func newQueryOracle(a, b, c, d, e []mpsm.Tuple) *queryOracle {
	o := &queryOracle{
		a:       a,
		aKeys:   byKey(a),
		bKeys:   byKey(b),
		bTuples: make(map[mpsm.Tuple]struct{}, len(b)),
		dKeys:   byKey(d),
	}
	for _, t := range b {
		o.bTuples[t] = struct{}{}
		if _, ok := o.aKeys[t.Key]; ok {
			o.rangeKeys = append(o.rangeKeys, t.Key)
		}
	}
	sort.Slice(o.rangeKeys, func(i, j int) bool { return o.rangeKeys[i] < o.rangeKeys[j] })
	o.rangeRows = make([]int, len(o.rangeKeys)+1)
	for i, k := range o.rangeKeys {
		o.rangeRows[i+1] = o.rangeRows[i] + int(o.aKeys[k].count)
	}

	// chain3: sum(Z) over every (a, b, c) triple sharing K.
	o.chain3 = &queryExpectation{groups: make(map[uint64]uint64)}
	for k, ck := range byKey(c) {
		ak, bk := o.aKeys[k], o.bKeys[k]
		if ak.count > 0 && bk.count > 0 {
			o.chain3.groups[k] = ak.count * bk.count * ck.sum
		}
	}
	o.chain3.rows = len(o.chain3.groups)

	o.eSorted = make([]uint64, len(e))
	for i, t := range e {
		o.eSorted[i] = t.Key
	}
	sort.Slice(o.eSorted, func(i, j int) bool { return o.eSorted[i] < o.eSorted[j] })
	return o
}

// agg2 expects `ans(K,S) :- a(K,X), b(K,Y), X > c, agg sum(Y)`: every a tuple
// passing the filter pairs with every b tuple of its key.
func (o *queryOracle) agg2(c uint64) *queryExpectation {
	exp := &queryExpectation{groups: make(map[uint64]uint64)}
	for _, t := range o.a {
		if t.Payload > c {
			if bk, ok := o.bKeys[t.Key]; ok {
				exp.groups[t.Key] += bk.sum
			}
		}
	}
	exp.rows = len(exp.groups)
	return exp
}

// keyRange expects `ans(K,Y) :- a(K,_), b(K,Y), K >= lo, K < hi`.
func (o *queryOracle) keyRange(lo, hi uint64) *queryExpectation {
	at := func(k uint64) int {
		return sort.Search(len(o.rangeKeys), func(i int) bool { return o.rangeKeys[i] >= k })
	}
	return &queryExpectation{
		rows: o.rangeRows[at(hi)] - o.rangeRows[at(lo)],
		member: func(t mpsm.Tuple) bool {
			if t.Key < lo || t.Key >= hi || o.aKeys[t.Key].count == 0 {
				return false
			}
			_, ok := o.bTuples[t]
			return ok
		},
	}
}

// band expects `ans(K,C) :- d(K,X), e(J,Y), |K - J| <= w, agg count(*)`.
func (o *queryOracle) band(w uint64) *queryExpectation {
	exp := &queryExpectation{groups: make(map[uint64]uint64)}
	for k, dk := range o.dKeys {
		lo := uint64(0)
		if k > w {
			lo = k - w
		}
		first := sort.Search(len(o.eSorted), func(i int) bool { return o.eSorted[i] >= lo })
		last := sort.Search(len(o.eSorted), func(i int) bool { return o.eSorted[i] > k+w })
		if last > first {
			exp.groups[k] = dk.count * uint64(last-first)
		}
	}
	exp.rows = len(exp.groups)
	return exp
}
