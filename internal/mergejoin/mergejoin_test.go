package mergejoin

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/batch"
	"repro/internal/relation"
)

func sortedTuples(keys []uint64, payloadBase uint64) []relation.Tuple {
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]relation.Tuple, len(keys))
	for i, k := range keys {
		out[i] = relation.Tuple{Key: k, Payload: payloadBase + uint64(i)}
	}
	return out
}

func TestJoinSimple(t *testing.T) {
	r := []relation.Tuple{{Key: 1, Payload: 10}, {Key: 3, Payload: 30}, {Key: 5, Payload: 50}}
	s := []relation.Tuple{{Key: 3, Payload: 300}, {Key: 4, Payload: 400}, {Key: 5, Payload: 500}}
	var m Materializer
	Join(r, s, &m)
	if len(m.Out) != 2 {
		t.Fatalf("got %d results, want 2", len(m.Out))
	}
	if m.Out[0].Key != 3 || m.Out[0].RPayload != 30 || m.Out[0].SPayload != 300 {
		t.Fatalf("first result = %+v", m.Out[0])
	}
	if m.Out[1].Key != 5 {
		t.Fatalf("second result = %+v", m.Out[1])
	}
}

func TestJoinDuplicatesCrossProduct(t *testing.T) {
	r := []relation.Tuple{{Key: 2, Payload: 1}, {Key: 2, Payload: 2}, {Key: 2, Payload: 3}}
	s := []relation.Tuple{{Key: 2, Payload: 10}, {Key: 2, Payload: 20}}
	var c Counter
	Join(r, s, &c)
	if c.Count != 6 {
		t.Fatalf("duplicate join count = %d, want 6 (3x2)", c.Count)
	}
}

func TestJoinEmptyInputs(t *testing.T) {
	var c Counter
	Join(nil, []relation.Tuple{{Key: 1}}, &c)
	Join([]relation.Tuple{{Key: 1}}, nil, &c)
	Join(nil, nil, &c)
	if c.Count != 0 {
		t.Fatalf("joins with empty inputs produced %d results", c.Count)
	}
}

func TestJoinNoOverlap(t *testing.T) {
	r := sortedTuples([]uint64{1, 2, 3}, 0)
	s := sortedTuples([]uint64{10, 20, 30}, 0)
	var c Counter
	Join(r, s, &c)
	if c.Count != 0 {
		t.Fatalf("disjoint join count = %d, want 0", c.Count)
	}
}

func TestJoinMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		rKeys := make([]uint64, 500)
		sKeys := make([]uint64, 2000)
		for i := range rKeys {
			rKeys[i] = rng.Uint64() % 300 // force many duplicates and matches
		}
		for i := range sKeys {
			sKeys[i] = rng.Uint64() % 300
		}
		r := sortedTuples(rKeys, 1000)
		s := sortedTuples(sKeys, 5000)

		var got, want MaxAggregate
		Join(r, s, &got)
		ReferenceJoin(r, s, &want)
		if got.Count != want.Count || (got.Count > 0 && got.Max != want.Max) {
			t.Fatalf("trial %d: merge join (count=%d max=%d) != reference (count=%d max=%d)",
				trial, got.Count, got.Max, want.Count, want.Max)
		}
	}
}

func TestJoinWithSkipMatchesJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sKeys := make([]uint64, 10000)
	for i := range sKeys {
		sKeys[i] = rng.Uint64() % (1 << 20)
	}
	s := sortedTuples(sKeys, 0)
	// Private run covering only a narrow key band.
	rKeys := make([]uint64, 300)
	for i := range rKeys {
		rKeys[i] = 1<<18 + rng.Uint64()%(1<<16)
	}
	r := sortedTuples(rKeys, 0)

	var full, skip MaxAggregate
	Join(r, s, &full)
	rKeys, rPays := columnsOf(r)
	sKeys, sPays := columnsOf(s)
	scanned := JoinColumnsWithSkip(rKeys, rPays, sKeys, sPays, 0, &skip, nil)
	if full.Count != skip.Count || full.Max != skip.Max {
		t.Fatalf("JoinColumnsWithSkip result differs: (%d, %d) vs (%d, %d)", skip.Count, skip.Max, full.Count, full.Max)
	}
	if scanned >= len(s) {
		t.Fatalf("JoinColumnsWithSkip scanned %d of %d public tuples; expected a narrow band", scanned, len(s))
	}
	if scanned == 0 && full.Count > 0 {
		t.Fatal("JoinColumnsWithSkip reported zero scanned tuples despite matches")
	}
}

func TestJoinWithSkipEmpty(t *testing.T) {
	var c Counter
	skip := func(r, s []relation.Tuple) int {
		rKeys, rPays := columnsOf(r)
		sKeys, sPays := columnsOf(s)
		return JoinColumnsWithSkip(rKeys, rPays, sKeys, sPays, 0, &c, nil)
	}
	if n := skip(nil, sortedTuples([]uint64{1, 2}, 0)); n != 0 {
		t.Fatalf("scanned = %d, want 0", n)
	}
	if n := skip(sortedTuples([]uint64{1, 2}, 0), nil); n != 0 {
		t.Fatalf("scanned = %d, want 0", n)
	}
	// Private range entirely outside the public range.
	if n := skip(sortedTuples([]uint64{100, 200}, 0), sortedTuples([]uint64{1, 2, 3}, 0)); n != 0 {
		t.Fatalf("scanned = %d, want 0 for disjoint high range", n)
	}
	if c.Count != 0 {
		t.Fatalf("count = %d, want 0", c.Count)
	}
}

// TestJoinAgainstRuns joins one private run against several public runs, the
// unit of work of an MPSM worker, and compares with the oracle over their
// union.
func TestJoinAgainstRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var runs []*batch.Run
	var allS []relation.Tuple
	for w := 0; w < 4; w++ {
		keys := make([]uint64, 1000)
		for i := range keys {
			keys[i] = rng.Uint64() % 5000
		}
		tuples := sortedTuples(keys, uint64(w)*10000)
		run := &batch.Run{Worker: w}
		run.Keys, run.Payloads = columnsOf(tuples)
		runs = append(runs, run)
		allS = append(allS, tuples...)
	}
	rKeys := make([]uint64, 800)
	for i := range rKeys {
		rKeys[i] = rng.Uint64() % 5000
	}
	r := sortedTuples(rKeys, 77)

	var got, want MaxAggregate
	joinRunsKind(Inner, r, runs, 0, &got)
	ReferenceJoin(r, allS, &want)
	if got.Count != want.Count || got.Max != want.Max {
		t.Fatalf("against runs (count=%d max=%d) != reference (count=%d max=%d)",
			got.Count, got.Max, want.Count, want.Max)
	}
}

func TestMaxAggregateMerge(t *testing.T) {
	var a, b MaxAggregate
	a.Consume(relation.Tuple{Payload: 5}, relation.Tuple{Payload: 6})  // 11
	b.Consume(relation.Tuple{Payload: 50}, relation.Tuple{Payload: 1}) // 51
	b.Consume(relation.Tuple{Payload: 2}, relation.Tuple{Payload: 2})  // 4
	a.Merge(b)
	if a.Count != 3 || a.Max != 51 {
		t.Fatalf("merged aggregate = %+v", a)
	}
	var empty MaxAggregate
	a.Merge(empty)
	if a.Count != 3 || a.Max != 51 {
		t.Fatalf("merging empty changed aggregate: %+v", a)
	}
	empty.Merge(a)
	if empty.Count != 3 || empty.Max != 51 {
		t.Fatalf("merge into empty = %+v", empty)
	}
}

func TestMaxAggregateZeroPayloads(t *testing.T) {
	var m MaxAggregate
	m.Consume(relation.Tuple{Payload: 0}, relation.Tuple{Payload: 0})
	if m.Count != 1 || m.Max != 0 {
		t.Fatalf("aggregate = %+v, want count 1 max 0", m)
	}
}

func TestJoinProperty(t *testing.T) {
	// Property: merge join of sorted inputs matches the hash reference for
	// arbitrary key multisets.
	f := func(rRaw, sRaw []uint16) bool {
		rKeys := make([]uint64, len(rRaw))
		for i, k := range rRaw {
			rKeys[i] = uint64(k % 64)
		}
		sKeys := make([]uint64, len(sRaw))
		for i, k := range sRaw {
			sKeys[i] = uint64(k % 64)
		}
		r := sortedTuples(rKeys, 100)
		s := sortedTuples(sKeys, 200)
		var got, want MaxAggregate
		Join(r, s, &got)
		ReferenceJoin(r, s, &want)
		return got.Count == want.Count && (got.Count == 0 || got.Max == want.Max)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
