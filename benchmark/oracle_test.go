package main

import (
	"encoding/json"
	"testing"

	mpsm "repro"
	"repro/internal/mergejoin"
)

// The oracle shares no code with the engine; here it is held against the
// engine's own brute-force reference on inputs small enough for that.
func TestJoinOracleMatchesReferenceJoin(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		g := newRNG(seed)
		// A narrow domain forces duplicate keys on both sides.
		r := uniform(g, 300, 64)
		s := append(foreignKey(g, r, 500), uniform(g, 200, 128)...)
		var ref mergejoin.MaxAggregate
		mergejoin.ReferenceJoin(r, s, &ref)
		got := expectJoin(r, s)
		if got.matches != ref.Count || got.maxSum != ref.Max {
			t.Fatalf("seed %d: oracle says %d matches, max %d; ReferenceJoin says %d, %d", seed, got.matches, got.maxSum, ref.Count, ref.Max)
		}
	}
}

func TestBandOracleMatchesReferenceJoinBand(t *testing.T) {
	g := newRNG(5)
	d, e := uniform(g, 300, 1024), uniform(g, 300, 1024)
	o := newQueryOracle(nil, nil, nil, d, e)
	for _, w := range []uint64{0, 1, 7, 2000} {
		var pairs mergejoin.Materializer
		mergejoin.ReferenceJoinBand(d, e, w, &pairs)
		want := make(map[uint64]uint64)
		for _, p := range pairs.Out {
			want[p.Key]++
		}
		got := o.band(w)
		if got.rows != len(want) {
			t.Fatalf("width %d: oracle has %d groups, reference %d", w, got.rows, len(want))
		}
		for k, n := range want {
			if !got.contains(mpsm.Tuple{Key: k, Payload: n}) {
				t.Fatalf("width %d: oracle lacks group {%d %d}", w, k, n)
			}
		}
	}
}

// The hand-written scanner and encoding/json must read a query answer alike,
// and a layout the scanner does not know must still decode.
func TestDecodeQueryResponse(t *testing.T) {
	type wire struct {
		Query       string       `json:"query"`
		Columns     [2]string    `json:"columns"`
		Rows        int          `json:"rows"`
		Tuples      []mpsm.Tuple `json:"tuples"`
		Truncated   bool         `json:"truncated,omitempty"`
		TotalMillis float64      `json:"total_millis"`
	}
	for _, tuples := range [][]mpsm.Tuple{nil, {}, {{Key: 1, Payload: 2}}, {{Key: 1 << 63, Payload: 0}, {Key: 7, Payload: 1<<64 - 1}}} {
		body, err := json.Marshal(wire{Query: `ans(K, S) :- a(K, X), X > 3.`, Columns: [2]string{"K", "S"}, Rows: 9, Tuples: tuples, Truncated: true, TotalMillis: 1.25})
		if err != nil {
			t.Fatal(err)
		}
		_, fast := scanQueryResponse(body)
		if want := tuples != nil; fast != want {
			t.Errorf("%s: scanner accepted = %v, want %v", body, fast, want)
		}
		got, err := decodeQueryResponse(body)
		if err != nil {
			t.Fatal(err)
		}
		if got.Rows != 9 || got.TotalMillis != 1.25 || len(got.Tuples) != len(tuples) {
			t.Fatalf("%s decoded as %+v", body, got)
		}
		for i := range tuples {
			if got.Tuples[i] != tuples[i] {
				t.Fatalf("tuple %d decoded as %v, want %v", i, got.Tuples[i], tuples[i])
			}
		}
	}

	spaced := []byte(`{"rows": 1, "tuples": [ {"Payload": 5, "Key": 4} ], "total_millis": 2}`)
	if _, fast := scanQueryResponse(spaced); fast {
		t.Error("scanner accepted a layout it does not know")
	}
	got, err := decodeQueryResponse(spaced)
	if err != nil || got.Rows != 1 || len(got.Tuples) != 1 || got.Tuples[0] != (mpsm.Tuple{Key: 4, Payload: 5}) {
		t.Fatalf("fallback decoded %+v, %v", got, err)
	}
}
