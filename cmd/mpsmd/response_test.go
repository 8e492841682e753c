package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	mpsm "repro"
)

// queryResponse is a query answer as encoding/json lays it out: the layout
// writeQueryResponse must reproduce byte for byte, and the struct the tests
// decode answers into.
type queryResponse struct {
	Query       string       `json:"query"`
	Columns     [2]string    `json:"columns"`
	Rows        int          `json:"rows"`
	Tuples      []mpsm.Tuple `json:"tuples"`
	Truncated   bool         `json:"truncated,omitempty"`
	Plan        string       `json:"plan,omitempty"`
	TotalMillis float64      `json:"total_millis"`
}

// TestQueryResponseBytesMatchEncodingJSON: the hand-streamed answer is byte
// for byte what json.NewEncoder(w).Encode(queryResponse) wrote before it —
// field order, tuple layout, string escaping, the trailing newline — for
// answers of no, one, a thousand and 65 536 tuples (several buffer flushes),
// nil and empty results, with and without a limit's truncated flag, with a
// plan holding quotes, newlines and HTML-sensitive characters, and for
// values up to MaxUint64.
func TestQueryResponseBytesMatchEncodingJSON(t *testing.T) {
	tuples := func(n int) []mpsm.Tuple {
		out := make([]mpsm.Tuple, n)
		for i := range out {
			out[i] = mpsm.Tuple{Key: uint64(i) * 2654435761, Payload: math.MaxUint64 - uint64(i)*uint64(i)}
		}
		if n > 2 {
			out[1] = mpsm.Tuple{}
			out[2] = mpsm.Tuple{Key: math.MaxUint64, Payload: math.MaxUint64}
		}
		return out
	}
	plans := []string{"", queryResponsePlan}
	for _, n := range []int{-1, 0, 1, 1000, 65536} {
		for _, truncated := range []bool{false, true} {
			for _, plan := range plans {
				want := queryResponse{
					Query:       "ans(K, \"S\") :- a(K, X), X > 1.",
					Columns:     [2]string{"K", "S<1>"},
					Rows:        max(n, 0) + 7,
					Truncated:   truncated,
					Plan:        plan,
					TotalMillis: 12.345,
				}
				if n >= 0 {
					want.Tuples = tuples(n) // n = -1 leaves the slice nil: "tuples":null
				}
				t.Run(fmt.Sprintf("n=%d truncated=%v plan=%t", n, truncated, plan != ""), func(t *testing.T) {
					checkQueryResponse(t, want)
				})
			}
		}
	}
}

// queryResponsePlan holds what encoding/json escapes in a string: quotes,
// control characters, HTML-sensitive characters and U+2028.
const queryResponsePlan = "Join \"a\" ⋈ <b>\n  └─ scan & 'filter'\t\\ \u2028 end"

// checkQueryResponse fails unless writeQueryResponse writes want exactly as
// json.NewEncoder(w).Encode(want) does — or answers 500 where that fails.
func checkQueryResponse(t *testing.T, want queryResponse) {
	t.Helper()
	rec := httptest.NewRecorder()
	writeQueryResponse(rec,
		queryHead{Query: want.Query, Columns: want.Columns, Rows: want.Rows},
		want.Tuples,
		queryTail{Truncated: want.Truncated, Plan: want.Plan, TotalMillis: want.TotalMillis})
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q", ct)
	}
	var wantBytes bytes.Buffer
	if err := json.NewEncoder(&wantBytes).Encode(want); err != nil {
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("encoding/json fails (%v), writeQueryResponse answers %d", err, rec.Code)
		}
		return
	}
	if got := rec.Body.Bytes(); !bytes.Equal(got, wantBytes.Bytes()) || rec.Code != http.StatusOK {
		at := 0
		for at < len(got) && at < wantBytes.Len() && got[at] == wantBytes.Bytes()[at] {
			at++
		}
		t.Fatalf("status %d, %d bytes, encoding/json writes %d; first difference at %d:\n got  …%.80s\n want …%.80s",
			rec.Code, len(got), wantBytes.Len(), at, got[at:], wantBytes.Bytes()[at:])
	}
}

// FuzzQueryResponse is TestQueryResponseBytesMatchEncodingJSON for arbitrary
// answers: any strings (invalid UTF-8 included), any row count and timing
// (NaN included: no JSON, so a 500), and tuples read off raw — eight bytes a
// key, eight a payload — with nil and empty told apart by hasTuples.
func FuzzQueryResponse(f *testing.F) {
	f.Add("ans(K, \"S\") :- a(K, X), X > 1.", "K", "S<1>", 7, queryResponsePlan, true, 12.345, []byte(nil), false)
	f.Add("", "", "", 0, "", false, 0.0, []byte{}, true)
	f.Add("q", "\xff", "\u2028", -1, "p", false, math.Inf(1), bytes.Repeat([]byte{0xff}, 16), true)
	f.Add("q", "a", "b", 1<<40, "", true, 1e-9, bytes.Repeat([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8}, 4000), true)
	f.Fuzz(func(t *testing.T, query, col0, col1 string, rows int, plan string, truncated bool, millis float64, raw []byte, hasTuples bool) {
		want := queryResponse{Query: query, Columns: [2]string{col0, col1}, Rows: rows,
			Truncated: truncated, Plan: plan, TotalMillis: millis}
		if hasTuples {
			want.Tuples = make([]mpsm.Tuple, len(raw)/16)
			for i := range want.Tuples {
				want.Tuples[i] = mpsm.Tuple{
					Key:     binary.LittleEndian.Uint64(raw[16*i:]),
					Payload: binary.LittleEndian.Uint64(raw[16*i+8:]),
				}
			}
		}
		checkQueryResponse(t, want)
	})
}
