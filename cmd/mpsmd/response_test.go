package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
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
	plans := []string{"", "Join \"a\" ⋈ <b>\n  └─ scan & 'filter'\t\\ \u2028 end"}
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
				var wantBytes bytes.Buffer
				if err := json.NewEncoder(&wantBytes).Encode(want); err != nil {
					t.Fatal(err)
				}

				rec := httptest.NewRecorder()
				writeQueryResponse(rec,
					queryHead{Query: want.Query, Columns: want.Columns, Rows: want.Rows},
					want.Tuples,
					queryTail{Truncated: truncated, Plan: plan, TotalMillis: want.TotalMillis})
				name := fmt.Sprintf("n=%d truncated=%v plan=%q", n, truncated, plan)
				if got := rec.Body.Bytes(); !bytes.Equal(got, wantBytes.Bytes()) {
					at := 0
					for at < len(got) && at < wantBytes.Len() && got[at] == wantBytes.Bytes()[at] {
						at++
					}
					t.Fatalf("%s: %d bytes, encoding/json writes %d; first difference at %d:\n got  …%.80s\n want …%.80s",
						name, len(got), wantBytes.Len(), at, got[at:], wantBytes.Bytes()[at:])
				}
				if ct := rec.Header().Get("Content-Type"); ct != "application/json" || rec.Code != 200 {
					t.Fatalf("%s: status %d, Content-Type %q", name, rec.Code, ct)
				}
			}
		}
	}
}
