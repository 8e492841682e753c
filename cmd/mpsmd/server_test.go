package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	mpsm "repro"
	"repro/internal/mergejoin"
)

// newTestServer spins up the handler over a default service; the caller gets
// the httptest server and the underlying mpsm.Service for stats assertions.
func newTestServer(t *testing.T) (*httptest.Server, *mpsm.Service) {
	t.Helper()
	return startTestServer(t, func(*server) {})
}

// startTestServer is newTestServer with the server's unexported settings
// (limits, body deadline) adjusted by configure before it serves.
func startTestServer(t *testing.T, configure func(*server)) (*httptest.Server, *mpsm.Service) {
	t.Helper()
	svc := mpsm.NewService(mpsm.New(mpsm.WithWorkers(2), mpsm.WithAutoPlan(true)))
	srv := newServer(svc)
	configure(srv)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); svc.Close() })
	return ts, svc
}

// createRelationRequest is a POST /v1/relations body as a client marshals it
// with encoding/json: the layout relationScanner reads, and what the fuzz
// target decodes into to compare the scanner against encoding/json.
type createRelationRequest struct {
	Name     string        `json:"name"`
	Tuples   [][2]uint64   `json:"tuples,omitempty"`
	Generate *generateSpec `json:"generate,omitempty"`
}

// post sends a JSON body and decodes the JSON response into out (if non-nil),
// returning the status code.
func post(t *testing.T, url string, body any, out any) int {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp.StatusCode
}

func TestServerJoinEndToEnd(t *testing.T) {
	ts, svc := newTestServer(t)

	// Register R and S through the API; generation is seed-deterministic, so
	// the oracle can be computed on an identical local copy.
	if code := post(t, ts.URL+"/v1/relations",
		createRelationRequest{Name: "R", Generate: &generateSpec{Size: 2000, Seed: 7}}, nil); code != http.StatusCreated {
		t.Fatalf("create R: status %d", code)
	}
	if code := post(t, ts.URL+"/v1/relations",
		createRelationRequest{Name: "S", Generate: &generateSpec{Size: 8000, Seed: 8, ForeignKeyOf: "R"}}, nil); code != http.StatusCreated {
		t.Fatalf("create S: status %d", code)
	}
	r := mpsm.GenerateUniform("R", 2000, 7)
	s := mpsm.GenerateForeignKey("S", r, 8000, 8)
	var want mergejoin.MaxAggregate
	mergejoin.ReferenceJoin(r.Tuples, s.Tuples, &want)

	var res joinResponse
	if code := post(t, ts.URL+"/v1/join", joinRequest{R: "R", S: "S", Label: "http"}, &res); code != http.StatusOK {
		t.Fatalf("join: status %d", code)
	}
	if res.Matches != want.Count || res.MaxSum != want.Max {
		t.Fatalf("join over HTTP = %d/%d, want %d/%d", res.Matches, res.MaxSum, want.Count, want.Max)
	}

	// The repeated join hits the plan cache; /v1/stats reports it.
	if code := post(t, ts.URL+"/v1/join", joinRequest{R: "R", S: "S"}, &res); code != http.StatusOK {
		t.Fatalf("repeat join: status %d", code)
	}
	var stats mpsm.ServiceStats
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Admission.Admitted != 2 || stats.PlanCache.Hits != 1 {
		t.Fatalf("stats after two joins = admitted %d, cache hits %d; want 2 and 1",
			stats.Admission.Admitted, stats.PlanCache.Hits)
	}
	if svc.Stats().Memory.ReservedBytes != 0 {
		t.Fatal("reservations leaked after HTTP joins")
	}
}

func TestServerExplicitTuplesAndAlgorithm(t *testing.T) {
	ts, _ := newTestServer(t)

	if code := post(t, ts.URL+"/v1/relations",
		createRelationRequest{Name: "R", Tuples: [][2]uint64{{1, 10}, {2, 20}, {3, 30}}}, nil); code != http.StatusCreated {
		t.Fatalf("create R: status %d", code)
	}
	if code := post(t, ts.URL+"/v1/relations",
		createRelationRequest{Name: "S", Tuples: [][2]uint64{{2, 5}, {2, 7}, {9, 1}}}, nil); code != http.StatusCreated {
		t.Fatalf("create S: status %d", code)
	}
	var res joinResponse
	if code := post(t, ts.URL+"/v1/join",
		joinRequest{R: "R", S: "S", Algorithm: "wisconsin", Workers: 2}, &res); code != http.StatusOK {
		t.Fatalf("join: status %d", code)
	}
	// Key 2 matches twice: payload sums 25 and 27.
	if res.Matches != 2 || res.MaxSum != 27 {
		t.Fatalf("join = %d/%d, want 2/27", res.Matches, res.MaxSum)
	}
	// The pinned algorithm is honored even though the service auto-plans,
	// and with it the worker count is the request's, exactly.
	if res.Algorithm != "Wisconsin" {
		t.Fatalf("algorithm = %q, want the pinned Wisconsin", res.Algorithm)
	}
	if res.Workers != 2 {
		t.Fatalf("workers = %d, want the request's 2 with a pinned algorithm", res.Workers)
	}
	if code := post(t, ts.URL+"/v1/join",
		joinRequest{R: "R", S: "S", Algorithm: "pmpsm", Workers: 3}, &res); code != http.StatusOK {
		t.Fatalf("join: status %d", code)
	}
	if res.Algorithm != "P-MPSM" || res.Workers != 3 {
		t.Fatalf("pinned join ran %s on %d workers, want P-MPSM on the request's 3", res.Algorithm, res.Workers)
	}
	// Without a pin the field is the bound the planner chooses under: three
	// tuples a side keep one worker.
	if code := post(t, ts.URL+"/v1/join", joinRequest{R: "R", S: "S", Workers: 3}, &res); code != http.StatusOK {
		t.Fatalf("join: status %d", code)
	}
	if res.Workers != 1 || res.Matches != 2 || res.MaxSum != 27 {
		t.Fatalf("auto-planned join = %d/%d on %d workers, want 2/27 on 1", res.Matches, res.MaxSum, res.Workers)
	}
}

func TestServerErrors(t *testing.T) {
	ts, _ := newTestServer(t)

	if code := post(t, ts.URL+"/v1/join", joinRequest{R: "nope", S: "nada"}, nil); code != http.StatusNotFound {
		t.Fatalf("unknown relation: status %d, want 404", code)
	}
	if code := post(t, ts.URL+"/v1/relations",
		createRelationRequest{Name: "R", Generate: &generateSpec{Size: 100, Seed: 1}}, nil); code != http.StatusCreated {
		t.Fatalf("create R: status %d", code)
	}
	if code := post(t, ts.URL+"/v1/relations",
		createRelationRequest{Name: "bad"}, nil); code != http.StatusBadRequest {
		t.Fatalf("neither tuples nor generate: status %d, want 400", code)
	}
	if code := post(t, ts.URL+"/v1/relations",
		createRelationRequest{Name: "S", Generate: &generateSpec{Size: 100, Seed: 2, ForeignKeyOf: "ghost"}}, nil); code != http.StatusNotFound {
		t.Fatalf("unknown parent: status %d, want 404", code)
	}
	if code := post(t, ts.URL+"/v1/join",
		joinRequest{R: "R", S: "R", Algorithm: "bogosort"}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad algorithm: status %d, want 400", code)
	}
	// An admission budget that can never fit maps to 413.
	engine := mpsm.New()
	small := mpsm.NewService(engine, mpsm.WithMaxMemory(1<<20))
	defer small.Close()
	ts2 := httptest.NewServer(newServer(small))
	defer ts2.Close()
	if code := post(t, ts2.URL+"/v1/relations",
		createRelationRequest{Name: "R", Generate: &generateSpec{Size: 100, Seed: 1}}, nil); code != http.StatusCreated {
		t.Fatal("create R on small service failed")
	}
	if code := post(t, ts2.URL+"/v1/join",
		joinRequest{R: "R", S: "R", BudgetBytes: 2 << 20}, nil); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized budget: status %d, want 413", code)
	}
}

// TestServerBoundsRequestBodies: /v1/join and /v1/query refuse a body over
// maxRequestBody with 413 and accept one just under it; /v1/relations, which
// carries bulk uploads, is bounded in tuples instead and takes a larger body.
func TestServerBoundsRequestBodies(t *testing.T) {
	ts, _ := newTestServer(t)
	if code := post(t, ts.URL+"/v1/relations",
		createRelationRequest{Name: "r", Generate: &generateSpec{Size: 100, Seed: 1}}, nil); code != http.StatusCreated {
		t.Fatalf("create r: status %d", code)
	}
	pad := func(n int) string { return strings.Repeat("x", n) }
	for _, tc := range []struct {
		name string
		path string
		body any
		want int
	}{
		{"oversized join", "/v1/join", joinRequest{R: "r", S: "r", Label: pad(maxRequestBody)}, http.StatusRequestEntityTooLarge},
		{"oversized query", "/v1/query", queryRequest{Query: "ans(K, V) :- r(K, V)", Label: pad(maxRequestBody)}, http.StatusRequestEntityTooLarge},
		{"join under the bound", "/v1/join", joinRequest{R: "r", S: "r", Label: pad(maxRequestBody - 1024)}, http.StatusOK},
		{"query under the bound", "/v1/query", queryRequest{Query: "ans(K, V) :- r(K, V)", Label: pad(maxRequestBody - 1024)}, http.StatusOK},
	} {
		var out apiError
		if code := post(t, ts.URL+tc.path, tc.body, &out); code != tc.want {
			t.Errorf("%s: status %d (%s), want %d", tc.name, code, out.Error, tc.want)
		}
	}
	big := make([][2]uint64, 400_000) // ~2 MB of JSON
	if code := post(t, ts.URL+"/v1/relations", createRelationRequest{Name: "big", Tuples: big}, nil); code != http.StatusCreated {
		t.Fatalf("bulk upload over the query bound: status %d, want 201", code)
	}
}

// TestServerQuery: a three-way aggregation query over HTTP matches a locally
// computed plan over identical (seed-deterministic) relations, explain
// returns the rendered plan, limit truncates, and repeated queries hit the
// text-keyed plan cache.
func TestServerQuery(t *testing.T) {
	ts, _ := newTestServer(t)

	for _, req := range []createRelationRequest{
		{Name: "r", Generate: &generateSpec{Size: 1 << 11, Seed: 41}},
		{Name: "s", Generate: &generateSpec{Size: 1 << 12, Seed: 42, ForeignKeyOf: "r"}},
		{Name: "t", Generate: &generateSpec{Size: 1 << 12, Seed: 43, ForeignKeyOf: "r"}},
	} {
		if code := post(t, ts.URL+"/v1/relations", req, nil); code != http.StatusCreated {
			t.Fatalf("create %s: status %d", req.Name, code)
		}
	}

	const src = "ans(K, Sum) :- r(K, X), s(K, Y), t(K, Z), X > 10, agg sum(Z)"
	var res queryResponse
	if code := post(t, ts.URL+"/v1/query",
		queryRequest{Query: src, Explain: true, Label: "http-query"}, &res); code != http.StatusOK {
		t.Fatalf("query: status %d", code)
	}

	// Re-run the same query locally on identical generated inputs.
	r := mpsm.GenerateUniform("r", 1<<11, 41)
	cat := mpsm.MapCatalog{
		"r": r,
		"s": mpsm.GenerateForeignKey("s", r, 1<<12, 42),
		"t": mpsm.GenerateForeignKey("t", r, 1<<12, 43),
	}
	want, err := mpsm.New(mpsm.WithWorkers(2)).Query(t.Context(), src, cat)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != want.Output.Len() {
		t.Fatalf("query over HTTP returned %d rows, want %d", res.Rows, want.Output.Len())
	}
	if res.Query != src+"." {
		t.Fatalf("canonical query = %q", res.Query)
	}
	if res.Plan == "" || !bytes.Contains([]byte(res.Plan), []byte("GroupAggregate")) {
		t.Fatalf("explain plan missing or incomplete: %q", res.Plan)
	}

	// Limit truncates and flags it.
	var limited queryResponse
	if code := post(t, ts.URL+"/v1/query", queryRequest{Query: src, Limit: 3}, &limited); code != http.StatusOK {
		t.Fatalf("limited query: status %d", code)
	}
	if len(limited.Tuples) != 3 || !limited.Truncated || limited.Rows != want.Output.Len() {
		t.Fatalf("limit: got %d tuples (truncated=%v, rows=%d), want 3 of %d",
			len(limited.Tuples), limited.Truncated, limited.Rows, want.Output.Len())
	}

	// A differently spelled but equivalent query shares the cached plan.
	var stats mpsm.ServiceStats
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	hitsBefore := stats.PlanCache.Hits
	respell := "ans(K,Sum) :- r(K,X), s(K,Y), t(K,Z), 10 < X, agg sum(Z)."
	if code := post(t, ts.URL+"/v1/query", queryRequest{Query: respell}, &res); code != http.StatusOK {
		t.Fatalf("respelled query: status %d", code)
	}
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if stats.PlanCache.Hits <= hitsBefore {
		t.Fatalf("respelled query missed the text-keyed plan cache: hits %d -> %d",
			hitsBefore, stats.PlanCache.Hits)
	}
}

// TestServerQueryErrors: syntax errors return 400 with position and a
// caret-annotated source line; unknown relations and empty queries are 400.
func TestServerQueryErrors(t *testing.T) {
	ts, _ := newTestServer(t)

	if code := post(t, ts.URL+"/v1/query", queryRequest{}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty query: status %d, want 400", code)
	}

	var qerr queryError
	if code := post(t, ts.URL+"/v1/query",
		queryRequest{Query: "ans(K, V) :- r(K, V), K @ 5"}, &qerr); code != http.StatusBadRequest {
		t.Fatalf("syntax error: status %d, want 400", code)
	}
	if qerr.Line != 1 || qerr.Col != 25 {
		t.Fatalf("error position = %d:%d, want 1:25 (%s)", qerr.Line, qerr.Col, qerr.Error)
	}
	if !bytes.Contains([]byte(qerr.Annotate), []byte("^")) {
		t.Fatalf("annotation missing caret: %q", qerr.Annotate)
	}

	// Unknown relation: positioned at the atom.
	qerr = queryError{}
	if code := post(t, ts.URL+"/v1/query",
		queryRequest{Query: "ans(K, V) :- ghost(K, V)"}, &qerr); code != http.StatusBadRequest {
		t.Fatalf("unknown relation: status %d, want 400", code)
	}
	if !bytes.Contains([]byte(qerr.Error), []byte("ghost")) || qerr.Line != 1 {
		t.Fatalf("unknown-relation error = %+v", qerr)
	}
}
