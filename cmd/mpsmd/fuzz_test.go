package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	mpsm "repro"
)

// fuzzServer is a handler over a small catalog with the relation names the
// benchmark's templates use: a, b (foreign keys of a) and c for the equi-join
// templates, d and e for the band template.
func fuzzServer(t testing.TB) *server {
	svc := mpsm.NewService(mpsm.New(mpsm.WithWorkers(2), mpsm.WithAutoPlan(true)))
	t.Cleanup(func() { svc.Close() })
	srv := newServer(svc)
	a := mpsm.GenerateUniform("a", 256, 1)
	for _, rel := range []*mpsm.Relation{
		a,
		mpsm.GenerateForeignKey("b", a, 1024, 2),
		mpsm.GenerateForeignKey("c", a, 1024, 3),
		mpsm.GenerateUniform("d", 128, 4),
		mpsm.GenerateUniform("e", 128, 5),
	} {
		if !srv.register(rel) {
			t.Fatalf("relation %s does not fit the catalog", rel.Name)
		}
	}
	return srv
}

// checkResponse fails the test on a server error, and on a refusal whose body
// is not the JSON error object every handler answers a bad request with.
func checkResponse(t *testing.T, body []byte, rec *httptest.ResponseRecorder) {
	t.Helper()
	if rec.Code >= 500 {
		t.Fatalf("body %q: status %d: %s", body, rec.Code, rec.Body)
	}
	if rec.Code < 300 {
		return
	}
	var e struct {
		Error *string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == nil || *e.Error == "" {
		t.Fatalf("body %q: status %d without an error object: %q (%v)", body, rec.Code, rec.Body, err)
	}
}

// fuzzPost drives one POST through the handler.
func fuzzPost(t *testing.T, srv *server, path string, body []byte) {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	checkResponse(t, body, rec)
}

// FuzzJoinRequest: no /v1/join body panics the handler or gets a 5xx, and
// every refusal carries the JSON error object.
func FuzzJoinRequest(f *testing.F) {
	for _, seed := range []string{
		`{"r":"a","s":"b"}`,                     // the benchmark's auto-planned join
		`{"r":"a","s":"b","algorithm":"pmpsm"}`, // its pinned join
		`{"r":"a","s":"b","algorithm":"wisconsin","workers":2,"weight":3,"label":"x"}`,
		`{"r":"a","s":"zz"}`,
		`{"r":"a","s":"b","algorithm":"nope"}`,
		`{"r":"a","s":"b","budget_bytes":9223372036854775807}`,
		`{"r":"a","s":"b","workers":1000000000}`,
		`{"r":"a","s":"b","weight":1000000000}`,
		`{"r":1}`,
		`[`,
		``,
	} {
		f.Add([]byte(seed))
	}
	srv := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		fuzzPost(t, srv, "/v1/join", body)
	})
}

// FuzzQueryRequest: no /v1/query body panics the handler or gets a 5xx, and
// every refusal carries the JSON error object (a compile error's carries its
// position too).
func FuzzQueryRequest(f *testing.F) {
	for _, seed := range []string{
		`{"query":"ans(K,S) :- a(K,X), b(K,Y), X > 100, agg sum(Y)"}`,                  // agg2
		`{"query":"ans(K,S) :- a(K,X), b(K,Y), c(K,Z), agg sum(Z)"}`,                   // chain3
		`{"query":"ans(K,Y) :- a(K,_), b(K,Y), K >= 0, K < 67108864","limit":1000}`,    // range
		`{"query":"ans(K,C) :- d(K,X), e(J,Y), |K - J| <= 16, agg count(*)"}`,          // band
		`{"query":"ans(K,S) :- a(K,X), b(K,Y), agg max(Y)","explain":true,"limit":-1}`, // explain
		`{"query":"ans(K,S) :- a(K,X), zz(K,Y)"}`,
		`{"query":"ans(K, S) :- a(K, X), b(K, Y), c(K, Z), agg sum(A)"}`, // unbound aggregate, three patterns
		`{"query":"ans(K"}`,
		`{"query":""}`,
		`{"query":"ans(K,C) :- d(K,X), e(J,Y), |K - J| <= 18446744073709551615, agg count(*)"}`,
		`{"query":"ans(K,S) :- a(K,X), b(K,Y), agg sum(Y)","weight":1000000000,"budget_bytes":1}`,
		`{}`,
	} {
		f.Add([]byte(seed))
	}
	srv := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		fuzzPost(t, srv, "/v1/query", body)
	})
}
