package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	mpsm "repro"
)

// server is the HTTP front-end over one mpsm.Service: a named-relation catalog
// plus join submission. All state mutations go through the catalog mutex; the
// service itself is concurrency-safe by construction.
type server struct {
	svc *mpsm.Service
	mux *http.ServeMux

	// Both catalog limits derive from the one memory limit the service
	// already has, its admission limit L (-max-memory; by default
	// memory.DefaultLimitBytes). A join's derived budget is 3 × 16 B × rows
	// (Service.budgetFor), so a relation of more than L/48 tuples could not
	// be admitted even against an empty partner and is not worth storing:
	// that is maxRelationTuples. And the catalog may keep at most L bytes of
	// tuples resident — as much as it lets the queries over them reserve —
	// which is maxCatalogBytes.
	maxRelationTuples int
	maxCatalogBytes   int64
	// bodyTimeout is how long a request body may take to arrive: all of a
	// /v1/join or /v1/query body, each block of an upload.
	bodyTimeout time.Duration

	mu        sync.RWMutex
	relations map[string]*mpsm.Relation
}

// defaultBodyTimeout is server.bodyTimeout outside tests.
const defaultBodyTimeout = 10 * time.Second

// newServer wires the routes. The returned server is an http.Handler, so tests
// drive it through net/http/httptest without binding a port.
func newServer(svc *mpsm.Service) *server {
	limit := svc.Stats().Memory.ReserveLimit
	s := &server{
		svc:               svc,
		mux:               http.NewServeMux(),
		maxRelationTuples: int(limit / (3 * tupleBytes)),
		maxCatalogBytes:   limit,
		bodyTimeout:       defaultBodyTimeout,
		relations:         make(map[string]*mpsm.Relation),
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/relations", s.handleListRelations)
	s.mux.HandleFunc("POST /v1/relations", s.handleCreateRelation)
	s.mux.HandleFunc("POST /v1/join", s.handleJoin)
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	return s
}

// catalog snapshots the relation map as an mpsm.Catalog for query
// compilation. Compile resolves names eagerly, so the snapshot only needs to
// be stable for the duration of the lookup.
func (s *server) catalog() mpsm.Catalog {
	s.mu.RLock()
	defer s.mu.RUnlock()
	cat := make(mpsm.MapCatalog, len(s.relations))
	for name, rel := range s.relations {
		cat[name] = rel
	}
	return cat
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// writeJSON writes v with the given status; encoding errors at this point can
// only be half-written responses, so they are ignored.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// maxRequestBody bounds the bodies of /v1/join and /v1/query: both carry a
// few names or one query text, so 1 MiB is generous, and an unbounded body
// would let one client make the daemon buffer whatever it sends.
// /v1/relations carries the bulk tuple uploads and is bounded in tuples, by
// the catalog's limits.
const maxRequestBody = 1 << 20

// readDeadline returns a function that gives the request's body bodyTimeout
// from now to arrive (or to deliver its next block). The deadline covers the
// body only: net/http lifts it when the body ends, before it starts watching
// the connection for a disconnect, so it cannot cancel a long join.
func (s *server) readDeadline(w http.ResponseWriter) func() {
	rc := http.NewResponseController(w)
	return func() {
		// An error means the connection has no deadlines (a test recorder).
		_ = rc.SetReadDeadline(time.Now().Add(s.bodyTimeout))
	}
}

// decodeBody decodes a size- and time-bounded JSON request body into req,
// answering 413 for an oversized body, 408 for one that does not arrive in
// time and 400 for a malformed one; it reports whether the handler should
// proceed.
func (s *server) decodeBody(w http.ResponseWriter, r *http.Request, req any) bool {
	s.readDeadline(w)()
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody)).Decode(req)
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
	case errors.Is(err, os.ErrDeadlineExceeded):
		writeError(w, http.StatusRequestTimeout, "request body stalled: %v", err)
	case err != nil:
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
	}
	return err == nil
}

func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.svc.Stats())
}

// relationInfo summarizes one catalog entry.
type relationInfo struct {
	Name string `json:"name"`
	Rows int    `json:"rows"`
}

func (s *server) handleListRelations(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	infos := make([]relationInfo, 0, len(s.relations))
	for name, rel := range s.relations {
		infos = append(infos, relationInfo{Name: name, Rows: rel.Len()})
	}
	s.mu.RUnlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	writeJSON(w, http.StatusOK, infos)
}

// generateSpec asks the server to synthesize a relation: uniform keys by
// default, or foreign keys drawn from an existing relation.
type generateSpec struct {
	Size int    `json:"size"`
	Seed uint64 `json:"seed"`
	// ForeignKeyOf names an existing relation to sample keys from,
	// guaranteeing join partners.
	ForeignKeyOf string `json:"foreign_key_of,omitempty"`
}

// uploadError is the error body of a refused upload: where in the body the
// scanner stopped, and at which tuple (-1 outside the tuples array).
type uploadError struct {
	Error  string `json:"error"`
	Offset int64  `json:"offset"`
	Tuple  int    `json:"tuple"`
}

// tupleBudget is how many tuples a relation stored under name may hold: the
// per-relation limit, or what the catalog has left counting the bytes of the
// relation it would replace. An upload that has not named its relation yet
// (name is empty) gets the per-relation limit; register decides.
func (s *server) tupleBudget(name string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if name == "" {
		return s.maxRelationTuples
	}
	free := (s.maxCatalogBytes - s.residentBytes(name)) / tupleBytes
	return int(max(0, min(free, int64(s.maxRelationTuples))))
}

// residentBytes sums the catalog's tuple bytes, leaving out the relation
// stored as except. The caller holds mu.
func (s *server) residentBytes(except string) int64 {
	var sum int64
	for name, rel := range s.relations {
		if name != except {
			sum += int64(rel.Len()) * tupleBytes
		}
	}
	return sum
}

// register stores rel under its name, replacing what was there, unless the
// catalog would then hold more than maxCatalogBytes. tupleBudget said it
// would not, but other uploads may have registered since.
func (s *server) register(rel *mpsm.Relation) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.residentBytes(rel.Name)+int64(rel.Len())*tupleBytes > s.maxCatalogBytes {
		return false
	}
	s.relations[rel.Name] = rel
	return true
}

func (s *server) handleCreateRelation(w http.ResponseWriter, r *http.Request) {
	req, err := newRelationScanner(r.Body, r.ContentLength, s.tupleBudget, s.readDeadline(w)).decode()
	if err != nil {
		var ie *ingestError
		errors.As(err, &ie) // the scanner returns nothing else
		writeJSON(w, ie.Status, uploadError{Error: ie.Error(), Offset: ie.Offset, Tuple: ie.Tuple})
		return
	}

	var rel *mpsm.Relation
	switch {
	case req.Generate == nil:
		rel = &mpsm.Relation{Name: req.Name, Tuples: req.Tuples}
	case req.Generate.Size <= 0:
		writeError(w, http.StatusBadRequest, "generate.size must be positive")
		return
	case req.Generate.Size > s.tupleBudget(req.Name):
		writeError(w, http.StatusRequestEntityTooLarge, "generate.size %d exceeds what relation %q may hold (%d tuples a relation, %d bytes the catalog)",
			req.Generate.Size, req.Name, s.maxRelationTuples, s.maxCatalogBytes)
		return
	case req.Generate.ForeignKeyOf != "":
		s.mu.RLock()
		parent, ok := s.relations[req.Generate.ForeignKeyOf]
		s.mu.RUnlock()
		if !ok {
			writeError(w, http.StatusNotFound, "unknown parent relation %q", req.Generate.ForeignKeyOf)
			return
		}
		rel = mpsm.GenerateForeignKey(req.Name, parent, req.Generate.Size, req.Generate.Seed)
	default:
		rel = mpsm.GenerateUniform(req.Name, req.Generate.Size, req.Generate.Seed)
	}

	if !s.register(rel) {
		writeError(w, http.StatusRequestEntityTooLarge, "relation %q (%d tuples) would put the catalog over its %d bytes",
			rel.Name, rel.Len(), s.maxCatalogBytes)
		return
	}
	writeJSON(w, http.StatusCreated, relationInfo{Name: req.Name, Rows: rel.Len()})
}

// joinRequest submits R ⋈ S through the serving layer. R is the private
// (smaller, partitioned) input, S the public one.
type joinRequest struct {
	R string `json:"r"`
	S string `json:"s"`
	// Algorithm optionally pins the join algorithm (pmpsm, bmpsm, dmpsm,
	// wisconsin, radix); empty defers to the engine (and, under auto-plan,
	// the cost-based planner via the plan cache).
	Algorithm string `json:"algorithm,omitempty"`
	// Workers optionally replaces the query's share of the fair-share slots
	// (0): the exact degree of parallelism with a pinned algorithm, an upper
	// bound on the planner's choice without one.
	Workers int `json:"workers,omitempty"`
	// Weight is the fair-share weight (default 1).
	Weight int `json:"weight,omitempty"`
	// BudgetBytes is the declared admission budget; 0 derives it from the
	// input sizes.
	BudgetBytes int64 `json:"budget_bytes,omitempty"`
	// Label names the query in the stats attribution.
	Label string `json:"label,omitempty"`
}

// joinResponse is the evaluation-query result plus timing.
type joinResponse struct {
	Matches     uint64  `json:"matches"`
	MaxSum      uint64  `json:"max_sum"`
	Algorithm   string  `json:"algorithm"`
	Workers     int     `json:"workers"`
	TotalMillis float64 `json:"total_millis"`
}

func (s *server) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	s.mu.RLock()
	rRel, rOK := s.relations[req.R]
	sRel, sOK := s.relations[req.S]
	s.mu.RUnlock()
	if !rOK {
		writeError(w, http.StatusNotFound, "unknown relation %q", req.R)
		return
	}
	if !sOK {
		writeError(w, http.StatusNotFound, "unknown relation %q", req.S)
		return
	}

	var qopts []mpsm.QueryOption
	var eopts []mpsm.Option
	if req.Algorithm != "" {
		alg, err := mpsm.ParseAlgorithm(req.Algorithm)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		// A pinned algorithm turns auto-planning off for this query;
		// otherwise the planner would be free to override the pin.
		eopts = append(eopts, mpsm.WithAlgorithm(alg), mpsm.WithAutoPlan(false))
	}
	if req.Workers > 0 {
		eopts = append(eopts, mpsm.WithWorkers(req.Workers))
	}
	if len(eopts) > 0 {
		qopts = append(qopts, mpsm.WithQueryOptions(eopts...))
	}
	if req.Weight > 0 {
		qopts = append(qopts, mpsm.WithQueryWeight(req.Weight))
	}
	if req.BudgetBytes > 0 {
		qopts = append(qopts, mpsm.WithQueryBudget(req.BudgetBytes))
	}
	if req.Label != "" {
		qopts = append(qopts, mpsm.WithQueryLabel(req.Label))
	}

	start := time.Now()
	res, err := s.svc.Join(r.Context(), rRel, sRel, qopts...)
	if err != nil {
		status := joinErrorStatus(err)
		if status == http.StatusTooManyRequests {
			// The service already walked its degradation ladder; tell the
			// client when to come back.
			w.Header().Set("Retry-After", "1")
		}
		writeError(w, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, joinResponse{
		Matches:     res.Matches,
		MaxSum:      res.MaxSum,
		Algorithm:   res.Algorithm,
		Workers:     res.Workers,
		TotalMillis: float64(time.Since(start).Microseconds()) / 1000.0,
	})
}

// queryRequest submits a Datalog-style query over the named catalog
// relations; see the mpsm.Compile documentation for the language.
type queryRequest struct {
	// Query is the rule text, e.g.
	// "ans(K, Sum) :- r(K, X), s(K, Y), X > 10, agg sum(Y)".
	Query string `json:"query"`
	// Limit bounds the number of tuples returned (0 = all).
	Limit int `json:"limit,omitempty"`
	// Explain additionally renders the physical plan.
	Explain bool `json:"explain,omitempty"`
	// Weight, BudgetBytes and Label behave as in joinRequest.
	Weight      int    `json:"weight,omitempty"`
	BudgetBytes int64  `json:"budget_bytes,omitempty"`
	Label       string `json:"label,omitempty"`
}

// queryError is the error body for failed compilations: the message plus,
// for positioned errors, the 1-based line/column and a caret-annotated
// rendering of the offending source line.
type queryError struct {
	Error    string `json:"error"`
	Line     int    `json:"line,omitempty"`
	Col      int    `json:"col,omitempty"`
	Annotate string `json:"annotate,omitempty"`
}

// A query answer is the JSON object
//
//	{"query":…,"columns":[…],"rows":n,"tuples":[{"Key":k,"Payload":p},…],
//	 "truncated":true,"plan":"…","total_millis":t}
//
// followed by a newline: the canonical query text, the result tuples (bounded
// by Limit; null when the result holds none), and timing; truncated and plan
// only when set. That is byte for byte what encoding/json makes of those
// fields in that order, and clients scan the tuple layout by hand, so it must
// stay so. The envelope — queryHead before the tuples, queryTail after — is
// still encoded by encoding/json; the tuples, which are all of a large
// answer, are not: reflection costs 2.5x what strconv.AppendUint does.
type queryHead struct {
	Query   string    `json:"query"`
	Columns [2]string `json:"columns"`
	Rows    int       `json:"rows"`
}

type queryTail struct {
	Truncated   bool    `json:"truncated,omitempty"`
	Plan        string  `json:"plan,omitempty"`
	TotalMillis float64 `json:"total_millis"`
}

// responseBufferSize is when writeQueryResponse hands what it has encoded to
// the ResponseWriter: some 1300 tuples a write.
const responseBufferSize = 32 << 10

// responseBuffers recycles the encode buffers across requests.
var responseBuffers = sync.Pool{New: func() any {
	buf := make([]byte, 0, responseBufferSize+128)
	return &buf
}}

// writeQueryResponse streams a query answer. Like writeJSON it ignores write
// errors: they can only mean the client is gone.
func writeQueryResponse(w http.ResponseWriter, head queryHead, tuples []mpsm.Tuple, tail queryTail) {
	headJSON, err := json.Marshal(head)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	tailJSON, err := json.Marshal(tail)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)

	bufp := responseBuffers.Get().(*[]byte)
	defer responseBuffers.Put(bufp)
	buf := append((*bufp)[:0], headJSON[:len(headJSON)-1]...) // reopen the object
	buf = append(buf, `,"tuples":`...)
	if tuples == nil {
		buf = append(buf, "null"...)
	} else {
		buf = append(buf, '[')
		for i, t := range tuples {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, `{"Key":`...)
			buf = strconv.AppendUint(buf, t.Key, 10)
			buf = append(buf, `,"Payload":`...)
			buf = strconv.AppendUint(buf, t.Payload, 10)
			buf = append(buf, '}')
			if len(buf) >= responseBufferSize {
				_, _ = w.Write(buf)
				buf = buf[:0]
			}
		}
		buf = append(buf, ']')
	}
	buf = append(buf, ',')
	buf = append(buf, tailJSON[1:]...)
	buf = append(buf, '\n')
	_, _ = w.Write(buf)
	*bufp = buf[:0]
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Query == "" {
		writeError(w, http.StatusBadRequest, "query is required")
		return
	}

	plan, err := mpsm.Compile(req.Query, s.catalog())
	if err != nil {
		var qe *mpsm.QueryError
		if errors.As(err, &qe) {
			writeJSON(w, http.StatusBadRequest, queryError{
				Error:    qe.Error(),
				Line:     qe.Pos.Line,
				Col:      qe.Pos.Col,
				Annotate: qe.Annotate(),
			})
			return
		}
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	var qopts []mpsm.QueryOption
	if req.Weight > 0 {
		qopts = append(qopts, mpsm.WithQueryWeight(req.Weight))
	}
	if req.BudgetBytes > 0 {
		qopts = append(qopts, mpsm.WithQueryBudget(req.BudgetBytes))
	}
	if req.Label != "" {
		qopts = append(qopts, mpsm.WithQueryLabel(req.Label))
	}

	head := queryHead{Query: plan.QueryInfo().Text, Columns: plan.QueryInfo().Columns}
	var tail queryTail
	if req.Explain {
		ex, err := s.svc.Explain(plan, qopts...)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		tail.Plan = ex.String()
	}

	start := time.Now()
	res, err := s.svc.RunPlan(r.Context(), plan, qopts...)
	if err != nil {
		status := joinErrorStatus(err)
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		writeError(w, status, "%v", err)
		return
	}
	head.Rows = res.Output.Len()
	tuples := res.Output.Tuples
	if req.Limit > 0 && len(tuples) > req.Limit {
		tuples = tuples[:req.Limit]
		tail.Truncated = true
	}
	tail.TotalMillis = float64(time.Since(start).Microseconds()) / 1000.0
	writeQueryResponse(w, head, tuples, tail)
}

// joinErrorStatus maps serving-layer errors to HTTP statuses: admission
// back-pressure is 429 (retryable), an impossible budget is 413, a closed
// service is 503, anything else a plain 500.
func joinErrorStatus(err error) int {
	switch {
	case errors.Is(err, mpsm.ErrQueueFull), errors.Is(err, mpsm.ErrQueueTimeout):
		return http.StatusTooManyRequests
	case errors.Is(err, mpsm.ErrBudgetTooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, mpsm.ErrServiceClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}
