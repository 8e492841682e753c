package main

import (
	"encoding/json"
	"fmt"

	mpsm "repro"
)

// sizes are the relation cardinalities and key domains of the four workloads.
type sizes struct {
	joinR, joinS   int    // join_large and join_large_skew
	skewDomain     uint64 // key domain of join_large_skew
	a, bc, de      int    // query_mix: |a|, |b| = |c|, |d| = |e|
	deDomain       uint64 // key domain of d and e
	shortR, shortS int    // short_concurrent, per pair
}

// keyDomain is the paper's key domain: 64-bit keys drawn below 2^32.
const keyDomain = 1 << 32

var (
	// fullSizes are the sizes ISSUE 11 fixed; the join workloads keep the
	// paper's 1:4 multiplicity.
	fullSizes = sizes{
		joinR: 524_288, joinS: 2_097_152, skewDomain: 1 << 20,
		a: 65_536, bc: 262_144, de: 32_768, deDomain: 1 << 18,
		shortR: 4_096, shortS: 16_384,
	}
	// quickSizes are for `go test`: every relation has at most 2 048 tuples.
	quickSizes = sizes{
		joinR: 512, joinS: 2_048, skewDomain: 1 << 10,
		a: 512, bc: 2_048, de: 512, deDomain: 1 << 12,
		shortR: 256, shortS: 1_024,
	}
)

// request is one HTTP operation together with its expected answer.
type request struct {
	path  string // /v1/join or /v1/query
	class string // "join" or the query template's name
	body  []byte
	// Exactly one of join and query is set.
	join  *joinExpectation
	query *queryExpectation
	limit int // the "limit" a query request carries, 0 for none
}

// workload is one traffic mix: the relations to upload, the closed-loop
// client count and the request each client sends at each position.
type workload struct {
	name    string
	clients int
	inputs  []*input
	// request returns the i-th request of a client. It is a pure function
	// of (seed, client, i), so equal seeds replay equal sequences.
	request func(client, i int) *request
	// probeR/probeS and mix are what the traced run's in-process layer
	// probes execute on: the workload's own join pair and query relations.
	// A join workload borrows query_mix's relations for the query-layer
	// probes and query_mix uses (a, b) as its join pair, so that every
	// per-layer metric has a value on every workload.
	probeR, probeS *input
	mix            func() *queryMix
	// invalid is set when the generated inputs miss a property the workload
	// is defined by; such a workload is not run.
	invalid error
}

// workloadDefs lists the workloads in their canonical order.
var workloadDefs = []struct {
	name, why string
	build     func(seed uint64, sz sizes, nproc int) *workload
}{
	{"join_large", "the paper's headline case: 1 client, pinned P-MPSM, 524288 x 2097152 uniform foreign keys; sort, partition and merge kernels are >95% of a request, so kernel changes show and overhead changes do not", buildJoinLarge},
	{"join_large_skew", "same sizes, negatively correlated 80:20 skew, location-clustered S: splitters and the slowest worker set the time, so a sort or partition change tuned to uniform keys shows its cost here", buildJoinLargeSkew},
	{"query_mix", "nproc clients, four Datalog templates via /v1/query, 1-in-10 plan-cache misses: compiler, planner, plan cache, plan runner, aggregates, band kernels and response encoding dominate, not join kernels", buildQueryMix},
	{"short_concurrent", "nproc clients, sub-millisecond auto-planned joins: HTTP, admission, plan cache and runtime start-up are most of a request; bypass workload for kernel changes, sensitive one for tracing overhead", buildShortConcurrent},
}

func buildWorkload(name string, seed uint64, sz sizes, nproc int) (*workload, error) {
	for _, d := range workloadDefs {
		if d.name == name {
			w := d.build(seed, sz, nproc)
			w.name = d.name
			return w, w.invalid
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// joinRequest is a /v1/join of r and s; an empty algorithm leaves the choice
// to the daemon's planner.
func joinRequest(r, s *input, algorithm string) *request {
	exp := expectJoin(r.tuples, s.tuples)
	body, err := json.Marshal(struct {
		R         string `json:"r"`
		S         string `json:"s"`
		Algorithm string `json:"algorithm,omitempty"`
	}{r.name, s.name, algorithm})
	if err != nil {
		panic(err) // a struct of three strings always marshals
	}
	return &request{path: "/v1/join", class: "join", body: body, join: &exp}
}

// pinnedLargeJoin is the shape shared by the two join_large workloads: one
// client repeating a P-MPSM join of r and s.
func pinnedLargeJoin(r, s *input, seed uint64, sz sizes) *workload {
	req := joinRequest(r, s, "pmpsm")
	return &workload{
		clients: 1, inputs: []*input{r, s},
		request: func(int, int) *request { return req },
		probeR:  r, probeS: s, mix: lazyMix(seed, sz),
	}
}

// lazyMix generates query_mix's relations for the query-layer probes of a
// join workload, on first use (only the traced run needs them).
func lazyMix(seed uint64, sz sizes) func() *queryMix {
	var mix *queryMix
	return func() *queryMix {
		if mix == nil {
			mix = newQueryMix(seed, sz)
		}
		return mix
	}
}

func buildJoinLarge(seed uint64, sz sizes, nproc int) *workload {
	g := newRNG(seed)
	rt := uniform(g, sz.joinR, keyDomain)
	return pinnedLargeJoin(newInput("r", rt), newInput("s", foreignKey(g, rt, sz.joinS)), seed, sz)
}

func buildJoinLargeSkew(seed uint64, sz sizes, nproc int) *workload {
	g := newRNG(seed)
	r := newInput("r", skewed(g, sz.joinR, sz.skewDomain, true))
	s := newInput("s", clusterByLocation(skewed(g, sz.joinS, sz.skewDomain, false), sz.skewDomain))
	w := pinnedLargeJoin(r, s, seed, sz)
	// The skew must leave a join of the paper's order of magnitude: with too
	// few partners the merge phase vanishes, with too many it is all there is.
	if m, n := w.request(0, 0).join.matches, uint64(sz.joinS); m < n/10 || m > 4*n {
		w.invalid = fmt.Errorf("join_large_skew: oracle counts %d matches for |S| = %d, outside [0.1, 4]·|S|", m, n)
	}
	return w
}

func buildShortConcurrent(seed uint64, sz sizes, nproc int) *workload {
	const pairs = 4
	g := newRNG(seed)
	w := &workload{clients: nproc, mix: lazyMix(seed, sz)}
	reqs := make([]*request, pairs)
	for p := 0; p < pairs; p++ {
		rt := uniform(g, sz.shortR, keyDomain)
		r := newInput(fmt.Sprintf("r%d", p), rt)
		s := newInput(fmt.Sprintf("s%d", p), foreignKey(g, rt, sz.shortS))
		w.inputs = append(w.inputs, r, s)
		reqs[p] = joinRequest(r, s, "")
	}
	w.probeR, w.probeS = w.inputs[0], w.inputs[1]
	w.request = func(client, i int) *request { return reqs[(client+i)%pairs] }
	return w
}

// Query templates of query_mix.
const (
	tmplAgg2 = iota
	tmplChain3
	tmplRange
	tmplBand
	numTemplates
)

// templateCycle is one round of the round-robin. agg2 is visited twice: the
// four templates have well separated latencies, and with equal weights the
// median round trip would sit on the border between two of them, where the
// slightest shift makes it jump from one template's latency to the other's.
// With this cycle the median falls inside agg2's range and the 90th
// percentile inside chain3's.
var templateCycle = [...]int{tmplAgg2, tmplAgg2, tmplChain3, tmplRange, tmplBand}

var templateNames = [numTemplates]string{"agg2", "chain3", "range", "band"}

const (
	poolSize   = 16   // constants per template that recur (plan-cache hits)
	missEvery  = 10   // every missEvery-th request carries a never-seen constant
	rangeLimit = 1000 // "limit" of the range template
	rangeWidth = keyDomain / 64
)

// queryMix holds query_mix's relations, its oracle and the expectations of
// every pooled constant.
type queryMix struct {
	seed   uint64
	rels   [5]*input // a, b, c, d, e
	oracle *queryOracle
	pooled [numTemplates][poolSize]*request
}

func newQueryMix(seed uint64, sz sizes) *queryMix {
	g := newRNG(seed)
	a := uniform(g, sz.a, keyDomain)
	b := foreignKey(g, a, sz.bc)
	c := foreignKey(g, a, sz.bc)
	d := uniform(g, sz.de, sz.deDomain)
	e := uniform(g, sz.de, sz.deDomain)
	m := &queryMix{seed: seed, oracle: newQueryOracle(a, b, c, d, e)}
	for i, t := range [][]mpsm.Tuple{a, b, c, d, e} {
		m.rels[i] = newInput(string(rune('a'+i)), t)
	}
	chain3 := queryRequest("chain3", chain3Text, 0, m.oracle.chain3) // has no constant
	for j := 0; j < poolSize; j++ {
		// Pooled constants are even (or multiples of 2^27); never-seen
		// ones are odd, so the two sets cannot meet. agg2's thresholds keep
		// 40–60% of a: the median round trip of the mix is an agg2 request,
		// and a wider range of selectivities would make it wander with the
		// constants a run happens to draw.
		m.pooled[tmplAgg2][j] = m.agg2(uint64(400_000 + 12_500*j))
		m.pooled[tmplChain3][j] = chain3
		m.pooled[tmplRange][j] = m.keyRange(uint64(j) << 27)
		m.pooled[tmplBand][j] = m.band(uint64(2 * (j + 1)))
	}
	return m
}

func queryRequest(class, text string, limit int, exp *queryExpectation) *request {
	body, err := json.Marshal(struct {
		Query string `json:"query"`
		Limit int    `json:"limit,omitempty"`
	}{text, limit})
	if err != nil {
		panic(err) // a struct of a string and an int always marshals
	}
	return &request{path: "/v1/query", class: class, body: body, query: exp, limit: limit}
}

func agg2Text(c uint64) string {
	return fmt.Sprintf("ans(K,S) :- a(K,X), b(K,Y), X > %d, agg sum(Y)", c)
}

const chain3Text = "ans(K,S) :- a(K,X), b(K,Y), c(K,Z), agg sum(Z)"

func rangeText(lo uint64) string {
	return fmt.Sprintf("ans(K,Y) :- a(K,_), b(K,Y), K >= %d, K < %d", lo, lo+rangeWidth)
}

func bandText(w uint64) string {
	return fmt.Sprintf("ans(K,C) :- d(K,X), e(J,Y), |K - J| <= %d, agg count(*)", w)
}

func (m *queryMix) agg2(c uint64) *request {
	return queryRequest("agg2", agg2Text(c), 0, m.oracle.agg2(c))
}

func (m *queryMix) keyRange(lo uint64) *request {
	return queryRequest("range", rangeText(lo), rangeLimit, m.oracle.keyRange(lo, lo+rangeWidth))
}

func (m *queryMix) band(w uint64) *request {
	return queryRequest("band", bandText(w), 0, m.oracle.band(w))
}

// request returns the i-th request of a client. Positions follow a seeded
// round-robin (every len(templateCycle) consecutive positions are one round,
// in a per-round shuffled order) with pooled constants, except that every tenth
// position is a plan-cache miss: a constant no earlier request of the run
// used. Only agg2 and range have a free constant (chain3 has none, and a
// never-seen band width would change the work done), so misses alternate
// between those two.
func (m *queryMix) request(clients int) func(client, i int) *request {
	return func(client, i int) *request {
		if i%missEvery == missEvery-1 {
			// fresh is unique per (client, i); 7919 is coprime to both
			// moduli, so the spread constants do not repeat either.
			fresh := uint64(i/missEvery*clients + client)
			if i/missEvery%2 == 0 {
				return m.agg2(400_001 + 2*(fresh*7919%100_000))
			}
			return m.keyRange(1 + fresh*7919%64_000<<16)
		}
		round := newRNG(m.seed ^ uint64(client+1)<<40 ^ uint64(i/len(templateCycle)+1)<<8)
		order := templateCycle
		for k := len(order) - 1; k > 0; k-- {
			j := round.below(uint64(k + 1))
			order[k], order[j] = order[j], order[k]
		}
		pick := newRNG(m.seed ^ uint64(client+1)<<40 ^ uint64(i+1)<<8 ^ 1)
		return m.pooled[order[i%len(order)]][pick.below(poolSize)]
	}
}

func buildQueryMix(seed uint64, sz sizes, nproc int) *workload {
	m := newQueryMix(seed, sz)
	return &workload{
		clients: nproc, inputs: m.rels[:], request: m.request(nproc),
		probeR: m.rels[0], probeS: m.rels[1], mix: func() *queryMix { return m },
	}
}
