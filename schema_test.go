package mpsm

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"
)

// refJoinCount brute-forces the inner-join cardinality and max payload sum
// of two string-keyed inputs.
func refJoinCount(rKeys, sKeys []string, rPays, sPays []uint64) (matches uint64, maxSum uint64) {
	byKey := make(map[string][]uint64)
	for i, k := range sKeys {
		byKey[k] = append(byKey[k], sPays[i])
	}
	for i, k := range rKeys {
		for _, sp := range byKey[k] {
			matches++
			if sum := rPays[i] + sp; sum > maxSum {
				maxSum = sum
			}
		}
	}
	return matches, maxSum
}

// encodeStrings builds a string-keyed relation under the given schema.
func encodeStrings(t *testing.T, sc *Schema, name string, ks []string, pays []uint64) *Relation {
	t.Helper()
	rows := make([][]KeyValue, len(ks))
	for i, k := range ks {
		rows[i] = []KeyValue{StringKey(k)}
	}
	rel, err := sc.Encode(name, rows, pays)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

func TestSchemaStringJoin(t *testing.T) {
	sc := MustSchema(SchemaColumn{Name: "name", Type: ColumnBytes})
	// Keys that stress the tie-break path: long shared prefixes collide in
	// the 8-byte prefix but must not cross-match.
	rKeys := []string{
		"user-0001", "user-0002", "user-0003", "user-0001",
		"customer-with-a-long-name-A", "customer-with-a-long-name-B",
		"x", "",
	}
	sKeys := []string{
		"user-0001", "user-0003", "user-0004",
		"customer-with-a-long-name-A", "customer-with-a-long-name-C",
		"x", "y",
	}
	rPays := make([]uint64, len(rKeys))
	for i := range rPays {
		rPays[i] = uint64(100 + i)
	}
	sPays := make([]uint64, len(sKeys))
	for i := range sPays {
		sPays[i] = uint64(1000 + i)
	}
	wantMatches, wantMax := refJoinCount(rKeys, sKeys, rPays, sPays)

	for _, alg := range []Algorithm{PMPSM, BMPSM, Wisconsin, RadixHash} {
		t.Run(alg.String(), func(t *testing.T) {
			e := New(WithWorkers(4), WithAlgorithm(alg))
			res, err := e.Join(context.Background(),
				encodeStrings(t, sc, "R", rKeys, rPays),
				encodeStrings(t, sc, "S", sKeys, sPays))
			if err != nil {
				t.Fatal(err)
			}
			if res.Matches != wantMatches {
				t.Errorf("Matches = %d, want %d", res.Matches, wantMatches)
			}
			if res.MaxSum != wantMax {
				t.Errorf("MaxSum = %d, want %d", res.MaxSum, wantMax)
			}
		})
	}
}

func TestSchemaJoinMaterializedPayloads(t *testing.T) {
	sc := MustSchema(SchemaColumn{Type: ColumnBytes})
	r := encodeStrings(t, sc, "R", []string{"shared-prefix-key-one", "shared-prefix-key-two"}, []uint64{7, 8})
	s := encodeStrings(t, sc, "S", []string{"shared-prefix-key-two", "shared-prefix-key-three"}, []uint64{70, 80})

	snk := NewMaterializeSink()
	e := New(WithWorkers(2))
	if _, err := e.Join(context.Background(), r, s, WithSink(snk)); err != nil {
		t.Fatal(err)
	}
	pairs := snk.Pairs()
	if len(pairs) != 1 {
		t.Fatalf("got %d pairs, want 1: %v", len(pairs), pairs)
	}
	// The sink must observe the callers' payloads, not the internal row
	// indices the tie-break path runs on.
	if pairs[0].R.Payload != 8 || pairs[0].S.Payload != 70 {
		t.Errorf("pair payloads = (%d, %d), want (8, 70)", pairs[0].R.Payload, pairs[0].S.Payload)
	}
}

func TestSchemaCompositeJoin(t *testing.T) {
	sc := MustSchema(
		SchemaColumn{Name: "region", Type: ColumnBytes},
		SchemaColumn{Name: "id", Type: ColumnInt64},
	)
	type row struct {
		region string
		id     int64
	}
	rRows := []row{{"eu", 1}, {"eu", 2}, {"us", 1}, {"us", -3}, {"ap", 9}}
	sRows := []row{{"eu", 1}, {"us", 1}, {"us", -3}, {"us", 4}, {"eu", 1}}
	enc := func(name string, rows []row) *Relation {
		vals := make([][]KeyValue, len(rows))
		pays := make([]uint64, len(rows))
		for i, r := range rows {
			vals[i] = []KeyValue{StringKey(r.region), Int64Key(r.id)}
			pays[i] = uint64(i)
		}
		rel, err := sc.Encode(name, vals, pays)
		if err != nil {
			t.Fatal(err)
		}
		return rel
	}
	want := uint64(0)
	for _, a := range rRows {
		for _, b := range sRows {
			if a == b {
				want++
			}
		}
	}
	e := New(WithWorkers(4))
	res, err := e.Join(context.Background(), enc("R", rRows), enc("S", sRows))
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches != want {
		t.Errorf("Matches = %d, want %d", res.Matches, want)
	}
}

func TestSchemaExactFastPathMatchesRaw(t *testing.T) {
	// A single non-nullable int64 column is exact: the engine must select
	// the fast path (no tie-break) and agree with a raw-uint64 join of the
	// identically ordered keys.
	sc := MustSchema(SchemaColumn{Type: ColumnInt64})
	n := 4096
	rows := make([][]KeyValue, n)
	pays := make([]uint64, n)
	var raw []Tuple
	for i := 0; i < n; i++ {
		k := int64(i%257) - 128 // negatives included
		rows[i] = []KeyValue{Int64Key(k)}
		pays[i] = uint64(i)
		raw = append(raw, Tuple{Key: uint64(k) ^ 1<<63, Payload: uint64(i)})
	}
	enc, err := sc.Encode("E", rows, pays)
	if err != nil {
		t.Fatal(err)
	}
	e := New(WithWorkers(4))
	encRes, err := e.Join(context.Background(), enc, enc.Clone())
	if err != nil {
		t.Fatal(err)
	}
	rawRes, err := e.Join(context.Background(), NewRelation("R", raw), NewRelation("S", append([]Tuple(nil), raw...)))
	if err != nil {
		t.Fatal(err)
	}
	if encRes.Matches != rawRes.Matches || encRes.MaxSum != rawRes.MaxSum {
		t.Errorf("exact-schema join (%d, %d) disagrees with raw join (%d, %d)",
			encRes.Matches, encRes.MaxSum, rawRes.Matches, rawRes.MaxSum)
	}
}

func TestSchemaMismatchRejected(t *testing.T) {
	bytesSchema := MustSchema(SchemaColumn{Type: ColumnBytes})
	intSchema := MustSchema(SchemaColumn{Type: ColumnInt64}, SchemaColumn{Type: ColumnInt64})
	r := encodeStrings(t, bytesSchema, "R", []string{"a"}, []uint64{1})
	s, err := intSchema.Encode("S", [][]KeyValue{{Int64Key(1), Int64Key(2)}}, []uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	e := New(WithWorkers(2))
	if _, err := e.Join(context.Background(), r, s); err == nil || !strings.Contains(err.Error(), "schema mismatch") {
		t.Errorf("mismatched schemas must be rejected, got %v", err)
	}
	raw := NewRelation("W", []Tuple{{Key: 1, Payload: 1}})
	if _, err := e.Join(context.Background(), r, raw); err == nil || !strings.Contains(err.Error(), "raw-keyed") {
		t.Errorf("tie-break vs raw join must be rejected, got %v", err)
	}
}

func TestSchemaNonInnerTieBreakRejected(t *testing.T) {
	sc := MustSchema(SchemaColumn{Type: ColumnBytes})
	r := encodeStrings(t, sc, "R", []string{"a"}, []uint64{1})
	s := encodeStrings(t, sc, "S", []string{"a"}, []uint64{2})
	e := New(WithWorkers(2))
	if _, err := e.Join(context.Background(), r, s, WithKind(LeftOuterJoin)); err == nil {
		t.Error("left-outer join on tie-break keys must be rejected")
	}
	if _, err := e.Join(context.Background(), r, s, WithBandWidth(10)); err == nil {
		t.Error("band join on tie-break keys must be rejected")
	}
}

func TestSchemaPlanRestrictions(t *testing.T) {
	sc := MustSchema(SchemaColumn{Type: ColumnBytes})
	r := encodeStrings(t, sc, "R", []string{"a", "b"}, []uint64{1, 2})
	s := encodeStrings(t, sc, "S", []string{"b", "c"}, []uint64{3, 4})
	e := New(WithWorkers(2))

	// GroupAggregate over tie-break join output groups by prefix: rejected.
	p := NewPlan()
	rID := p.Scan(r)
	sID := p.Scan(s)
	jID := p.Join(rID, sID)
	p.GroupAggregate(jID, AggSum)
	if _, err := e.RunPlan(context.Background(), p); err == nil {
		t.Error("GroupAggregate over tie-break join must be rejected")
	}

	// Plain sink plans over tie-break scans execute fine.
	p2 := NewPlan()
	j2 := p2.Join(p2.Scan(r), p2.Scan(s))
	p2.Sink(j2, nil)
	pr, err := e.RunPlan(context.Background(), p2)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Matches != 1 {
		t.Errorf("Matches = %d, want 1", pr.Matches)
	}
}

func TestSchemaExplainShowsKeys(t *testing.T) {
	sc := MustSchema(SchemaColumn{Type: ColumnBytes})
	r := encodeStrings(t, sc, "R", []string{"aa", "ab", "long-shared-prefix-1", "long-shared-prefix-2"}, []uint64{1, 2, 3, 4})
	s := encodeStrings(t, sc, "S", []string{"ab", "long-shared-prefix-2"}, []uint64{5, 6})
	e := New(WithWorkers(2), WithAutoPlan(true))
	p := NewPlan()
	j := p.Join(p.Scan(r), p.Scan(s))
	p.Sink(j, nil)
	ex, err := e.Explain(p)
	if err != nil {
		t.Fatal(err)
	}
	rendered := ex.String()
	if !strings.Contains(rendered, "tie-break") {
		t.Errorf("Explain must surface the tie-break key decision:\n%s", rendered)
	}
	if !strings.Contains(rendered, "8-byte prefix") {
		t.Errorf("Explain must surface the prefix width:\n%s", rendered)
	}
	var joinKeys string
	for _, n := range ex.Nodes {
		if n.Kind == "Join" {
			joinKeys = n.Keys
		}
	}
	if !strings.Contains(joinKeys, "est collision") {
		t.Errorf("join node Keys must carry the collision estimate, got %q", joinKeys)
	}

	// The estimate follows the data: eight distinct digits behind a shared
	// prefix of 0, 2, 4, 5 and 6 bytes leave 8, 6, 4, 3 and 2 of them in the
	// 8-byte prefix, so the estimated collision rate never falls as the
	// prefix grows, and it is a rate.
	prev := 0.0
	for _, shared := range []int{0, 2, 4, 5, 6} {
		ks := make([]string, 2048)
		for i := range ks {
			ks[i] = fmt.Sprintf("%s%08d", strings.Repeat("x", shared), i*9973%100_000_000)
		}
		pays := make([]uint64, len(ks))
		p := NewPlan()
		p.Sink(p.Join(p.Scan(encodeStrings(t, sc, "R", ks, pays)), p.Scan(encodeStrings(t, sc, "S", ks, pays))), nil)
		ex, err := e.Explain(p)
		if err != nil {
			t.Fatal(err)
		}
		rate := -1.0
		for _, n := range ex.Nodes {
			if _, after, ok := strings.Cut(n.Keys, "est collision "); ok && n.Kind == "Join" {
				fmt.Sscanf(after, "%g%%", &rate)
			}
		}
		if rate < prev || rate > 100 {
			t.Errorf("shared prefix %d bytes: est collision %.1f%%, want within [%.1f%%, 100%%]", shared, rate, prev)
		}
		prev = max(prev, rate)
	}

	// Exact schemas must surface the fast-path choice instead.
	intSchema := MustSchema(SchemaColumn{Type: ColumnInt64})
	ri, _ := intSchema.Encode("RI", [][]KeyValue{{Int64Key(1)}}, []uint64{1})
	si, _ := intSchema.Encode("SI", [][]KeyValue{{Int64Key(1)}}, []uint64{2})
	p3 := NewPlan()
	j3 := p3.Join(p3.Scan(ri), p3.Scan(si))
	p3.Sink(j3, nil)
	ex3, err := e.Explain(p3)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex3.String(), "fast path") {
		t.Errorf("Explain must surface the exact fast path:\n%s", ex3.String())
	}
}

// TestSchemaJoinStream exercises the streaming API over tie-break keys.
func TestSchemaJoinStream(t *testing.T) {
	sc := MustSchema(SchemaColumn{Type: ColumnBytes})
	r := encodeStrings(t, sc, "R", []string{"stream-key-alpha", "stream-key-beta"}, []uint64{1, 2})
	s := encodeStrings(t, sc, "S", []string{"stream-key-beta", "stream-key-gamma"}, []uint64{3, 4})
	e := New(WithWorkers(2))
	seq, done := e.JoinStream(context.Background(), r, s)
	var got []string
	for rt, st := range seq {
		got = append(got, fmt.Sprintf("%d-%d", rt.Payload, st.Payload))
	}
	if err := done(); err != nil {
		t.Fatal(err)
	}
	sort.Strings(got)
	if len(got) != 1 || got[0] != "2-3" {
		t.Errorf("streamed pairs = %v, want [2-3]", got)
	}
}
