package main

import (
	"bytes"
	"testing"
)

// bodiesOf returns the upload bodies and the first requests of every client.
func bodiesOf(t *testing.T, name string, seed uint64) (uploads, requests [][]byte) {
	t.Helper()
	w, err := buildWorkload(name, seed, quickSizes, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range w.inputs {
		uploads = append(uploads, in.body)
	}
	for c := 0; c < w.clients; c++ {
		for i := 0; i < 60; i++ {
			requests = append(requests, w.request(c, i).body)
		}
	}
	return uploads, requests
}

func equalBodies(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// The seed is the only source of randomness: equal seeds give byte-identical
// upload bodies and request sequences, different seeds different ones.
func TestSeedDeterminesInputs(t *testing.T) {
	for _, def := range workloadDefs {
		uploads, requests := bodiesOf(t, def.name, 7)
		again, againRequests := bodiesOf(t, def.name, 7)
		if !equalBodies(uploads, again) || !equalBodies(requests, againRequests) {
			t.Errorf("%s: two builds from seed 7 differ", def.name)
		}
		other, otherRequests := bodiesOf(t, def.name, 8)
		if equalBodies(uploads, other) {
			t.Errorf("%s: seeds 7 and 8 give the same upload bodies", def.name)
		}
		// The two join_large workloads repeat one request, whatever the seed.
		if def.name == "query_mix" && equalBodies(requests, otherRequests) {
			t.Errorf("%s: seeds 7 and 8 give the same request sequence", def.name)
		}
	}
}

// Every tenth query_mix request carries a constant no other request of the
// run carries, so that it misses the plan cache.
func TestMissesAreNeverSeen(t *testing.T) {
	w, err := buildWorkload("query_mix", 3, quickSizes, 2)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]int)
	for c := 0; c < w.clients; c++ {
		for i := 0; i < 400; i++ {
			seen[string(w.request(c, i).body)]++
		}
	}
	for c := 0; c < w.clients; c++ {
		for i := missEvery - 1; i < 400; i += missEvery {
			if n := seen[string(w.request(c, i).body)]; n != 1 {
				t.Fatalf("client %d request %d: its text occurs %d times in the run", c, i, n)
			}
		}
	}
}

func TestGeneratorShapes(t *testing.T) {
	const n, domain = 20_000, 1 << 16
	top := 0
	for _, tup := range skewed(newRNG(1), n, domain, true) {
		if tup.Key >= domain {
			t.Fatalf("key %d outside the domain", tup.Key)
		}
		if tup.Key >= domain-domain/5 {
			top++
		}
	}
	if share := float64(top) / n; share < 0.78 || share > 0.82 {
		t.Errorf("high skew puts %.3f of the keys into the top fifth, want 0.8", share)
	}

	clustered := clusterByLocation(uniform(newRNG(2), n, domain), domain)
	group := func(k uint64) uint64 { return k / (domain / locationGroups) }
	for i := 1; i < len(clustered); i++ {
		if group(clustered[i].Key) < group(clustered[i-1].Key) {
			t.Fatalf("tuple %d falls into an earlier key range than its predecessor", i)
		}
	}
}
