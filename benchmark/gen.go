package main

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"

	mpsm "repro"
)

// The generators below are owned by the benchmark on purpose: the inputs of
// a gated benchmark must not change when internal/workload is edited. The
// seed passed on the command line is the only source of randomness.

// rng is a splitmix64 generator: tiny, fast and stable across Go releases
// (math/rand's streams are not part of its compatibility promise).
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng { return &rng{state: seed} }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// below returns a value in [0, n); n must be at most 2^32, which keeps the
// multiply-shift reduction exact enough for workload generation.
func (r *rng) below(n uint64) uint64 { return (r.next() >> 32) * n >> 32 }

// payloadDomain bounds every generated payload, so that payload sums of the
// evaluation query and of the aggregate templates never wrap around and the
// `X > c` filter constants select a meaningful fraction.
const payloadDomain = 1_000_000

// uniform draws n keys uniformly from [0, domain).
func uniform(r *rng, n int, domain uint64) []mpsm.Tuple {
	out := make([]mpsm.Tuple, n)
	for i := range out {
		out[i] = mpsm.Tuple{Key: r.below(domain), Payload: r.below(payloadDomain)}
	}
	return out
}

// foreignKey draws n keys from the parent's keys, so every tuple has at least
// one join partner (the paper's fact-table-references-dimension datasets).
func foreignKey(r *rng, parent []mpsm.Tuple, n int) []mpsm.Tuple {
	out := make([]mpsm.Tuple, n)
	for i := range out {
		out[i] = mpsm.Tuple{Key: parent[r.below(uint64(len(parent)))].Key, Payload: r.below(payloadDomain)}
	}
	return out
}

// skewed draws n keys with the paper's 80:20 skew (Section 5.6): 80% of the
// keys fall into one fifth of the domain — the top fifth when high is set,
// the bottom fifth otherwise — and the rest spread over the remaining 80%.
func skewed(r *rng, n int, domain uint64, high bool) []mpsm.Tuple {
	hot := domain / 5
	out := make([]mpsm.Tuple, n)
	for i := range out {
		var k uint64
		if r.below(10) < 8 {
			k = r.below(hot)
		} else {
			k = hot + r.below(domain-hot)
		}
		if high {
			k = domain - 1 - k
		}
		out[i] = mpsm.Tuple{Key: k, Payload: r.below(payloadDomain)}
	}
	return out
}

// locationGroups is the number of key ranges clusterByLocation arranges a
// relation into. It is fixed rather than tied to the worker count so that the
// inputs depend on the seed alone.
const locationGroups = 8

// clusterByLocation applies the paper's location skew (Section 5.5): tuples
// are bucketed into equally wide key ranges laid out in ascending order, and
// stay unsorted within a range, so each worker's chunk of the relation covers
// a narrow part of the key domain.
func clusterByLocation(tuples []mpsm.Tuple, domain uint64) []mpsm.Tuple {
	width := (domain + locationGroups - 1) / locationGroups
	var starts [locationGroups + 1]int
	for _, t := range tuples {
		starts[t.Key/width+1]++
	}
	for g := 0; g < locationGroups; g++ {
		starts[g+1] += starts[g]
	}
	out := make([]mpsm.Tuple, len(tuples))
	for _, t := range tuples {
		g := t.Key / width
		out[starts[g]] = t
		starts[g]++
	}
	return out
}

// input is one relation the benchmark uploads: the tuples (which the oracle
// and the traced in-process probes also read) and the exact upload body.
type input struct {
	name   string
	tuples []mpsm.Tuple
	body   []byte
	sha256 string
}

// newInput encodes the POST /v1/relations body for a relation as explicit
// tuples and fingerprints it.
func newInput(name string, tuples []mpsm.Tuple) *input {
	body := make([]byte, 0, 32+len(tuples)*22)
	body = append(body, `{"name":`...)
	body = strconv.AppendQuote(body, name)
	body = append(body, `,"tuples":[`...)
	for i, t := range tuples {
		if i > 0 {
			body = append(body, ',')
		}
		body = append(body, '[')
		body = strconv.AppendUint(body, t.Key, 10)
		body = append(body, ',')
		body = strconv.AppendUint(body, t.Payload, 10)
		body = append(body, ']')
	}
	body = append(body, "]}"...)
	sum := sha256.Sum256(body)
	return &input{name: name, tuples: tuples, body: body, sha256: hex.EncodeToString(sum[:])}
}
