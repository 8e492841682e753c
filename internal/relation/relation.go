// Package relation defines the fundamental data representation shared by all
// join algorithms in this repository: fixed-width tuples of a 64-bit join key
// and a 64-bit payload, and relations as flat tuple slices. (Sorted runs are
// columnar: see batch.Run.)
//
// The layout mirrors the evaluation setup of the MPSM paper (Albutiu et al.,
// VLDB 2012): every tuple is {joinkey: 64-bit, payload: 64-bit} with keys drawn
// from [0, 2^32). Keeping tuples as a flat slice of fixed-size structs gives
// the same sequential-scan friendliness the paper relies on.
package relation

import (
	"errors"
	"fmt"
)

// Tuple is a single row: a 64-bit join key and a 64-bit payload.
//
// The payload typically carries a record identifier or an aggregation input;
// the evaluation query of the paper computes max(R.payload + S.payload).
type Tuple struct {
	Key     uint64
	Payload uint64
}

// Relation is an in-memory table held as a flat slice of tuples.
type Relation struct {
	// Tuples is the backing storage. Algorithms may reorder it in place
	// (for example, local run sorting), but never change its multiset of
	// values unless documented otherwise.
	Tuples []Tuple

	// Name is an optional human-readable identifier used in diagnostics.
	Name string

	// Meta, when non-nil, records that the tuple keys are normalized-key
	// prefixes derived from a richer schema (see internal/keys). Exact
	// metadata means prefix order and equality are exact and tuples carry
	// caller payloads; inexact metadata means tuples carry row indices as
	// payloads and joins must verify prefix-equal pairs against FullKey.
	Meta KeyMeta
}

// KeyMeta describes how a relation's uint64 keys were derived from a key
// schema. It is declared here (and implemented by internal/keys) so that
// relation stays dependency-free while every layer that moves relations
// around can propagate the metadata.
type KeyMeta interface {
	// Exact reports whether prefix order and equality equal full-key order
	// and equality, i.e. whether the raw uint64 fast path is semantically
	// complete for this relation.
	Exact() bool
	// Signature is the canonical schema description; tie-break joins
	// require both sides to have equal signatures.
	Signature() string
	// FullKey returns row i's full normalized key. Valid only for inexact
	// metadata, where tuple payloads are row indices.
	FullKey(i int) []byte
	// UserPayload returns row i's caller-supplied payload. Valid only for
	// inexact metadata.
	UserPayload(i int) uint64
	// Describe renders a short human-readable summary for diagnostics and
	// EXPLAIN output.
	Describe() string
}

// ErrEmptyRelation is returned by operations that need at least one tuple.
var ErrEmptyRelation = errors.New("relation: empty relation")

// New returns a relation wrapping the given tuples without copying.
func New(name string, tuples []Tuple) *Relation {
	return &Relation{Name: name, Tuples: tuples}
}

// NewWithCapacity returns an empty relation with preallocated capacity.
func NewWithCapacity(name string, capacity int) *Relation {
	return &Relation{Name: name, Tuples: make([]Tuple, 0, capacity)}
}

// Len reports the number of tuples in the relation.
func (r *Relation) Len() int { return len(r.Tuples) }

// Append adds a tuple to the relation.
func (r *Relation) Append(t Tuple) { r.Tuples = append(r.Tuples, t) }

// Clone returns a deep copy of the relation. Algorithms that must not disturb
// caller-owned data (for example, benchmark harnesses reusing inputs) clone
// before running in-place phases.
func (r *Relation) Clone() *Relation {
	cp := make([]Tuple, len(r.Tuples))
	copy(cp, r.Tuples)
	return &Relation{Name: r.Name, Tuples: cp, Meta: r.Meta}
}

// MinMaxKey returns the minimum and maximum join key present in the relation.
// It returns ErrEmptyRelation for an empty relation.
func (r *Relation) MinMaxKey() (minKey, maxKey uint64, err error) {
	if len(r.Tuples) == 0 {
		return 0, 0, ErrEmptyRelation
	}
	minKey, maxKey = r.Tuples[0].Key, r.Tuples[0].Key
	for _, t := range r.Tuples[1:] {
		if t.Key < minKey {
			minKey = t.Key
		}
		if t.Key > maxKey {
			maxKey = t.Key
		}
	}
	return minKey, maxKey, nil
}

// String implements fmt.Stringer with a short diagnostic form.
func (r *Relation) String() string {
	return fmt.Sprintf("Relation{%s, %d tuples}", r.Name, len(r.Tuples))
}

// Chunk describes a contiguous region of a relation assigned to one worker.
type Chunk struct {
	// Worker is the index of the worker that owns this chunk.
	Worker int
	// Offset is the index of the first tuple of the chunk within the
	// relation's tuple slice.
	Offset int
	// Tuples aliases the relation storage for the chunk range.
	Tuples []Tuple
}

// Len reports the number of tuples in the chunk.
func (c Chunk) Len() int { return len(c.Tuples) }

// Split partitions the relation into n contiguous, almost equally sized
// chunks, one per worker. The first len(r) mod n chunks receive one extra
// tuple, so chunk sizes differ by at most one. Chunks alias the relation's
// storage; they do not copy.
//
// Split panics if n <= 0 to surface programming errors early, matching the
// behaviour of make with a negative size.
func (r *Relation) Split(n int) []Chunk {
	if n <= 0 {
		panic(fmt.Sprintf("relation: Split into %d chunks", n))
	}
	chunks := make([]Chunk, n)
	total := len(r.Tuples)
	base := total / n
	extra := total % n
	offset := 0
	for i := 0; i < n; i++ {
		size := base
		if i < extra {
			size++
		}
		chunks[i] = Chunk{
			Worker: i,
			Offset: offset,
			Tuples: r.Tuples[offset : offset+size],
		}
		offset += size
	}
	return chunks
}

// IsSortedByKey reports whether tuples are in non-decreasing key order.
func IsSortedByKey(tuples []Tuple) bool {
	for i := 1; i < len(tuples); i++ {
		if tuples[i].Key < tuples[i-1].Key {
			return false
		}
	}
	return true
}

// KeyHistogram counts the number of tuples per key. It is intended for test
// helpers validating that an algorithm preserved the multiset of tuples.
func KeyHistogram(tuples []Tuple) map[uint64]int {
	h := make(map[uint64]int, len(tuples))
	for _, t := range tuples {
		h[t.Key]++
	}
	return h
}

// SameMultiset reports whether two tuple slices contain the same multiset of
// (key, payload) pairs. It is O(n) space and intended for tests.
func SameMultiset(a, b []Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	counts := make(map[Tuple]int, len(a))
	for _, t := range a {
		counts[t]++
	}
	for _, t := range b {
		counts[t]--
		if counts[t] < 0 {
			return false
		}
	}
	return true
}
