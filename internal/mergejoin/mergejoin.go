// Package mergejoin implements the merge-join kernel of the MPSM variants:
// joining one sorted private run against a sorted public run, emitting every
// matching (r, s) tuple pair to a consumer.
//
// There is one production kernel, over column runs: JoinColumnsBand
// (columns.go) handles duplicate keys on both sides (n:m match groups) and
// band predicates, emits a range entry per matching key group, and behind
// JoinColumnsWithSkip uses interpolation search to enter each public run at
// the window the private run can reach (Section 3.2.2 of the paper). The
// outer, semi and anti joins are a consumer in front of it (Marker,
// kinds.go). Nothing is materialized unless the consumer chooses to. Its
// equi-join folded into the paper's count and max-sum, FoldColumns, walks the
// same cursors and emits nothing.
//
// Every join hands its sink writer range batches (RangeConsumer) or, folded,
// one (count, max) a task; a writer that takes pairs is walked pair by pair
// behind Pairs. The row kernels stay under their names for the tests and the
// benchmark only: Join and JoinBand are the row-at-a-time siblings the tests
// check the column kernel against pair for pair, and benchmark probes;
// ReferenceJoin, ReferenceJoinKind and ReferenceJoinBand are the differential
// oracles, which share nothing with any kernel. No join of the engine calls
// them.
package mergejoin

import "repro/internal/relation"

// Consumer receives every joined tuple pair. Implementations decide whether
// to aggregate, count, or materialize. Consumers are not required to be safe
// for concurrent use; MPSM gives every worker its own consumer and merges
// results afterwards.
type Consumer interface {
	// Consume is called once per matching (r, s) pair.
	Consume(r, s relation.Tuple)
}

// MaxAggregate implements the paper's evaluation query
//
//	SELECT max(R.payload + S.payload) FROM R, S WHERE R.joinkey = S.joinkey
//
// It also counts the number of joined pairs, which tests use to validate join
// cardinality across algorithms.
type MaxAggregate struct {
	// Count is the number of result tuples consumed.
	Count uint64
	// Max is the largest R.payload + S.payload seen; only valid if Count > 0.
	Max uint64
}

// Consume implements Consumer.
func (m *MaxAggregate) Consume(r, s relation.Tuple) {
	sum := r.Payload + s.Payload
	if m.Count == 0 || sum > m.Max {
		m.Max = sum
	}
	m.Count++
}

// Merge folds another partial aggregate into m. Workers aggregate locally and
// the coordinator merges, so no synchronization is needed during the join.
func (m *MaxAggregate) Merge(other MaxAggregate) {
	if other.Count == 0 {
		return
	}
	if m.Count == 0 || other.Max > m.Max {
		m.Max = other.Max
	}
	m.Count += other.Count
}

// JoinedTuple is one materialized join result.
type JoinedTuple struct {
	Key      uint64
	RPayload uint64
	SPayload uint64
}

// Materializer collects all joined pairs. It is intended for tests and small
// examples; production queries should aggregate instead.
type Materializer struct {
	Out []JoinedTuple
}

// Consume implements Consumer.
func (m *Materializer) Consume(r, s relation.Tuple) {
	m.Out = append(m.Out, JoinedTuple{Key: r.Key, RPayload: r.Payload, SPayload: s.Payload})
}

// Counter counts joined pairs without retaining them.
type Counter struct {
	Count uint64
}

// Consume implements Consumer.
func (c *Counter) Consume(r, s relation.Tuple) { c.Count++ }

// Join merge joins two key-sorted tuple slices and feeds every matching pair
// to the consumer. Both inputs must be sorted by ascending key; duplicate keys
// on either side produce the full cross product of their match groups.
func Join(private, public []relation.Tuple, out Consumer) {
	i, j := 0, 0
	for i < len(private) && j < len(public) {
		rk, sk := private[i].Key, public[j].Key
		switch {
		case rk < sk:
			i++
		case rk > sk:
			j++
		default:
			iEnd := i + 1
			for iEnd < len(private) && private[iEnd].Key == rk {
				iEnd++
			}
			jEnd := j + 1
			for jEnd < len(public) && public[jEnd].Key == rk {
				jEnd++
			}
			for a := i; a < iEnd; a++ {
				for b := j; b < jEnd; b++ {
					out.Consume(private[a], public[b])
				}
			}
			i, j = iEnd, jEnd
		}
	}
}

// ReferenceJoin is a deliberately simple hash-based equi-join used as the
// correctness oracle in tests: it requires no sort order and no partitioning,
// and therefore cannot share bugs with the algorithms under test.
func ReferenceJoin(r, s []relation.Tuple, out Consumer) {
	byKey := make(map[uint64][]relation.Tuple, len(r))
	for _, t := range r {
		byKey[t.Key] = append(byKey[t.Key], t)
	}
	for _, st := range s {
		for _, rt := range byKey[st.Key] {
			out.Consume(rt, st)
		}
	}
}
