package mergejoin

import (
	"context"
	"fmt"

	"repro/internal/batch"
	"repro/internal/memory"
	"repro/internal/relation"
	"repro/internal/sched"
)

// Kind selects the join semantics of the MPSM variants. The paper's future
// work section names outer, semi and anti joins as the natural extensions of
// the algorithm; they all fit the MPSM structure because every private tuple
// is owned by exactly one worker, which sees all of that tuple's potential
// match partners across the public runs.
type Kind int

const (
	// Inner emits one result per matching (r, s) pair.
	Inner Kind = iota
	// LeftOuter emits every matching pair plus, for every private tuple
	// without a match, one result with the zero public tuple (the NULL
	// convention of this library).
	LeftOuter
	// Semi emits every private tuple that has at least one match, exactly
	// once, paired with the zero public tuple.
	Semi
	// Anti emits every private tuple that has no match, paired with the
	// zero public tuple.
	Anti
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Inner:
		return "inner"
	case LeftOuter:
		return "left-outer"
	case Semi:
		return "semi"
	case Anti:
		return "anti"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Valid reports whether k is a known join kind.
func (k Kind) Valid() bool { return k >= Inner && k <= Anti }

// Marker turns the one merge kernel into a left-outer, semi or anti join. The
// non-inner kinds classify private key groups rather than pair tuples, so
// they are a consumer in front of the kernel, not a kernel of their own: the
// marker takes the range entries JoinColumnsBand/JoinColumnsWithSkip emit for
// one private run (or segment of one) across all public runs, records which
// private key groups found a partner, and passes the entries on to the sink
// writer (LeftOuter: outer output contains every inner match) or swallows
// them (Semi, Anti: a fold that never expands an entry nor reads a payload).
// After the last public run — only then is a group that matches in the final
// run classified correctly — Finish reports the unmatched (LeftOuter, Anti)
// or matched (Semi) groups as ordinary range entries against the null run
// {0, 0}: aggregates fold them with the code they fold matches with, and
// pair-taking sinks walk them as (r, relation.Tuple{}) per private tuple.
//
// One mark per private position, set at the group's first tuple, is drawn
// from the join's lease; a Marker serves one private run and one goroutine.
type Marker struct {
	kind         Kind
	rKeys, rPays []uint64
	out          RangeConsumer
	sc           *batch.Scratch
	lease        *memory.Lease
	marks        []uint64 // bitset over private positions
}

// nullRun is both columns of the one-tuple public run {0, 0} that stands for
// "no partner" in the entries Finish emits.
var nullRun = []uint64{0}

// NewMarker returns the marker of one private run for a LeftOuter, Semi or
// Anti join; Inner joins hand the kernel the sink writer itself. The kernel
// calls that use the marker as their consumer must join exactly
// rKeys/rPays, through sc.
func NewMarker(kind Kind, rKeys, rPays []uint64, out RangeConsumer, sc *batch.Scratch, lease *memory.Lease) *Marker {
	if kind != LeftOuter && kind != Semi && kind != Anti {
		panic(fmt.Sprintf("mergejoin: no marker for join kind %d", int(kind)))
	}
	marks := lease.Uint64s((len(rKeys) + 63) / 64)
	clear(marks) // leased buffers have unspecified contents
	return &Marker{kind: kind, rKeys: rKeys, rPays: rPays, out: out, sc: sc, lease: lease, marks: marks}
}

// ConsumeRanges implements RangeConsumer: every entry is a private key group
// with a partner.
func (m *Marker) ConsumeRanges(b *batch.Ranges) {
	for _, i := range b.I {
		m.marks[i>>6] |= 1 << (uint(i) & 63)
	}
	if m.kind == LeftOuter {
		m.out.ConsumeRanges(b)
	}
}

// Finish emits the classification pass and hands the marks back to the lease;
// call it once, after the last public run. A cancelled join emits nothing
// further — its marks are incomplete, and the caller discards the partial
// result.
func (m *Marker) Finish(ctx context.Context) {
	defer m.lease.PutUint64s(m.marks)
	if len(m.rKeys) == 0 || sched.Canceled(ctx) {
		return
	}
	wantMatched := m.kind == Semi
	b := m.sc.Ranges(m.rKeys, m.rPays, nullRun, nullRun)
	is, iEnds, los, his := b.I, b.IEnd, b.Lo, b.Hi
	n, pairs := 0, uint64(0)
	for i := 0; i < len(m.rKeys); {
		iEnd := i + 1
		for iEnd < len(m.rKeys) && m.rKeys[iEnd] == m.rKeys[i] {
			iEnd++
		}
		if matched := m.marks[i>>6]>>(uint(i)&63)&1 != 0; matched == wantMatched {
			is[n], iEnds[n], los[n], his[n] = int32(i), int32(iEnd), 0, 1
			pairs += uint64(iEnd - i)
			n++
			if n == len(is) {
				m.out.ConsumeRanges(b.Head(n, pairs))
				n, pairs = 0, 0
			}
		}
		i = iEnd
	}
	if n > 0 {
		m.out.ConsumeRanges(b.Head(n, pairs))
	}
}

// ReferenceJoinKind is the differential oracle of the join kinds: a
// straightforward hash-based implementation of every one of them.
func ReferenceJoinKind(kind Kind, r, s []relation.Tuple, out Consumer) {
	switch kind {
	case Inner:
		ReferenceJoin(r, s, out)
		return
	}
	sKeys := make(map[uint64][]relation.Tuple, len(s))
	for _, t := range s {
		sKeys[t.Key] = append(sKeys[t.Key], t)
	}
	for _, rt := range r {
		partners := sKeys[rt.Key]
		switch kind {
		case LeftOuter:
			if len(partners) == 0 {
				out.Consume(rt, relation.Tuple{})
				continue
			}
			for _, st := range partners {
				out.Consume(rt, st)
			}
		case Semi:
			if len(partners) > 0 {
				out.Consume(rt, relation.Tuple{})
			}
		case Anti:
			if len(partners) == 0 {
				out.Consume(rt, relation.Tuple{})
			}
		}
	}
}
