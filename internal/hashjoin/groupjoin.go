package hashjoin

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/numa"
	"repro/internal/relation"
	"repro/internal/result"
	"repro/internal/sched"
	"repro/internal/sink"
	"repro/internal/sorting"
)

// GroupJoinLeaf is one input of a groupjoin.
type GroupJoinLeaf struct {
	// Rel is the leaf's relation; its name labels the leaf's probe phase.
	Rel *relation.Relation
	// Carries reports that the aggregate reads the leaf's payloads; the other
	// leaves only count.
	Carries bool
}

// GroupJoinSpec is a group-by on the join key over the inner equi-join of its
// leaves: every leaf joins every other on the one key attribute.
type GroupJoinSpec struct {
	Leaves []GroupJoinLeaf
	// Driver indexes the leaf whose distinct keys the hash table holds.
	Driver int
	// Agg aggregates the payloads of the carrying leaves, or with OfKey the
	// group key itself; min and max read exactly one carrying leaf.
	Agg   sink.Agg
	OfKey bool
}

// validate rejects a spec whose aggregate does not separate into the leaves'
// per-key counts and values.
func (s GroupJoinSpec) validate() error {
	if s.Driver < 0 || s.Driver >= len(s.Leaves) {
		return fmt.Errorf("hashjoin: groupjoin driver %d out of %d leaves", s.Driver, len(s.Leaves))
	}
	if n := s.Leaves[s.Driver].Rel.Len(); n > math.MaxInt32 {
		return fmt.Errorf("hashjoin: the groupjoin chains its driver's keys through 32-bit slots, got %d tuples (at most %d)", n, math.MaxInt32)
	}
	carriers := 0
	for _, l := range s.Leaves {
		if l.Carries {
			carriers++
		}
	}
	if (s.Agg == sink.AggMin || s.Agg == sink.AggMax) && !s.OfKey && carriers != 1 {
		return fmt.Errorf("hashjoin: groupjoin %v reads %d leaves' payloads, want exactly one", s.Agg, carriers)
	}
	return nil
}

// GroupJoin computes a group-by on the join key over the inner equi-join of
// spec's leaves without forming a pair — the groupjoin of Moerkotte and
// Neumann (VLDB 2011). It sorts the driver with the run-generation sort, folds
// it into its distinct keys, builds the chained table over them and probes it
// once with every other leaf, each match folding into a per-entry (count,
// value) slot — one per worker, merged after the leaf's phase. Per key
// K, with cᵢ the number of leaf i's tuples carrying K, every product and sum
// wrapping mod 2^64 as the pairwise joins and the group-by would:
//
//	count       Πcᵢ
//	sum         Σ over carrying leaves i of sᵢ·Π_{j≠i}cⱼ, sᵢ the sum of i's payloads
//	sum of K    K·Πcᵢ
//	min, max    the carrying leaf's minimum or maximum payload; K itself of K
//
// and a group exists iff every leaf has the key — tracked per entry, never
// read off a product that may have wrapped to zero. The groups come out in
// ascending key order, from out (freshly allocated when out is nil), and the
// result reports Σ_K Πcᵢ — the pairs the join defines — as Matches, with the
// phases "build" and one "probe <leaf>" per other leaf.
func GroupJoin(ctx context.Context, spec GroupJoinSpec, opts Options, out *memory.Lease) ([]relation.Tuple, *result.Result, error) {
	if err := spec.validate(); err != nil {
		return nil, nil, err
	}
	x, err := core.Begin(ctx, "GroupJoin", opts)
	if err != nil {
		return nil, nil, err
	}
	defer x.Release()

	g := &groupJoin{spec: spec, lease: x.Lease, topo: x.Opts.Topology}
	if err := x.Record("build", x.RT.RunTasks(ctx, "build", []sched.Task{{Node: -1, Run: g.build}})); err != nil {
		return nil, nil, err
	}
	for i, leaf := range spec.Leaves {
		if i == spec.Driver {
			continue
		}
		if err := x.Record("probe "+leaf.Rel.Name, g.probe(ctx, x, leaf)); err != nil {
			return nil, nil, err
		}
	}
	// Emitting the groups ends the last phase, which reports it.
	var groups []relation.Tuple
	last := &x.Res.Phases[len(x.Res.Phases)-1]
	last.Duration += result.StopwatchPhase(func() { groups, x.Res.Matches = g.emit(out) })
	res, err := x.Finish(nil, nil)
	if err != nil {
		return nil, nil, err
	}
	return groups, res, nil
}

// groupJoin is the state of one groupjoin: the table over the driver's
// distinct keys and, per entry, what the leaves folded so far have made of it.
type groupJoin struct {
	spec  GroupJoinSpec
	lease *memory.Lease
	topo  numa.Topology
	table chainTable
	// entries are the driver's distinct keys, ascending; an entry's Payload is
	// 1 while every leaf folded so far has its key and 0 after one lacks it.
	entries []relation.Tuple
	// state holds per entry the product of the folded leaves' counts in Key
	// and the aggregate so far in Payload.
	state []relation.Tuple
}

// build sorts the driver into key and payload columns, folds them into the
// distinct keys with the driver's count and, if it carries, its aggregate,
// and inserts the keys, distinct by construction, into the table with plain
// stores: one worker builds.
func (g *groupJoin) build(w *sched.Worker) {
	driver := g.spec.Leaves[g.spec.Driver]
	n := driver.Rel.Len()
	keys, pays := g.lease.Uint64s(n), g.lease.Uint64s(n)
	sorting.SortTuplesIntoColumns(driver.Rel.Tuples, keys, pays, g.lease)
	distinct := 0
	for i, k := range keys {
		if i == 0 || k != keys[i-1] {
			distinct++
		}
	}
	g.entries, g.state = g.lease.Tuples(distinct), g.lease.Tuples(distinct)
	agg := g.foldOf(driver)
	for i, e := 0, 0; i < n; e++ {
		key, val, count := keys[i], pays[i], uint64(1)
		for i++; i < n && keys[i] == key; i++ {
			val = agg.Merge(val, pays[i])
			count++
		}
		g.entries[e] = relation.Tuple{Key: key, Payload: 1}
		g.state[e] = relation.Tuple{Key: count}
		if driver.Carries {
			g.state[e].Payload = val
		}
	}
	g.lease.PutUint64s(keys)
	g.lease.PutUint64s(pays)
	g.table = newChainTable(g.entries, g.lease)
	g.table.insert(0, distinct, false, nil)
	chargeInterleaved(w.Tracker(), g.topo, uint64(distinct), (*numa.Tracker).RandWrite)
}

// foldOf is how a leaf's accumulators merge its payloads: under the aggregate
// where the leaf carries it, by a sum nobody reads where the leaf only counts.
func (g *groupJoin) foldOf(leaf GroupJoinLeaf) sink.Agg {
	if leaf.Carries {
		return g.spec.Agg
	}
	return sink.AggSum
}

// probe runs one leaf's phase: every worker probes its share of the leaf into
// its own slots (chainTable.foldProbe), which settle then merges into the
// state. The phase's time includes filling the slots before and settling
// them after.
func (g *groupJoin) probe(ctx context.Context, x *core.Exec, leaf GroupJoinLeaf) time.Duration {
	agg := g.foldOf(leaf)
	empty := uint64(0)
	if agg == sink.AggMin {
		empty = math.MaxUint64
	}
	slots := make([][]uint64, x.Opts.Workers)
	d := result.StopwatchPhase(func() {
		for w := range slots {
			slots[w] = g.lease.Uint64s(slotWords * (len(g.entries) + 1))
			slots[w][1] = 0 // the sentinel counts the tuples without a partner
			for e, entry := range g.entries {
				slot := slots[w][slotWords*(e+1):][:3]
				slot[0], slot[1], slot[2] = entry.Key, 0, empty
			}
		}
	})
	d += runChunks(ctx, x, "probe "+leaf.Rel.Name, leaf.Rel.Split(x.Opts.Workers), func(_ context.Context, block relation.Chunk, w *sched.Worker) {
		inspected := g.table.foldProbe(ctx, block.Tuples, slots[w.ID()], agg)
		if tracker := w.Tracker(); tracker != nil {
			tracker.SeqRead(tracker.Node(), uint64(block.Len()))
			chargeInterleaved(tracker, g.topo, inspected+uint64(block.Len()), (*numa.Tracker).RandRead)
		}
	})
	d += result.StopwatchPhase(func() { g.settle(slots, leaf.Carries, agg) })
	for _, s := range slots {
		g.lease.PutUint64s(s)
	}
	return d
}

// settle merges the workers' slots of one leaf and folds them into the state:
// an entry the leaf lacks is out, the others multiply their product by the
// leaf's count, and a sum becomes acc·c + s·Π — the leaf's payloads count
// once per combination of the leaves before it, the sum so far once per tuple
// of the leaf.
func (g *groupJoin) settle(slots [][]uint64, carries bool, agg sink.Agg) {
	for e := range g.entries {
		at := slotWords * (e + 1)
		c, v := slots[0][at+1], slots[0][at+2]
		for _, s := range slots[1:] {
			c += s[at+1]
			v = agg.Merge(v, s[at+2])
		}
		if c == 0 {
			g.entries[e].Payload = 0
			continue
		}
		st := &g.state[e]
		switch {
		case g.spec.Agg != sink.AggSum:
			if carries {
				st.Payload = v
			}
		case carries:
			st.Payload = st.Payload*c + v*st.Key
		default:
			st.Payload *= c
		}
		st.Key *= c
	}
}

// emit writes one {key, aggregate} tuple per entry every leaf has, in key
// order, and returns them with the number of pairs the join defines.
func (g *groupJoin) emit(out *memory.Lease) ([]relation.Tuple, uint64) {
	n, pairs := 0, uint64(0)
	for e, entry := range g.entries {
		if entry.Payload != 0 {
			n++
			pairs += g.state[e].Key
		}
	}
	groups := out.Tuples(n)
	i := 0
	for e, entry := range g.entries {
		if entry.Payload == 0 {
			continue
		}
		st, val := g.state[e], g.state[e].Payload
		switch {
		case g.spec.Agg == sink.AggCount:
			val = st.Key
		case g.spec.OfKey && g.spec.Agg == sink.AggSum:
			val = entry.Key * st.Key
		case g.spec.OfKey:
			val = entry.Key
		}
		groups[i] = relation.Tuple{Key: entry.Key, Payload: val}
		i++
	}
	return groups, pairs
}
