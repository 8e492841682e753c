package exec

import (
	"context"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/relation"
	"repro/internal/sched"
	"repro/internal/sink"
)

// groupJoinValues are the projections a groupjoin case aggregates: the default
// one (no Project node, the sentinel ValueOpaque here) and every named one.
var groupJoinValues = []sink.Value{
	sink.ValueOpaque, sink.ValuePayloadSum, sink.ValueBuildPayload,
	sink.ValueProbePayload, sink.ValueBuildKey, sink.ValueProbeKey,
}

// groupJoinCase is one decoded fuzz input: a same-key join cluster over 2–4
// scan leaves under a group-by.
type groupJoinCase struct {
	leaves    [][]relation.Tuple
	agg       sink.Agg
	value     sink.Value
	rightDeep bool // Join(l0, Join(l1, …)) instead of Join(Join(l0, l1), …)
	selfJoin  bool // the last leaf is a second read of the first leaf's scan
	driver    int
	workers   int
	mode      sched.Mode
	pooled    bool
}

// decodeGroupJoinCase reads a case from fuzz bytes. Byte 0 picks the number
// of leaves and the driver, byte 1 the aggregate and the projection, byte 2
// the shape flags and the key domain, byte 3 the workers, scheduler, pool and
// which leaf byte 4 repeats 1–64 times; the rest alternate between the leaves
// as keys (255 is MaxUint64), each tuple's payload derived from its position.
func decodeGroupJoinCase(data []byte) groupJoinCase {
	n := 2 + int(data[0]%3)
	flags := data[2]
	c := groupJoinCase{
		agg:       sink.Agg(data[1] % 4),
		value:     groupJoinValues[int(data[1]/4)%len(groupJoinValues)],
		rightDeep: flags&1 != 0,
		selfJoin:  flags&2 != 0,
		driver:    int(data[0]/3) % n,
		workers:   []int{1, 2, 3, 19}[data[3]%4],
		mode:      sched.Mode(data[3] / 4 % 2),
		pooled:    data[3]&8 != 0,
		leaves:    make([][]relation.Tuple, n),
	}
	mask := uint64(1)<<(1+flags>>4%8) - 1
	for i, b := range data[5:] {
		leaf := i % n
		key := uint64(b) & mask
		switch {
		case b == 255:
			key = math.MaxUint64
		case flags&4 != 0 && leaf == n-1:
			key |= 1 << 40 // the last leaf has no partner keys
		}
		payload := uint64(b) + 1
		if flags&8 != 0 { // payloads whose sums wrap
			payload = math.MaxUint64 - uint64(i)*0x9e3779b97f4a7c15%1000
		}
		c.leaves[leaf] = append(c.leaves[leaf], relation.Tuple{Key: key, Payload: payload})
	}
	if flags&128 != 0 {
		c.leaves[1] = nil // an empty leaf
	}
	rep := int(data[3]/16) % n
	c.leaves[rep] = slices.Repeat(c.leaves[rep], 1+int(data[4]%64))
	if c.selfJoin {
		c.leaves[n-1] = c.leaves[0]
	}
	return c
}

// plan builds the case's plan; it returns the aggregate's node.
func (c groupJoinCase) plan() (*Plan, NodeID) {
	p := &Plan{}
	scans := make([]NodeID, len(c.leaves))
	for i, tuples := range c.leaves {
		if c.selfJoin && i == len(c.leaves)-1 {
			scans[i] = scans[0]
			continue
		}
		scans[i] = p.AddScan(relation.New(string(rune('a'+i)), tuples), nil)
	}
	opts := core.Options{Workers: c.workers, Scheduler: c.mode, MorselSize: 7}
	root := scans[0]
	if c.rightDeep {
		root = scans[len(scans)-1]
		for i := len(scans) - 2; i >= 0; i-- {
			root = p.AddJoin(scans[i], root, AlgorithmPMPSM, opts, core.DiskOptions{})
		}
	} else {
		for _, s := range scans[1:] {
			root = p.AddJoin(root, s, AlgorithmPMPSM, opts, core.DiskOptions{})
		}
	}
	if c.value != sink.ValueOpaque {
		root = p.AddProjectValue(root, c.value)
	}
	return p, p.AddGroupAggregate(root, c.agg)
}

// eligible is the rule the groupjoin's eligibility must follow for the case.
func (c groupJoinCase) eligible() bool {
	switch {
	case c.agg == sink.AggCount, c.value == sink.ValueBuildKey, c.value == sink.ValueProbeKey:
		return true
	case c.value == sink.ValueBuildPayload:
		return c.rightDeep || len(c.leaves) == 2 // the root's build side is a scan
	case c.value == sink.ValueProbePayload:
		return !c.rightDeep || len(c.leaves) == 2
	default: // a payload sum
		return c.agg == sink.AggSum
	}
}

// subtree groups the default projection of a join subtree by key: every
// combination of its leaves' tuples with that key, as the sum of their
// payloads.
type subtree map[uint64][]uint64

func scanRows(tuples []relation.Tuple) subtree {
	rows := subtree{}
	for _, t := range tuples {
		rows[t.Key] = append(rows[t.Key], t.Payload)
	}
	return rows
}

func joinRows(r, s subtree) subtree {
	rows := subtree{}
	for k, rp := range r {
		for _, a := range rp {
			for _, b := range s[k] {
				rows[k] = append(rows[k], a+b)
			}
		}
	}
	return rows
}

// oracle is the brute-force answer: it forms every pair of the root join from
// its two subtrees' rows, projects it and folds the projected tuples in a Go
// map. ok is false when the case defines too many pairs to enumerate.
func (c groupJoinCase) oracle() (groups []relation.Tuple, pairs int, ok bool) {
	n := len(c.leaves)
	rows := make([]subtree, n)
	for i, l := range c.leaves {
		rows[i] = scanRows(l)
	}
	total := 0
	for k := range rows[0] {
		combos := 1
		for _, r := range rows {
			combos *= len(r[k])
		}
		if total += combos; total > 1<<16 {
			return nil, 0, false
		}
	}
	build, probe := rows[0], rows[n-1]
	if c.rightDeep {
		for i := n - 2; i > 0; i-- {
			probe = joinRows(rows[i], probe)
		}
	} else {
		for _, r := range rows[1 : n-1] {
			build = joinRows(build, r)
		}
	}
	var projected []relation.Tuple
	for k, rp := range build {
		for _, r := range rp {
			for _, s := range probe[k] {
				v := r + s
				switch c.value {
				case sink.ValueBuildPayload:
					v = r
				case sink.ValueProbePayload:
					v = s
				case sink.ValueBuildKey, sink.ValueProbeKey:
					v = k
				}
				projected = append(projected, relation.Tuple{Key: k, Payload: v})
			}
		}
	}
	return referenceGroups(projected, c.agg), len(projected), true
}

// TestGroupJoinSetsThePlanWidth: scans and maps run as wide as the joins that
// run, and the joins a groupjoin replaced do not.
func TestGroupJoinSetsThePlanWidth(t *testing.T) {
	c := groupJoinCase{leaves: make([][]relation.Tuple, 3), agg: sink.AggCount, value: sink.ValueOpaque, workers: 4}
	p, aggID := c.plan()
	if w := p.workers(); w != 4 {
		t.Fatalf("plan of 4-worker joins runs scans on %d workers", w)
	}
	p.Nodes[aggID].GroupJoin = &GroupJoin{Driver: 0, Workers: 1}
	if w := p.workers(); w != 1 {
		t.Fatalf("one-worker groupjoin over 4-worker joins runs scans on %d workers", w)
	}
}

// FuzzGroupJoinDifferential runs a decoded group-by over a same-key join
// cluster forced onto a groupjoin and checks its groups and pair count against
// the brute-force oracle: every aggregate over the default and every named
// projection, 2–4 leaves in left- and right-deep trees, any leaf as the driver,
// MaxUint64 keys and payloads whose sums and products wrap, multiplicities up
// to 64, empty leaves, a leaf without partner keys, self-joins and more
// workers than keys. Where the groupjoin is ineligible, GroupJoinInputs must
// say so and a forced groupjoin must fail validation.
func FuzzGroupJoinDifferential(f *testing.F) {
	f.Add([]byte{0, 0, 0x30, 0, 0, 1, 1, 2, 2, 3, 3, 3})                             // sum of the default projection, two leaves
	f.Add([]byte{1, 3 + 4*1, 0x30, 1, 0, 5, 5, 5, 6, 6, 6, 7, 7})                    // count of the named payload sum, three leaves on two workers
	f.Add([]byte{3, 1 + 4*3, 0x30, 2 + 16*1, 63, 1, 1, 2, 2, 2, 2})                  // min of the probe payload, the driver's duplicates ×64
	f.Add([]byte{5, 2 + 4*2, 0x31, 6, 9, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3})        // max of the build payload, right-deep, morsels
	f.Add([]byte{2, 0 + 4*4, 0x20, 3, 5, 255, 255, 255, 255, 255, 255, 255, 255, 1}) // sum of MaxUint64 keys, 19 workers
	f.Add([]byte{1, 0, 0x18, 4, 20, 7, 7, 7, 7, 7, 7, 7, 7, 7})                      // sum of payloads whose sums wrap
	f.Add([]byte{0, 0 + 4*5, 0x34, 0, 0, 1, 1, 2, 2})                                // the last leaf has no partner keys
	f.Add([]byte{4, 0, 0xb0, 8, 0, 1, 1, 1, 2, 2, 2})                                // an empty leaf as the driver, pooled
	f.Add([]byte{11, 2 + 4*3, 0x42, 1 + 16*2, 40, 3, 3, 3, 3, 4, 4, 4, 4})           // self-join of four leaves
	f.Add([]byte{4, 2 + 4*1, 0x30, 2, 0, 9, 9, 9, 9, 9, 9})                          // max of a payload sum: ineligible
	f.Add([]byte{1, 0 + 4*2, 0x30, 0, 0, 1, 1, 1})                                   // sum of a join's payload: ineligible
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 || len(data) > 120 {
			return
		}
		c := decodeGroupJoinCase(data)
		p, aggID := c.plan()
		in, err := p.GroupJoinInputs(aggID)
		if (err == nil) != c.eligible() {
			t.Fatalf("%+v: GroupJoinInputs says %v, the rule says eligible=%v", c, err, c.eligible())
		}
		p.Nodes[aggID].GroupJoin = &GroupJoin{Workers: c.workers}
		if err != nil {
			if _, err := RunPlanFor(context.Background(), p, nil, nil); err == nil || !strings.Contains(err.Error(), "cannot run as a groupjoin") {
				t.Fatalf("forced groupjoin over an ineligible plan: %v", err)
			}
			return
		}
		want, pairs, ok := c.oracle()
		if !ok {
			return
		}
		p.Nodes[aggID].GroupJoin.Driver = in.Leaves[c.driver]
		var pool *memory.Pool
		if c.pooled {
			pool = memory.NewPool(1 << 24)
		}
		pr, err := RunPlanFor(context.Background(), p, pool, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := pr.Output.Tuples; len(got) != len(want) || len(got) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: groupjoin gives %v, the oracle %v", c, got, want)
		}
		if len(pr.Joins) != 1 || pr.Joins[0].Node != aggID || pr.Joins[0].Result.Matches != uint64(pairs) {
			t.Fatalf("%+v: groupjoin reports %+v, want one execution counting %d pairs", c, pr.Joins, pairs)
		}
		if st := pool.Stats(); st.ActiveLeases != 0 {
			t.Fatalf("%d leases still checked out", st.ActiveLeases)
		}
	})
}
