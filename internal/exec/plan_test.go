package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/mergejoin"
	"repro/internal/relation"
	"repro/internal/sched"
	"repro/internal/sink"
	"repro/internal/workload"
)

// collectConsumer materializes default-projected pairs for reference joins.
type collectConsumer struct{ rows []relation.Tuple }

func (c *collectConsumer) Consume(r, s relation.Tuple) {
	c.rows = append(c.rows, sink.DefaultProjection(r, s))
}

// referenceGroups is the brute-force group-by oracle: a Go map fold and a
// sort by key, sharing no code with the sort-based kernel.
func referenceGroups(tuples []relation.Tuple, agg sink.Agg) []relation.Tuple {
	groups := make(map[uint64]uint64)
	for _, t := range tuples {
		acc, seen := groups[t.Key]
		switch {
		case agg == sink.AggCount:
			acc++
		case !seen || agg == sink.AggMin && t.Payload < acc || agg == sink.AggMax && t.Payload > acc:
			acc = t.Payload
		case agg == sink.AggSum:
			acc += t.Payload
		}
		groups[t.Key] = acc
	}
	out := make([]relation.Tuple, 0, len(groups))
	for k, v := range groups {
		out = append(out, relation.Tuple{Key: k, Payload: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// referenceThreeWayGroups computes the oracle for (R ⋈ S) ⋈ T followed by a
// group-by aggregation: pairwise reference joins (which share no code with
// the plan executor's join path) plus the map oracle.
func referenceThreeWayGroups(r, s, tr *relation.Relation, agg sink.Agg) []relation.Tuple {
	var j1 collectConsumer
	mergejoin.ReferenceJoin(r.Tuples, s.Tuples, &j1)
	var j2 collectConsumer
	mergejoin.ReferenceJoin(j1.rows, tr.Tuples, &j2)
	return referenceGroups(j2.rows, agg)
}

// threeWayPlan builds Scan(R), Scan(S), Scan(T) → (R ⋈ S) ⋈ T →
// GroupAggregate(agg) with the given algorithm for the first join and P-MPSM
// for the second.
func threeWayPlan(r, s, tr *relation.Relation, alg Algorithm, mode sched.Mode, agg sink.Agg) *Plan {
	opts := core.Options{Workers: 4, Scheduler: mode}
	p := &Plan{}
	rID := p.AddScan(r, nil)
	sID := p.AddScan(s, nil)
	tID := p.AddScan(tr, nil)
	j1 := p.AddJoin(rID, sID, alg, opts, core.DiskOptions{PageSize: 256, PageBudget: 8})
	j2 := p.AddJoin(j1, tID, AlgorithmPMPSM, opts, core.DiskOptions{})
	p.AddGroupAggregate(j2, agg)
	return p
}

func TestThreeWayPlanParityAllAlgorithmsAndSchedulers(t *testing.T) {
	r, s := dataset(1200, 2, 21)
	tRel, _ := dataset(1200, 2, 21) // same seed: T shares R's key population
	tRel.Name = "T"

	want := referenceThreeWayGroups(r, s, tRel, sink.AggSum)
	if len(want) == 0 {
		t.Fatal("reference produced no groups; dataset broken")
	}

	algorithms := []Algorithm{AlgorithmPMPSM, AlgorithmBMPSM, AlgorithmDMPSM, AlgorithmWisconsin, AlgorithmRadix}
	for _, alg := range algorithms {
		for _, mode := range []sched.Mode{sched.Static, sched.Morsel} {
			pr, err := RunPlan(context.Background(), threeWayPlan(r, s, tRel, alg, mode, sink.AggSum), nil)
			if err != nil {
				t.Fatalf("%v/%v: %v", alg, mode, err)
			}
			if !reflect.DeepEqual(pr.Output.Tuples, want) {
				t.Fatalf("%v/%v: aggregated groups diverge from the pairwise reference (%d vs %d groups)",
					alg, mode, pr.Output.Len(), len(want))
			}
			if len(pr.Joins) != 2 {
				t.Fatalf("%v/%v: recorded %d join executions, want 2", alg, mode, len(pr.Joins))
			}
			if alg == AlgorithmDMPSM && pr.Joins[0].Disk == nil && pr.Joins[1].Disk == nil {
				t.Fatalf("%v/%v: no disk stats recorded for the D-MPSM join", alg, mode)
			}
		}
	}
}

func TestThreeWayPlanParityWithPoolAndFilters(t *testing.T) {
	r, s := dataset(1500, 2, 33)
	tRel, _ := dataset(1500, 2, 33)
	tRel.Name = "T"
	pred := KeyRangePredicate(0, 1<<31)

	fr, _ := applyScanFilter(context.Background(), r, nil, pred, 1, nil)
	fs, _ := applyScanFilter(context.Background(), s, nil, pred, 1, nil)
	want := referenceThreeWayGroups(fr, fs, tRel, sink.AggSum)

	pool := memory.NewPool(0)
	p := &Plan{}
	rID := p.AddScan(r, pred)
	sID := p.AddScan(s, pred)
	tID := p.AddScan(tRel, nil)
	j1 := p.AddJoin(rID, sID, AlgorithmPMPSM, core.Options{Workers: 4}, core.DiskOptions{})
	j2 := p.AddJoin(j1, tID, AlgorithmPMPSM, core.Options{Workers: 4}, core.DiskOptions{})
	p.AddGroupAggregate(j2, sink.AggSum)

	// Run twice: the second execution reuses the first one's pooled buffers.
	for run := 0; run < 2; run++ {
		pr, err := RunPlan(context.Background(), p, pool)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if !reflect.DeepEqual(pr.Output.Tuples, want) {
			t.Fatalf("run %d: pooled plan diverges from reference", run)
		}
		if pr.Rows[rID] != fr.Len() || pr.Rows[sID] != fs.Len() {
			t.Fatalf("run %d: scan rows (%d, %d), want (%d, %d)", run, pr.Rows[rID], pr.Rows[sID], fr.Len(), fs.Len())
		}
	}
	if st := pool.Stats(); st.Hits == 0 {
		t.Fatal("second pooled execution never reused a buffer")
	}
}

// pairConsumer materializes raw pairs for the differential oracle.
type pairConsumer struct{ pairs []sink.Pair }

func (c *pairConsumer) Consume(r, s relation.Tuple) { c.pairs = append(c.pairs, sink.Pair{R: r, S: s}) }

// aggregateInputs are the key distributions the fused aggregate is pinned on.
func aggregateInputs(seed uint64) map[string][2]*relation.Relation {
	const domain = 1 << 20
	fk := func(r *relation.Relation, n int) *relation.Relation {
		return workload.ForeignKeyRelation("S", r, n, seed+1)
	}
	fixed := func(name string, n int, key func(i int) uint64) *relation.Relation {
		rng := workload.NewRNG(seed + 2)
		tuples := make([]relation.Tuple, n)
		for i := range tuples {
			tuples[i] = relation.Tuple{Key: key(i), Payload: rng.Next()}
		}
		return relation.New(name, tuples)
	}
	uniform := workload.UniformRelation("R", 3000, domain, seed)
	skewed := workload.SkewedRelation("R", 3000, domain, workload.SkewHigh80, seed)
	maxKeys := fixed("R", 600, func(i int) uint64 { return math.MaxUint64 - uint64(i%200) })
	one := fixed("R", 1, func(int) uint64 { return 9 })
	return map[string][2]*relation.Relation{
		"uniform":        {uniform, fk(uniform, 12000)},
		"skew80:20":      {skewed, workload.SkewedRelation("S", 12000, domain, workload.SkewLow80, seed+1)},
		"all-equal":      {fixed("R", 60, func(int) uint64 { return 7 }), fixed("S", 300, func(int) uint64 { return 7 })},
		"max-keys":       {maxKeys, fk(maxKeys, 1800)},
		"empty":          {relation.New("R", nil), fk(uniform, 100)},
		"one":            {one, fk(one, 1)},
		"workers>tuples": {fixed("R", 3, func(i int) uint64 { return uint64(i) }), fixed("S", 5, func(i int) uint64 { return uint64(i % 3) })},
	}
}

// TestFusedAggregateMatchesMapOracle is the differential test of the group-by
// kernel fused into a join: every aggregate above every producer, under both
// schedulers, directly and through each kind of projection, over the edge
// distributions, must equal the brute-force oracle (reference join, projection,
// map fold) in strictly ascending key order.
func TestFusedAggregateMatchesMapOracle(t *testing.T) {
	const seed = 926
	// The compiler's four projections go into the plan by name, as compiled
	// queries put them, so the MPSM merge phases fold whole match ranges over
	// them (and over "none", the default projection); "user" is a closure and
	// must see every pair.
	type projection struct {
		value sink.Value
		fn    sink.Projection
	}
	projections := map[string]projection{
		"none":   {},
		"build":  {value: sink.ValueBuildPayload},
		"probe":  {value: sink.ValueProbePayload},
		"key":    {value: sink.ValueBuildKey},
		"key-of": {value: sink.ValueProbeKey},
		"user": {fn: func(r, s relation.Tuple) relation.Tuple {
			return relation.Tuple{Key: s.Payload % 1000, Payload: r.Payload ^ s.Key}
		}},
	}
	algorithms := []Algorithm{AlgorithmPMPSM, AlgorithmBMPSM, AlgorithmDMPSM, AlgorithmWisconsin, AlgorithmRadix}
	pool := memory.NewPool(0)
	for dist, in := range aggregateInputs(seed) {
		r, s := in[0], in[1]
		var ref pairConsumer
		mergejoin.ReferenceJoin(r.Tuples, s.Tuples, &ref)
		for pname, proj := range projections {
			project := sink.DefaultProjection
			if proj.fn != nil {
				project = proj.fn
			} else if proj.value != sink.ValueOpaque {
				project = proj.value.Projection()
			}
			projected := make([]relation.Tuple, len(ref.pairs))
			for i, p := range ref.pairs {
				projected[i] = project(p.R, p.S)
			}
			for _, agg := range []sink.Agg{sink.AggSum, sink.AggMin, sink.AggMax, sink.AggCount} {
				want := referenceGroups(projected, agg)
				for _, alg := range algorithms {
					for _, mode := range []sched.Mode{sched.Static, sched.Morsel} {
						p := &Plan{}
						in := p.AddJoin(p.AddScan(r, nil), p.AddScan(s, nil), alg,
							core.Options{Workers: 4, Scheduler: mode, MorselSize: 512}, core.DiskOptions{PageSize: 256, PageBudget: 8})
						if proj.fn != nil {
							in = p.AddProject(in, proj.fn)
						} else if proj.value != sink.ValueOpaque {
							in = p.AddProjectValue(in, proj.value)
						}
						p.AddGroupAggregate(in, agg)
						label := fmt.Sprintf("seed=%d dist=%s projection=%s agg=%v alg=%v sched=%v", seed, dist, pname, agg, alg, mode)
						pr, err := RunPlan(context.Background(), p, pool)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						got := pr.Output.Tuples
						for i := 1; i < len(got); i++ {
							if got[i].Key <= got[i-1].Key {
								t.Fatalf("%s: keys not strictly ascending at %d", label, i)
							}
						}
						if len(got) != len(want) || len(got) > 0 && !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: %d groups diverge from the oracle's %d", label, len(got), len(want))
						}
						if pr.Joins[0].Result.Matches != uint64(len(ref.pairs)) {
							t.Fatalf("%s: join counted %d pairs, reference has %d", label, pr.Joins[0].Result.Matches, len(ref.pairs))
						}
					}
				}
			}
		}
	}
	if err := pool.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestAggregateOverMaterializedInputs: above a scan, a map or another
// aggregate the kernel folds the materialized tuples, and reports its time.
func TestAggregateOverMaterializedInputs(t *testing.T) {
	r, _ := dataset(40000, 1, 77)
	halve := func(t relation.Tuple) relation.Tuple { return relation.Tuple{Key: t.Key / 2, Payload: t.Payload} }
	mapped := make([]relation.Tuple, r.Len())
	for i, tup := range r.Tuples {
		mapped[i] = halve(tup)
	}
	for _, pool := range []*memory.Pool{nil, memory.NewPool(0)} {
		p := &Plan{}
		inner := p.AddGroupAggregate(p.AddMap(p.AddScan(r, nil), halve), sink.AggMax)
		outer := p.AddGroupAggregate(p.AddMap(inner, halve), sink.AggCount)
		pr, err := RunPlan(context.Background(), p, pool)
		if err != nil {
			t.Fatal(err)
		}
		firstLevel := referenceGroups(mapped, sink.AggMax)
		for i := range firstLevel {
			firstLevel[i] = halve(firstLevel[i])
		}
		if want := referenceGroups(firstLevel, sink.AggCount); !reflect.DeepEqual(pr.Output.Tuples, want) {
			t.Fatalf("nested aggregate diverges from the oracle (%d vs %d groups)", pr.Output.Len(), len(want))
		}
		if pr.Rows[inner] != len(firstLevel) {
			t.Fatalf("inner aggregate reported %d rows, want %d", pr.Rows[inner], len(firstLevel))
		}
		if pr.AggTimes[inner] <= 0 || pr.AggTimes[outer] <= 0 {
			t.Fatalf("aggregate times not recorded: %v", pr.AggTimes)
		}
	}
}

func TestPlanMapAndProject(t *testing.T) {
	r, s := dataset(600, 2, 66)
	double := func(t relation.Tuple) relation.Tuple {
		return relation.Tuple{Key: t.Key, Payload: 2 * t.Payload}
	}
	keyOnly := func(rt, st relation.Tuple) relation.Tuple {
		return relation.Tuple{Key: rt.Key, Payload: rt.Key}
	}

	p := &Plan{}
	j := p.AddJoin(p.AddScan(r, nil), p.AddScan(s, nil), AlgorithmBMPSM, core.Options{Workers: 2}, core.DiskOptions{})
	proj := p.AddProject(j, keyOnly)
	p.AddMap(proj, double)
	pr, err := RunPlan(context.Background(), p, nil)
	if err != nil {
		t.Fatal(err)
	}

	var pairs collectConsumer
	mergejoin.ReferenceJoin(r.Tuples, s.Tuples, &pairs)
	want := make([]relation.Tuple, len(pairs.rows))
	for i, row := range pairs.rows {
		want[i] = relation.Tuple{Key: row.Key, Payload: 2 * row.Key}
	}
	if !relation.SameMultiset(pr.Output.Tuples, want) {
		t.Fatal("Project+Map output diverges from reference")
	}
}

func TestPlanValidationErrors(t *testing.T) {
	r, s := dataset(50, 1, 77)
	opts := core.Options{Workers: 2}

	scanJoin := func() (*Plan, NodeID) {
		p := &Plan{}
		j := p.AddJoin(p.AddScan(r, nil), p.AddScan(s, nil), AlgorithmPMPSM, opts, core.DiskOptions{})
		return p, j
	}

	cases := []struct {
		name string
		plan func() *Plan
		want string
	}{
		{"empty plan", func() *Plan { return &Plan{} }, "empty plan"},
		{"self cycle", func() *Plan {
			return &Plan{Nodes: []PlanNode{
				{Kind: NodeMap, Inputs: []NodeID{0}, MapFn: func(t relation.Tuple) relation.Tuple { return t }},
			}}
		}, "cycle"},
		{"two-node cycle", func() *Plan {
			id := func(t relation.Tuple) relation.Tuple { return t }
			return &Plan{Nodes: []PlanNode{
				{Kind: NodeMap, Inputs: []NodeID{1}, MapFn: id},
				{Kind: NodeMap, Inputs: []NodeID{0}, MapFn: id},
			}}
		}, "cycle"},
		{"dangling input", func() *Plan {
			return &Plan{Nodes: []PlanNode{
				{Kind: NodeScan, Rel: r},
				{Kind: NodeGroupAggregate, Inputs: []NodeID{7}, Agg: sink.AggSum},
			}}
		}, "dangling input"},
		{"multiple roots", func() *Plan {
			p := &Plan{}
			p.AddScan(r, nil)
			p.AddScan(s, nil)
			return p
		}, "multiple roots"},
		{"shared non-scan output", func() *Plan {
			p, j := scanJoin()
			a := p.AddGroupAggregate(j, sink.AggSum)
			m1 := p.AddMap(a, func(t relation.Tuple) relation.Tuple { return t })
			m2 := p.AddMap(a, func(t relation.Tuple) relation.Tuple { return t })
			p.AddJoin(m1, m2, AlgorithmPMPSM, opts, core.DiskOptions{})
			return p
		}, "only scans may be shared"},
		{"sink above non-join", func() *Plan {
			p := &Plan{}
			p.AddSink(p.AddScan(r, nil), nil)
			return p
		}, "must sit directly above a join"},
		{"sink consumed", func() *Plan {
			p, j := scanJoin()
			snk := p.AddSink(j, nil)
			p.AddMap(snk, func(t relation.Tuple) relation.Tuple { return t })
			return p
		}, "consumes a sink"},
		{"project above non-join", func() *Plan {
			p := &Plan{}
			p.AddProject(p.AddScan(r, nil), sink.DefaultProjection)
			return p
		}, "must sit directly above a join"},
		{"map above join", func() *Plan {
			p, j := scanJoin()
			p.AddMap(j, func(t relation.Tuple) relation.Tuple { return t })
			return p
		}, "tuple-producing input"},
		{"scan without relation", func() *Plan {
			p := &Plan{}
			p.AddScan(nil, nil)
			return p
		}, "no relation"},
		{"join arity", func() *Plan {
			return &Plan{Nodes: []PlanNode{
				{Kind: NodeScan, Rel: r},
				{Kind: NodeJoin, Inputs: []NodeID{0}, Algorithm: AlgorithmPMPSM},
			}}
		}, "inputs, want 2"},
		{"unknown aggregate", func() *Plan {
			p, j := scanJoin()
			p.AddGroupAggregate(j, sink.Agg(9))
			return p
		}, "unknown aggregate"},
		{"unknown algorithm", func() *Plan {
			p := &Plan{}
			p.AddJoin(p.AddScan(r, nil), p.AddScan(s, nil), Algorithm(42), opts, core.DiskOptions{})
			return p
		}, "unknown algorithm"},
		{"non-inner kind on hash join", func() *Plan {
			p := &Plan{}
			p.AddJoin(p.AddScan(r, nil), p.AddScan(s, nil), AlgorithmRadix,
				core.Options{Kind: mergejoin.Semi}, core.DiskOptions{})
			return p
		}, "only supported by the B-MPSM and P-MPSM"},
		{"non-inner kind below a second join", func() *Plan {
			p := &Plan{}
			j1 := p.AddJoin(p.AddScan(r, nil), p.AddScan(s, nil), AlgorithmPMPSM,
				core.Options{Kind: mergejoin.LeftOuter}, core.DiskOptions{})
			p.AddJoin(j1, p.AddScan(s, nil), AlgorithmPMPSM, opts, core.DiskOptions{})
			return p
		}, "below another join"},
		{"band with non-inner kind", func() *Plan {
			p := &Plan{}
			p.AddJoin(p.AddScan(r, nil), p.AddScan(s, nil), AlgorithmPMPSM,
				core.Options{Band: 5, Kind: mergejoin.Anti}, core.DiskOptions{})
			return p
		}, "band joins require an inner join kind"},
	}
	for _, tc := range cases {
		_, err := RunPlan(context.Background(), tc.plan(), nil)
		if err == nil {
			t.Errorf("%s: invalid plan accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestPlanNonInnerKindAboveAggregateAllowed(t *testing.T) {
	r, s := dataset(400, 1, 88)
	p := &Plan{}
	j := p.AddJoin(p.AddScan(r, nil), p.AddScan(s, nil), AlgorithmPMPSM,
		core.Options{Workers: 2, Kind: mergejoin.LeftOuter}, core.DiskOptions{})
	p.AddGroupAggregate(j, sink.AggCount)
	pr, err := RunPlan(context.Background(), p, nil)
	if err != nil {
		t.Fatalf("left-outer join above an aggregate (not another join) should be valid: %v", err)
	}
	// Every R key must appear: unmatched tuples surface with a zero public
	// side, so the group count equals the number of distinct R keys.
	distinct := len(relation.KeyHistogram(r.Tuples))
	if pr.Output.Len() != distinct {
		t.Fatalf("left-outer count groups = %d, want %d distinct R keys", pr.Output.Len(), distinct)
	}
}

func TestPlanCancellationBeforeStart(t *testing.T) {
	r, s := dataset(100, 1, 99)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := &Plan{}
	p.AddSink(p.AddJoin(p.AddScan(r, nil), p.AddScan(s, nil), AlgorithmPMPSM, core.Options{Workers: 2}, core.DiskOptions{}), nil)
	if _, err := RunPlan(ctx, p, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled plan returned %v, want context.Canceled", err)
	}
}

func TestPlanCancellationAtOperatorBoundary(t *testing.T) {
	r, s := dataset(1000, 2, 111)
	tRel, _ := dataset(1000, 2, 111)
	tRel.Name = "T"

	// The predicate on T's scan cancels the context: the first join has
	// already completed by then (its inputs carry no predicate), so the
	// cancellation must surface at the operator boundary between T's scan
	// and the second join.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tripwire := func(t relation.Tuple) bool {
		cancel()
		return true
	}

	p := &Plan{}
	rID := p.AddScan(r, nil)
	sID := p.AddScan(s, nil)
	tID := p.AddScan(tRel, tripwire)
	j1 := p.AddJoin(rID, sID, AlgorithmPMPSM, core.Options{Workers: 2}, core.DiskOptions{})
	j2 := p.AddJoin(j1, tID, AlgorithmPMPSM, core.Options{Workers: 2}, core.DiskOptions{})
	p.AddGroupAggregate(j2, sink.AggSum)

	if _, err := RunPlan(ctx, p, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-plan cancellation returned %v, want context.Canceled", err)
	}
}

func TestApplyFilterParallelParity(t *testing.T) {
	r, _ := dataset(100000, 1, 122)
	pred := func(t relation.Tuple) bool { return t.Key%3 == 0 }

	serial, _ := applyScanFilter(context.Background(), r, nil, pred, 1, nil)
	parallel, leased := applyScanFilter(context.Background(), r, nil, pred, 4, nil)
	if leased {
		t.Fatal("filter without a lease reported leased output")
	}
	if !reflect.DeepEqual(serial.Tuples, parallel.Tuples) {
		t.Fatalf("parallel filter diverges from serial (lens %d vs %d) or reorders tuples",
			serial.Len(), parallel.Len())
	}
}

func TestApplyFilterSelectivePreallocation(t *testing.T) {
	r, _ := dataset(100000, 1, 133)
	pred := func(t relation.Tuple) bool { return t.Key%128 == 0 } // ~0.8% selectivity

	out, _ := applyScanFilter(context.Background(), r, nil, pred, 4, nil)
	if out.Len() == 0 || out.Len() > r.Len()/32 {
		t.Fatalf("unexpected selectivity: %d of %d", out.Len(), r.Len())
	}
	if cap(out.Tuples) > r.Len()/8 {
		t.Fatalf("filtered copy reserves cap %d for %d selected tuples (input %d): pre-allocation ignores selectivity",
			cap(out.Tuples), out.Len(), r.Len())
	}

	// The leased path draws an exactly-classed buffer from the pool.
	pool := memory.NewPool(0)
	lease := pool.Acquire()
	defer lease.Release()
	leasedOut, leased := applyScanFilter(context.Background(), r, nil, pred, 4, lease)
	if !leased {
		t.Fatal("filter with a lease did not report leased output")
	}
	if !reflect.DeepEqual(leasedOut.Tuples, out.Tuples) {
		t.Fatal("leased filter output diverges from unleased")
	}
}
