package exec

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/mergejoin"
	"repro/internal/relation"
	"repro/internal/sched"
	"repro/internal/sink"
	"repro/internal/workload"
)

// pipelineInput is one three-relation input of the pipeline differential
// test.
type pipelineInput struct {
	name     string
	r, s, tr *relation.Relation
}

// pipelineInputs are the key distributions and degenerate sizes a pipeline
// has to survive. S and T draw their keys from R's unless the input says
// otherwise.
func pipelineInputs(seed uint64) []pipelineInput {
	const domain = 1 << 20
	fk := func(name string, r *relation.Relation, n int, salt uint64) *relation.Relation {
		return workload.ForeignKeyRelation(name, r, n, seed+salt)
	}
	fixed := func(name string, n int, salt uint64, key func(i int) uint64) *relation.Relation {
		rng := workload.NewRNG(seed + salt)
		tuples := make([]relation.Tuple, n)
		for i := range tuples {
			tuples[i] = relation.Tuple{Key: key(i), Payload: rng.Next() % 1_000_000}
		}
		return relation.New(name, tuples)
	}
	uniform := workload.UniformRelation("R", 240, domain, seed)
	skewed := workload.SkewedRelation("R", 240, domain, workload.SkewHigh80, seed)
	equal := func(name string, n int, salt uint64) *relation.Relation {
		return fixed(name, n, salt, func(int) uint64 { return 7 })
	}
	ends := fixed("R", 40, 3, func(i int) uint64 { return uint64(i%2) * math.MaxUint64 })
	one := fixed("R", 1, 4, func(int) uint64 { return 9 })
	// Two narrow key clusters far apart: whatever the splitters do with seven
	// workers, most partitions stay empty.
	clustered := fixed("R", 150, 5, func(i int) uint64 { return uint64(i%2)*(domain-64) + uint64(i%17) })
	return []pipelineInput{
		{"uniform-fk", uniform, fk("S", uniform, 700, 1), fk("T", uniform, 500, 2)},
		{"skew80:20", skewed, workload.SkewedRelation("S", 700, domain, workload.SkewHigh80, seed+1), fk("T", skewed, 500, 2)},
		{"all-equal", equal("R", 12, 6), equal("S", 20, 7), equal("T", 9, 8)},
		{"empty-intermediate", uniform, fixed("S", 300, 9, func(i int) uint64 { return domain + uint64(i) }), fk("T", uniform, 400, 2)},
		{"one-tuple", one, fk("S", one, 1, 1), fk("T", one, 1, 2)},
		{"keys-0-and-max", ends, fk("S", ends, 90, 1), fk("T", ends, 50, 2)},
		{"empty-partitions", clustered, fk("S", clustered, 400, 1), fk("T", clustered, 300, 2)},
	}
}

// referencePairs is the brute-force join of two tuple sets, projected.
func referencePairs(r, s []relation.Tuple, project sink.Projection) []relation.Tuple {
	var ref pairConsumer
	mergejoin.ReferenceJoin(r, s, &ref)
	out := make([]relation.Tuple, len(ref.pairs))
	for i, p := range ref.pairs {
		out[i] = project(p.R, p.S)
	}
	return out
}

// TestPipelinesMatchMapOracle is the differential test of operator pipelines:
// what one join leaves behind — key order, range partitioning, or neither —
// reaches a group-by or a next join under every pair of algorithms, both
// schedulers, worker counts from one to more than there are tuples, pooled and
// unpooled, and the output must be multiset-equal to brute-force joins plus
// the map fold (group-by outputs equal to it in ascending key order). The
// algorithm pairs, shapes and inputs are enumerated in full; scheduler, worker
// count and pooling rotate through the cells so that every value meets every
// shape and input. A failure prints the one line that reproduces its cell.
func TestPipelinesMatchMapOracle(t *testing.T) {
	const seed = 1807
	type shape struct {
		name string
		// build adds the shape's operators over the scans it needs and want
		// computes the oracle's answer; grouped output is compared in order.
		build   func(p *Plan, r, s, tr *relation.Relation, a1, a2 Algorithm, opts core.Options)
		want    func(r, s, tr *relation.Relation) []relation.Tuple
		grouped bool
	}
	// The closure turns the key order around, so that nothing the first join
	// knew about its writers' key ranges holds behind it; complementing T's
	// keys the same way keeps the second join's matches.
	rekey := func(r, s relation.Tuple) relation.Tuple {
		return relation.Tuple{Key: ^r.Key, Payload: r.Payload + 3*s.Payload}
	}
	complement := func(t relation.Tuple) relation.Tuple { return relation.Tuple{Key: ^t.Key, Payload: t.Payload} }
	join := func(p *Plan, b, pr NodeID, alg Algorithm, opts core.Options) NodeID {
		return p.AddJoin(b, pr, alg, opts, core.DiskOptions{})
	}
	// first is the join every shape starts with, R ⋈ S.
	first := func(p *Plan, r, s *relation.Relation, alg Algorithm, opts core.Options) NodeID {
		return join(p, p.AddScan(r, nil), p.AddScan(s, nil), alg, opts)
	}
	shapes := []shape{
		{"join→group-by", func(p *Plan, r, s, _ *relation.Relation, a1, _ Algorithm, o core.Options) {
			p.AddGroupAggregate(p.AddProjectValue(first(p, r, s, a1, o), sink.ValueProbePayload), sink.AggSum)
		}, func(r, s, _ *relation.Relation) []relation.Tuple {
			return referenceGroups(referencePairs(r.Tuples, s.Tuples, sink.ValueProbePayload.Projection()), sink.AggSum)
		}, true},
		{"join→join→group-by", func(p *Plan, r, s, tr *relation.Relation, a1, a2 Algorithm, o core.Options) {
			p.AddGroupAggregate(p.AddProjectValue(join(p, first(p, r, s, a1, o), p.AddScan(tr, nil), a2, o), sink.ValueProbePayload), sink.AggSum)
		}, func(r, s, tr *relation.Relation) []relation.Tuple {
			mid := referencePairs(r.Tuples, s.Tuples, sink.DefaultProjection)
			return referenceGroups(referencePairs(mid, tr.Tuples, sink.ValueProbePayload.Projection()), sink.AggSum)
		}, true},
		{"join→join→collect", func(p *Plan, r, s, tr *relation.Relation, a1, a2 Algorithm, o core.Options) {
			join(p, first(p, r, s, a1, o), p.AddScan(tr, nil), a2, o)
		}, func(r, s, tr *relation.Relation) []relation.Tuple {
			return referencePairs(referencePairs(r.Tuples, s.Tuples, sink.DefaultProjection), tr.Tuples, sink.DefaultProjection)
		}, false},
	}
	// join→project→join, through every projection the executor knows by name
	// (they keep the build key) and through the closure (behind which nothing
	// may be assumed).
	for _, value := range []sink.Value{sink.ValuePayloadSum, sink.ValueBuildPayload, sink.ValueProbePayload, sink.ValueBuildKey, sink.ValueProbeKey} {
		shapes = append(shapes, shape{fmt.Sprintf("join→project(value %d)→join→group-by", value), func(p *Plan, r, s, tr *relation.Relation, a1, a2 Algorithm, o core.Options) {
			p.AddGroupAggregate(join(p, p.AddProjectValue(first(p, r, s, a1, o), value), p.AddScan(tr, nil), a2, o), sink.AggMax)
		}, func(r, s, tr *relation.Relation) []relation.Tuple {
			mid := referencePairs(r.Tuples, s.Tuples, value.Projection())
			return referenceGroups(referencePairs(mid, tr.Tuples, sink.DefaultProjection), sink.AggMax)
		}, true})
	}
	shapes = append(shapes, shape{"join→project(rekeying closure)→join→group-by", func(p *Plan, r, s, tr *relation.Relation, a1, a2 Algorithm, o core.Options) {
		p.AddGroupAggregate(join(p, p.AddProject(first(p, r, s, a1, o), rekey), p.AddMap(p.AddScan(tr, nil), complement), a2, o), sink.AggMax)
	}, func(r, s, tr *relation.Relation) []relation.Tuple {
		flipped := make([]relation.Tuple, tr.Len())
		for i, t := range tr.Tuples {
			flipped[i] = complement(t)
		}
		return referenceGroups(referencePairs(referencePairs(r.Tuples, s.Tuples, rekey), flipped, sink.DefaultProjection), sink.AggMax)
	}, true})

	algorithms := []Algorithm{AlgorithmPMPSM, AlgorithmBMPSM, AlgorithmWisconsin, AlgorithmRadix}
	modes := []sched.Mode{sched.Static, sched.Morsel}
	pools := []*memory.Pool{nil, memory.NewPool(0)}
	cell := 0
	for _, in := range pipelineInputs(seed) {
		r, s, tr, input := in.r, in.s, in.tr, in.name
		// The last count is more workers than tuples on the small inputs, and
		// capped where that would mostly measure goroutine start-up.
		workerCounts := []int{1, 2, 3, 7, min(max(r.Len(), s.Len(), tr.Len())+1, 96)}
		for _, sh := range shapes {
			want := sh.want(r, s, tr)
			for _, a1 := range algorithms {
				for _, a2 := range algorithms {
					mode, workers, pool := modes[cell%2], workerCounts[cell/2%5], pools[cell/10%2]
					cell++
					p := &Plan{}
					sh.build(p, r, s, tr, a1, a2, core.Options{Workers: workers, Scheduler: mode, MorselSize: 128})
					label := fmt.Sprintf("seed=%d shape=%s algs=%v/%v sched=%v workers=%d pool=%t input=%s",
						seed, sh.name, a1, a2, mode, workers, pool != nil, input)
					pr, err := RunPlanFor(context.Background(), p, pool, nil)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					got := pr.Output.Tuples
					switch {
					case len(got) != len(want):
						t.Fatalf("%s: %d output tuples, the oracle has %d", label, len(got), len(want))
					case sh.grouped && len(got) > 0 && !reflect.DeepEqual(got, want):
						t.Fatalf("%s: groups diverge from the oracle's", label)
					case !sh.grouped && !relation.SameMultiset(got, want):
						t.Fatalf("%s: output is not the oracle's multiset", label)
					}
				}
			}
		}
	}
	if err := pools[1].CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}
