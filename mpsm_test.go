package mpsm

import (
	"context"
	"testing"

	"repro/internal/mergejoin"
)

// join runs one join on a fresh engine, the shape of a one-shot caller.
func join(r, s *Relation, opts ...Option) (*Result, error) {
	return New(opts...).Join(context.Background(), r, s)
}

func TestJoinPublicAPIAllAlgorithms(t *testing.T) {
	r := GenerateUniform("R", 2000, 1)
	s := GenerateForeignKey("S", r, 8000, 2)

	var want mergejoin.MaxAggregate
	mergejoin.ReferenceJoin(r.Tuples, s.Tuples, &want)

	for _, alg := range []Algorithm{PMPSM, BMPSM, DMPSM, Wisconsin, RadixHash} {
		res, err := join(r, s, WithAlgorithm(alg), WithWorkers(4))
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if res.Matches != want.Count || res.MaxSum != want.Max {
			t.Fatalf("%v: got (%d, %d), want (%d, %d)", alg, res.Matches, res.MaxSum, want.Count, want.Max)
		}
		if res.Total <= 0 {
			t.Fatalf("%v: total time not recorded", alg)
		}
	}
}

func TestJoinNilInputs(t *testing.T) {
	r := GenerateUniform("R", 10, 1)
	if _, err := join(nil, r); err == nil {
		t.Fatal("nil private relation accepted")
	}
	if _, err := join(r, nil); err == nil {
		t.Fatal("nil public relation accepted")
	}
	if _, _, err := New().JoinWithDiskStats(context.Background(), nil, r); err == nil {
		t.Fatal("nil private relation accepted by JoinWithDiskStats")
	}
}

func TestJoinWithDiskStats(t *testing.T) {
	r := GenerateUniform("R", 3000, 3)
	s := GenerateForeignKey("S", r, 6000, 4)
	engine := New(WithWorkers(4), WithDisk(DiskConfig{PageSize: 256, PageBudget: 8}))
	res, stats, err := engine.JoinWithDiskStats(context.Background(), r, s)
	if err != nil {
		t.Fatal(err)
	}
	if stats == nil {
		t.Fatal("disk stats missing")
	}
	if stats.Pool.MaxResident > 8 {
		t.Fatalf("buffer pool exceeded budget: %+v", stats.Pool)
	}
	var want mergejoin.MaxAggregate
	mergejoin.ReferenceJoin(r.Tuples, s.Tuples, &want)
	if res.Matches != want.Count {
		t.Fatalf("matches = %d, want %d", res.Matches, want.Count)
	}
}

func TestJoinNUMATracking(t *testing.T) {
	r := GenerateUniform("R", 4000, 5)
	s := GenerateForeignKey("S", r, 8000, 6)
	res, err := join(r, s, WithWorkers(8), WithNUMATracking())
	if err != nil {
		t.Fatal(err)
	}
	if res.NUMA.TotalAccesses() == 0 {
		t.Fatal("NUMA accounting missing")
	}
	if res.NUMA.SyncOps != 0 {
		t.Fatal("P-MPSM should perform no fine-grained synchronization")
	}
}

func TestJoinSplitterStrategies(t *testing.T) {
	r := GenerateSkewed("R", 3000, SkewHigh80, 7)
	s := GenerateSkewed("S", 12000, SkewLow80, 8)
	var want mergejoin.MaxAggregate
	mergejoin.ReferenceJoin(r.Tuples, s.Tuples, &want)
	for _, strategy := range []SplitterStrategy{SplitterEquiCost, SplitterEquiHeight, SplitterUniform} {
		res, err := join(r, s, WithWorkers(8), WithSplitters(strategy))
		if err != nil {
			t.Fatal(err)
		}
		if res.Matches != want.Count {
			t.Fatalf("%v: matches = %d, want %d", strategy, res.Matches, want.Count)
		}
	}
}

func TestJoinKindsPublicAPI(t *testing.T) {
	// A narrow key domain makes some R tuples match and others not, so all
	// four kinds have distinct, non-trivial cardinalities.
	r := GenerateSkewedWithDomain("R", 3000, 6000, SkewNone, 31)
	s := GenerateSkewedWithDomain("S", 9000, 6000, SkewNone, 32)

	for _, kind := range []JoinKind{InnerJoin, LeftOuterJoin, SemiJoin, AntiJoin} {
		var want mergejoin.MaxAggregate
		mergejoin.ReferenceJoinKind(kind, r.Tuples, s.Tuples, &want)
		res, err := join(r, s, WithWorkers(4), WithKind(kind))
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if res.Matches != want.Count {
			t.Fatalf("%v: matches = %d, want %d", kind, res.Matches, want.Count)
		}
	}

	// Hash joins only support inner joins.
	if _, err := join(r, s, WithAlgorithm(Wisconsin), WithKind(SemiJoin)); err == nil {
		t.Fatal("semi join on the Wisconsin hash join should be rejected")
	}
}

func TestGenerateSkewedDistributions(t *testing.T) {
	low := GenerateSkewed("low", 20000, SkewLow80, 9)
	cut := uint64(1) << 32 / 5
	count := 0
	for _, tup := range low.Tuples {
		if tup.Key < cut {
			count++
		}
	}
	if frac := float64(count) / float64(low.Len()); frac < 0.75 {
		t.Fatalf("SkewLow80 fraction = %f", frac)
	}
}

func TestNewRelation(t *testing.T) {
	rel := NewRelation("mine", []Tuple{{Key: 1, Payload: 2}})
	if rel.Len() != 1 || rel.Name != "mine" {
		t.Fatalf("NewRelation = %+v", rel)
	}
}
