package mpsm_test

import (
	"context"
	"fmt"

	mpsm "repro"
)

// ExampleNew demonstrates the Engine API: construct a reusable engine once
// with functional options, then run joins against it. The default sink
// reproduces the paper's evaluation query, so Matches and MaxSum appear
// directly in the result.
func ExampleNew() {
	r := mpsm.GenerateUniform("R", 10_000, 1)
	s := mpsm.GenerateForeignKey("S", r, 40_000, 2)

	engine := mpsm.New(
		mpsm.WithAlgorithm(mpsm.PMPSM),
		mpsm.WithWorkers(4),
		mpsm.WithNUMATracking(),
	)
	res, err := engine.Join(context.Background(), r, s)
	if err != nil {
		panic(err)
	}
	// Every S tuple references an existing R key, so the join produces at
	// least |S| results (more when R contains duplicate keys).
	fmt.Println(res.Matches >= 40_000)
	fmt.Println(res.NUMA.SyncOps) // MPSM never synchronizes per tuple
	// Output:
	// true
	// 0
}

// ExampleEngine_Join_sinks demonstrates streaming sinks: the same engine
// runs one join into a counting sink and one into a top-k sink, overriding
// the algorithm per call.
func ExampleEngine_Join_sinks() {
	r := mpsm.GenerateUniform("R", 5_000, 3)
	s := mpsm.GenerateForeignKey("S", r, 20_000, 4)
	engine := mpsm.New(mpsm.WithWorkers(4))

	count := mpsm.NewCountSink()
	if _, err := engine.Join(context.Background(), r, s, mpsm.WithSink(count)); err != nil {
		panic(err)
	}

	top := mpsm.NewTopKSink(3)
	if _, err := engine.Join(context.Background(), r, s,
		mpsm.WithAlgorithm(mpsm.BMPSM), mpsm.WithSink(top)); err != nil {
		panic(err)
	}

	fmt.Println(count.Total() >= 20_000)
	fmt.Println(len(top.Top()))
	// Output:
	// true
	// 3
}

// ExampleEngine_JoinStream demonstrates the iterator form of the result
// stream: the join runs concurrently and pairs are consumed with
// range-over-func; breaking out of the loop cancels the join.
func ExampleEngine_JoinStream() {
	r := mpsm.GenerateUniform("R", 5_000, 5)
	s := mpsm.GenerateForeignKey("S", r, 20_000, 6)
	engine := mpsm.New(mpsm.WithWorkers(4))

	seq, errf := engine.JoinStream(context.Background(), r, s)
	n := 0
	for rt, st := range seq {
		if rt.Key != st.Key {
			panic("stream emitted a non-matching pair")
		}
		n++
		if n == 100 {
			break // cancels the underlying join
		}
	}
	if err := errf(); err != nil {
		panic(err)
	}
	fmt.Println(n)
	// Output:
	// 100
}

// ExampleEngine_Join_cancellation demonstrates context cancellation: a join
// launched with an already-expired context fails fast with the context's
// error instead of running the multi-phase algorithm.
func ExampleEngine_Join_cancellation() {
	r := mpsm.GenerateUniform("R", 10_000, 7)
	s := mpsm.GenerateForeignKey("S", r, 40_000, 8)
	engine := mpsm.New(mpsm.WithWorkers(4))

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := engine.Join(ctx, r, s)
	fmt.Println(err)
	// Output:
	// context canceled
}

// ExampleEngine_Join demonstrates a one-shot join: generate a dimension table
// R and a fact table S whose keys reference R, then run the range-partitioned
// MPSM join on a throwaway engine.
func ExampleEngine_Join() {
	r := mpsm.GenerateUniform("R", 10_000, 1)
	s := mpsm.GenerateForeignKey("S", r, 40_000, 2)

	res, err := mpsm.New(mpsm.WithAlgorithm(mpsm.PMPSM), mpsm.WithWorkers(4)).Join(context.Background(), r, s)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Matches >= 40_000)
	// Output:
	// true
}

// ExampleEngine_Join_kinds demonstrates the non-inner join kinds. The semi and anti
// join cardinalities always partition the private input.
func ExampleEngine_Join_kinds() {
	r := mpsm.GenerateSkewedWithDomain("R", 5_000, 10_000, mpsm.SkewNone, 3)
	s := mpsm.GenerateSkewedWithDomain("S", 20_000, 10_000, mpsm.SkewNone, 4)
	engine := mpsm.New(mpsm.WithWorkers(4))

	semi, _ := engine.Join(context.Background(), r, s, mpsm.WithKind(mpsm.SemiJoin))
	anti, _ := engine.Join(context.Background(), r, s, mpsm.WithKind(mpsm.AntiJoin))
	fmt.Println(semi.Matches+anti.Matches == uint64(r.Len()))
	// Output:
	// true
}

// ExampleEngine_JoinWithDiskStats demonstrates the disk-enabled D-MPSM
// variant under a strict RAM budget: the join result is unaffected, only the
// paging behaviour changes.
func ExampleEngine_JoinWithDiskStats() {
	r := mpsm.GenerateUniform("R", 20_000, 5)
	s := mpsm.GenerateForeignKey("S", r, 80_000, 6)

	engine := mpsm.New(
		mpsm.WithWorkers(2),
		mpsm.WithDisk(mpsm.DiskConfig{PageSize: 1024, PageBudget: 8}),
	)
	res, stats, err := engine.JoinWithDiskStats(context.Background(), r, s)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Matches >= 80_000)
	fmt.Println(stats.Pool.MaxResident <= 8)
	// Output:
	// true
	// true
}
