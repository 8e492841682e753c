// Plan: demonstrates composable operator plans on top of the MPSM join.
//
// The MPSM join phase consumes and produces key-ordered runs, which is
// exactly what lets sort-merge joins compose into larger query plans without
// re-sorting. This example builds the 3-way star query
//
//	SELECT key, SUM(payload)
//	FROM R JOIN S USING (key) JOIN T USING (key)
//	WHERE R.key < 2^31
//	GROUP BY key
//
// as an operator plan: two scans with a pushed-down selection, two joins, and
// a GroupAggregate that fuses into the top join's sink — the join's workers
// fold equal keys as pairs arrive and a parallel sort-based kernel finalises
// the groups, so the join output is never materialized and no hash table is
// built. The same plan is then re-run with the first join switched to the
// radix hash join: identical results, and the same aggregation kernel.
//
// Run with:
//
//	go run ./examples/plan
package main

import (
	"context"
	"fmt"

	mpsm "repro"
)

func main() {
	ctx := context.Background()
	r := mpsm.GenerateUniform("R", 200_000, 41)
	s := mpsm.GenerateForeignKey("S", r, 600_000, 42)
	t := mpsm.GenerateForeignKey("T", r, 400_000, 43)

	// One pooled engine serves every plan execution; intermediate relations
	// between the joins come from the scratch pool, not the garbage
	// collector.
	engine := mpsm.New(mpsm.WithWorkers(8), mpsm.WithScratchPool(true))

	lowHalf := func(t mpsm.Tuple) bool { return t.Key < 1<<31 }

	build := func(firstJoin mpsm.Algorithm) *mpsm.Plan {
		plan := mpsm.NewPlan()
		rs := plan.Join(plan.Scan(r, lowHalf), plan.Scan(s, lowHalf), mpsm.WithAlgorithm(firstJoin))
		rst := plan.Join(rs, plan.Scan(t))
		plan.GroupAggregate(rst, mpsm.AggSum)
		return plan
	}

	res, err := engine.RunPlan(ctx, build(mpsm.PMPSM))
	if err != nil {
		panic(err)
	}
	fmt.Printf("P-MPSM plan: %d groups in %s (scan %s, aggregate finalisation %s)\n",
		res.Output.Len(), res.Total.Round(1000), res.ScanTime.Round(1000), res.AggTime.Round(1000))
	for i, j := range res.Joins {
		fmt.Printf("  join %d: %s, %d matches in %s\n",
			i+1, j.Result.Algorithm, j.Result.Matches, j.Result.Total.Round(1000))
	}
	for _, g := range res.Output.Tuples[:3] {
		fmt.Printf("  group key=%-12d sum=%d\n", g.Key, g.Payload)
	}

	// Same plan, hash-join first stage: the same aggregation kernel, and
	// identical groups.
	hashRes, err := engine.RunPlan(ctx, build(mpsm.RadixHash))
	if err != nil {
		panic(err)
	}
	same := hashRes.Output.Len() == res.Output.Len()
	for i := 0; same && i < res.Output.Len(); i++ {
		same = hashRes.Output.Tuples[i] == res.Output.Tuples[i]
	}
	fmt.Printf("\nradix-hash first stage: %d groups in %s — identical to the P-MPSM plan: %v\n",
		hashRes.Output.Len(), hashRes.Total.Round(1000), same)

	// With WithAutoPlan the engine stops taking orders: sampled statistics
	// feed a cost model that picks the algorithm per join, reorders the join
	// chain by estimated intermediate size, and chooses the scheduler.
	// Explain shows the decisions with estimated cardinalities;
	// ExplainAnalyze runs the plan and adds the actuals and the aggregate's
	// finalisation time.
	autoPlan := mpsm.NewPlan()
	rs := autoPlan.Join(autoPlan.Scan(r, lowHalf), autoPlan.Scan(s, lowHalf))
	rst := autoPlan.Join(rs, autoPlan.Scan(t))
	autoPlan.GroupAggregate(rst, mpsm.AggSum)

	ex, autoRes, err := engine.ExplainAnalyze(ctx, autoPlan, mpsm.WithAutoPlan(true))
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nauto-planned (estimated vs actual cardinalities):\n%s\n", ex)
	autoSame := autoRes.Output.Len() == res.Output.Len()
	for i := 0; autoSame && i < res.Output.Len(); i++ {
		autoSame = autoRes.Output.Tuples[i] == res.Output.Tuples[i]
	}
	fmt.Printf("auto plan: %d groups in %s — identical to the manual plans: %v\n",
		autoRes.Output.Len(), autoRes.Total.Round(1000), autoSame)
}
