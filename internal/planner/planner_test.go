package planner

import (
	"context"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/mergejoin"
	"repro/internal/relation"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/workload"
)

// profileOf collects a fresh profile.
func profileOf(rel *relation.Relation) *stats.Profile { return stats.Collect(rel) }

// maxSum is the consumer of a join run without a sink of its own: the
// built-in max-sum aggregate, which folds range entries.
var maxSum = Consumer{Folds: true}

// sortedClone returns a key-sorted copy of the relation.
func sortedClone(rel *relation.Relation) *relation.Relation {
	c := rel.Clone()
	sort.Slice(c.Tuples, func(i, j int) bool { return c.Tuples[i].Key < c.Tuples[j].Key })
	return c
}

// TestChooseJoinPicksHashForUnsortedInputs: with shuffled inputs at a size
// where the hash table exceeds the cache, a hash join must win over the
// sort-merge variants. Which one changed with the chained table's 8 heads per
// build tuple: at this size and one worker the no-partitioning join now
// measures 29.5–30.0 ms against the radix join's 33.1–37.1 (modelled 28.1 and
// 36.4); before, the radix join won 37.9 to 50.8.
func TestChooseJoinPicksHashForUnsortedInputs(t *testing.T) {
	r := workload.UniformRelation("R", 1<<18, workload.DefaultKeyDomain, 1)
	s := workload.ForeignKeyRelation("S", r, 1<<20, 2)
	ch := ChooseJoin(profileOf(r), profileOf(s), Constraints{Workers: 1, Consumer: maxSum}, DefaultCostModel())
	if ch.Algorithm != exec.AlgorithmWisconsin {
		t.Errorf("unsorted mid-size join chose %v, want Wisconsin (costs %+v)", ch.Algorithm, ch.Costs)
	}
	if ch.Costs[1].Algorithm != exec.AlgorithmRadix {
		t.Errorf("unsorted mid-size join ranks %v second, want Radix HJ ahead of the sort-merge variants (costs %+v)", ch.Costs[1].Algorithm, ch.Costs)
	}
	if ch.Scheduler != sched.Static {
		t.Errorf("single worker chose %v scheduling, want static", ch.Scheduler)
	}
}

// TestChooseJoinPicksWisconsinForSmallBuild: a cache-resident build table
// favours the no-partitioning hash join.
func TestChooseJoinPicksWisconsinForSmallBuild(t *testing.T) {
	r := workload.UniformRelation("R", 1<<14, workload.DefaultKeyDomain, 3)
	s := workload.ForeignKeyRelation("S", r, 1<<19, 4)
	ch := ChooseJoin(profileOf(r), profileOf(s), Constraints{Workers: 1, Consumer: maxSum}, DefaultCostModel())
	if ch.Algorithm != exec.AlgorithmWisconsin {
		t.Errorf("small-build join chose %v, want Wisconsin (costs %+v)", ch.Algorithm, ch.Costs)
	}
}

// TestChooseJoinExploitsPresortedInputs: fully sorted inputs must pick an
// MPSM variant with the presorted declarations set.
func TestChooseJoinExploitsPresortedInputs(t *testing.T) {
	r := sortedClone(workload.UniformRelation("R", 1<<18, workload.DefaultKeyDomain, 5))
	s := sortedClone(workload.ForeignKeyRelation("S", r, 1<<20, 6))
	ch := ChooseJoin(profileOf(r), profileOf(s), Constraints{Workers: 1, Consumer: maxSum}, DefaultCostModel())
	if ch.Algorithm != exec.AlgorithmBMPSM {
		t.Errorf("presorted join chose %v, want B-MPSM (costs %+v)", ch.Algorithm, ch.Costs)
	}
	if !ch.PresortedPrivate || !ch.PresortedPublic {
		t.Errorf("presorted inputs not declared: private=%v public=%v", ch.PresortedPrivate, ch.PresortedPublic)
	}
}

// TestChooseJoinRespectsKindAndBandConstraints: non-inner kinds and band
// joins may only use B-MPSM or P-MPSM.
func TestChooseJoinRespectsKindAndBandConstraints(t *testing.T) {
	r := workload.UniformRelation("R", 1<<16, workload.DefaultKeyDomain, 7)
	s := workload.ForeignKeyRelation("S", r, 1<<18, 8)
	rp, sp := profileOf(r), profileOf(s)
	for _, c := range []Constraints{
		{Kind: mergejoin.LeftOuter, Workers: 1},
		{Kind: mergejoin.Semi, Workers: 1},
		{Kind: mergejoin.Anti, Workers: 1},
		{Band: 100, Workers: 1},
	} {
		ch := ChooseJoin(rp, sp, c, DefaultCostModel())
		if ch.Algorithm != exec.AlgorithmBMPSM && ch.Algorithm != exec.AlgorithmPMPSM {
			t.Errorf("constraints %+v chose %v, want an MPSM variant", c, ch.Algorithm)
		}
		if ch.Swap {
			t.Errorf("constraints %+v must pin the build/probe roles (non-inner kinds are asymmetric, band pairs carry R.Key != S.Key)", c)
		}
	}
}

// TestChooseJoinNeverSwapsBandJoins: band pairs carry R.Key != S.Key, so the
// default projection's output keys depend on the orientation — even with a
// commutative consumer and a lopsided size ratio the roles must stay pinned.
func TestChooseJoinNeverSwapsBandJoins(t *testing.T) {
	small := workload.UniformRelation("small", 1<<13, workload.DefaultKeyDomain, 43)
	big := workload.ForeignKeyRelation("big", small, 1<<19, 44)
	ch := ChooseJoin(profileOf(big), profileOf(small),
		Constraints{Band: 100, Workers: 1, SymmetricConsumer: true}, DefaultCostModel())
	if ch.Swap {
		t.Errorf("band join swapped build/probe: %+v", ch)
	}
}

// TestChooseJoinSwapsRoles: with a commutative consumer and a huge build
// against a tiny probe, role reversal must flip the hash build onto the
// small side; without the symmetric-consumer guarantee it must not.
func TestChooseJoinSwapsRoles(t *testing.T) {
	small := workload.UniformRelation("small", 1<<14, workload.DefaultKeyDomain, 41)
	big := workload.ForeignKeyRelation("big", small, 1<<20, 42)
	bp, sp := profileOf(big), profileOf(small)

	ch := ChooseJoin(bp, sp, Constraints{Workers: 1, SymmetricConsumer: true, Consumer: maxSum}, DefaultCostModel())
	if !ch.Swap {
		t.Errorf("huge-build join did not reverse roles: %+v", ch)
	}
	if ch.Algorithm != exec.AlgorithmWisconsin {
		t.Errorf("after reversal the cache-resident build should pick Wisconsin, got %v (costs %+v)",
			ch.Algorithm, ch.Costs)
	}

	pinned := ChooseJoin(bp, sp, Constraints{Workers: 1, Consumer: maxSum}, DefaultCostModel())
	if pinned.Swap {
		t.Errorf("asymmetric consumer must pin the roles, got swap")
	}
}

// TestChooseJoinKeepsDMPSM: a configured D-MPSM join expresses a memory
// constraint and is never switched away from.
func TestChooseJoinKeepsDMPSM(t *testing.T) {
	r := workload.UniformRelation("R", 1<<16, workload.DefaultKeyDomain, 9)
	s := workload.ForeignKeyRelation("S", r, 1<<18, 10)
	ch := ChooseJoin(profileOf(r), profileOf(s),
		Constraints{Configured: exec.AlgorithmDMPSM, Workers: 1}, DefaultCostModel())
	if ch.Algorithm != exec.AlgorithmDMPSM {
		t.Errorf("pinned D-MPSM was switched to %v", ch.Algorithm)
	}
}

// TestChooseJoinMorselUnderSkew: with several workers and a skewed input the
// match phase switches to morsel scheduling.
func TestChooseJoinMorselUnderSkew(t *testing.T) {
	r := workload.SkewedRelation("R", 1<<16, workload.DefaultKeyDomain, workload.SkewLow80, 11)
	s := workload.ForeignKeyRelation("S", r, 1<<18, 12)
	ch := ChooseJoin(profileOf(r), profileOf(s), Constraints{Workers: 8, Consumer: maxSum}, DefaultCostModel())
	if ch.Scheduler != sched.Morsel {
		t.Errorf("skewed 8-worker join chose %v scheduling, want morsel", ch.Scheduler)
	}

	uni := workload.UniformRelation("U", 1<<16, workload.DefaultKeyDomain, 13)
	us := workload.ForeignKeyRelation("US", uni, 1<<18, 14)
	ch = ChooseJoin(profileOf(uni), profileOf(us), Constraints{Workers: 8, Consumer: maxSum}, DefaultCostModel())
	if ch.Scheduler != sched.Static {
		t.Errorf("uniform 8-worker join chose %v scheduling, want static", ch.Scheduler)
	}
}

// TestChooseJoinBreaksTiesByCandidateOrder: costs within the model's
// resolution of the cheapest are a tie that goes to the first candidate, so
// the choice does not follow the cardinality estimate's noise. The join is
// chain3's first (65 536 × 262 144 into the next join), whose P-MPSM and
// Radix HJ costs cross between generator seeds: the choice is the same for
// every seed, it is within Resolution of the cheapest, and no earlier
// candidate is.
func TestChooseJoinBreaksTiesByCandidateOrder(t *testing.T) {
	cm := DefaultCostModel()
	c := Constraints{Workers: 2} // the zero Consumer takes pairs
	var first exec.Algorithm
	for seed := uint64(1); seed <= 3; seed++ {
		r := workload.UniformRelation("a", 1<<16, 1<<32, seed)
		s := workload.ForeignKeyRelation("b", r, 1<<18, seed+1)
		ch := ChooseJoin(profileOf(r), profileOf(s), c, cm)
		if seed == 1 {
			first = ch.Algorithm
		} else if ch.Algorithm != first {
			t.Errorf("seed %d chose %v, seed 1 chose %v (costs %+v)", seed, ch.Algorithm, first, ch.Costs)
		}
		limit := ch.Costs[0].Millis * (1 + cm.Resolution)
		for _, alg := range candidates(c) {
			cost := costOf(ch.Costs, alg)
			if alg == ch.Algorithm {
				if cost > limit {
					t.Errorf("seed %d: chosen %v costs %.2f, beyond the tie limit %.2f", seed, alg, cost, limit)
				}
				break
			}
			if cost <= limit {
				t.Errorf("seed %d: %v (%.2f) ties with the cheapest and comes before the chosen %v", seed, alg, cost, ch.Algorithm)
			}
		}
	}
	// Outside the resolution the cheaper algorithm wins whatever its place.
	small := workload.UniformRelation("r", 1<<12, 1<<32, 7)
	ch := ChooseJoin(profileOf(small), profileOf(workload.ForeignKeyRelation("s", small, 1<<14, 8)), Constraints{Workers: 2, Consumer: maxSum}, cm)
	if ch.Algorithm != ch.Costs[0].Algorithm || ch.Algorithm == exec.AlgorithmPMPSM {
		t.Errorf("4 096 × 16 384 chose %v, want the cheapest, a hash join (costs %+v)", ch.Algorithm, ch.Costs)
	}
}

// TestChooseJoinKeepsAWorkerOnlyWhereItPays: Constraints.Workers bounds the
// worker count, the choice is the planner's. A 4 096 × 16 384 join stays on
// one worker under any bound — the modelled step to two is a loss — and
// join_large's sizes take both of two; the step that decided is recorded with
// the floor it was held against, which is EfficiencyFloor of a worker's worth
// per added worker; a bound that is no power of two is still reached; and a
// pinned count (annotating a configured plan) is priced as it is.
func TestChooseJoinKeepsAWorkerOnlyWhereItPays(t *testing.T) {
	cm := DefaultCostModel()
	small := workload.UniformRelation("r", 1<<12, 1<<32, 51)
	smallS := workload.ForeignKeyRelation("s", small, 1<<14, 52)
	large := workload.UniformRelation("R", 1<<19, 1<<32, 53)
	largeS := workload.ForeignKeyRelation("S", large, 1<<21, 54)
	sp, ssp, lp, lsp := profileOf(small), profileOf(smallS), profileOf(large), profileOf(largeS)

	for _, bound := range []int{1, 2, 3, 8} {
		ch := ChooseJoin(sp, ssp, Constraints{Workers: bound, Consumer: maxSum}, cm)
		if ch.Workers != 1 || ch.Bound != bound {
			t.Errorf("4 096 × 16 384 under a bound of %d: %d of %d workers, want 1 of %d", bound, ch.Workers, ch.Bound, bound)
		}
		if bound == 1 {
			if ch.Step != (WorkerStep{}) || ch.Step.String() != "" {
				t.Errorf("a bound of one leaves no step to decide, got %+v", ch.Step)
			}
			continue
		}
		if ch.Step.From != 1 || ch.Step.To != 2 || ch.Step.Gain >= 1 || ch.Step.Floor != 1+cm.EfficiencyFloor {
			t.Errorf("bound %d: the step not taken is %+v, want 1 → 2 at a loss against a floor of %.2f", bound, ch.Step, 1+cm.EfficiencyFloor)
		}
		if want := "a second worker returns"; !strings.Contains(ch.Reason, want) {
			t.Errorf("bound %d: reason %q does not say what %q", bound, ch.Reason, want)
		}
	}

	for _, bound := range []int{2, 3} {
		ch := ChooseJoin(lp, lsp, Constraints{Workers: bound, Consumer: maxSum}, cm)
		if ch.Workers != bound {
			t.Errorf("524 288 × 2 097 152 under a bound of %d: %d workers (step %+v), want them all", bound, ch.Workers, ch.Step)
		}
		if ch.Step.To != bound || ch.Step.Gain < ch.Step.Floor {
			t.Errorf("bound %d: the last step taken is %+v, want one onto %d workers that clears its floor", bound, ch.Step, bound)
		}
	}
	// Every added worker is held to the same return: going from two workers
	// to three adds one, against a speed already above one worker's.
	three := ChooseJoin(lp, lsp, Constraints{Workers: 3, Consumer: maxSum}, cm).Step
	if three.From != 2 || three.Floor <= 1 || three.Floor >= 1+cm.EfficiencyFloor {
		t.Errorf("the step 2 → 3 is held against %+v, want a floor between 1 and %.2f", three, 1+cm.EfficiencyFloor)
	}

	pinned := ChooseJoin(sp, ssp, Constraints{Workers: 4, PinWorkers: true, Consumer: maxSum}, cm)
	if pinned.Workers != 4 || pinned.Step != (WorkerStep{}) {
		t.Errorf("a pinned count of 4 came back as %d workers with step %+v", pinned.Workers, pinned.Step)
	}
	if two := costOf(ChooseJoin(sp, ssp, Constraints{Workers: 2, PinWorkers: true, Consumer: maxSum}, cm).Costs, pinned.Algorithm); two == costOf(pinned.Costs, pinned.Algorithm) {
		t.Errorf("pinned counts of 2 and 4 price %v alike (%.3f ms): the costs are not the pinned count's", pinned.Algorithm, two)
	}
}

// TestCostModelWorkerScaling: B-MPSM's public-scan term must not shrink with
// workers, while P-MPSM's join phase must.
func TestCostModelWorkerScaling(t *testing.T) {
	cm := DefaultCostModel()
	in1 := joinInputs{build: 1 << 18, probe: 1 << 22, workers: 1, static: true}
	in16 := in1
	in16.workers = 16
	b1 := cm.Estimate(exec.AlgorithmBMPSM, in1, maxSum)
	b16 := cm.Estimate(exec.AlgorithmBMPSM, in16, maxSum)
	p1 := cm.Estimate(exec.AlgorithmPMPSM, in1, maxSum)
	p16 := cm.Estimate(exec.AlgorithmPMPSM, in16, maxSum)
	if p16 >= p1/4 {
		t.Errorf("P-MPSM cost barely scales with workers: %v -> %v", p1, p16)
	}
	if b16 < cm.MergePerTuple*float64(in1.probe) {
		t.Errorf("B-MPSM cost %v lost its per-worker public scan term (merge floor %v)",
			b16, cm.MergePerTuple*float64(in1.probe))
	}
	// With many workers and a large public input, P-MPSM must beat B-MPSM.
	if p16 >= b16 {
		t.Errorf("16 workers: P-MPSM (%v) should beat B-MPSM (%v)", p16, b16)
	}
	// On a single worker, B-MPSM (no partition pass) must beat P-MPSM.
	if b1 >= p1 {
		t.Errorf("1 worker: B-MPSM (%v) should beat P-MPSM (%v)", b1, p1)
	}
}

// buildThreeWayPlan constructs scan(R), scan(S), scan(T) joined as
// (big ⋈ big) ⋈ small — a deliberately bad order the optimizer must fix.
func buildThreeWayPlan(r, s, tRel *relation.Relation) *exec.Plan {
	p := &exec.Plan{}
	rID := p.AddScan(r, nil)
	sID := p.AddScan(s, nil)
	tID := p.AddScan(tRel, nil)
	j1 := p.AddJoin(rID, sID, exec.AlgorithmPMPSM, core.Options{Workers: 1}, core.DiskOptions{})
	j2 := p.AddJoin(j1, tID, exec.AlgorithmPMPSM, core.Options{Workers: 1}, core.DiskOptions{})
	p.AddGroupAggregate(j2, 0)
	return p
}

// TestOptimizeReordersJoinCluster: the greedy order must join the selective
// small relation first, shrinking the intermediate.
func TestOptimizeReordersJoinCluster(t *testing.T) {
	r := workload.UniformRelation("R", 1<<16, workload.DefaultKeyDomain, 15)
	s := workload.ForeignKeyRelation("S", r, 1<<18, 16)
	// T keeps only a sliver of R's keys: joining T first is far cheaper.
	small := workload.ForeignKeyRelation("T", r, 1<<10, 17)

	p := buildThreeWayPlan(r, s, small)
	opt := &Optimizer{Rewrite: true}
	op, decisions, err := opt.Optimize(p)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if err := op.Validate(); err != nil {
		t.Fatalf("optimized plan invalid: %v", err)
	}

	// The first-executed join (node 3) must now touch the small scan (node
	// 2) instead of pairing the two big relations.
	j1 := op.Nodes[3]
	touchesSmall := j1.Inputs[0] == 2 || j1.Inputs[1] == 2
	if !touchesSmall {
		t.Errorf("first join still pairs the big relations: inputs %v (decisions %+v)", j1.Inputs, decisions[3])
	}
	reordered := decisions[3].Reordered || decisions[4].Reordered
	if !reordered {
		t.Errorf("no join marked as reordered")
	}
}

// TestOptimizeAnnotatesWithoutRewrite: with Rewrite unset the plan is
// unchanged but estimates appear.
func TestOptimizeAnnotatesWithoutRewrite(t *testing.T) {
	r := workload.UniformRelation("R", 1<<14, workload.DefaultKeyDomain, 19)
	s := workload.ForeignKeyRelation("S", r, 1<<16, 20)
	p := &exec.Plan{}
	rID := p.AddScan(r, nil)
	sID := p.AddScan(s, nil)
	j := p.AddJoin(rID, sID, exec.AlgorithmBMPSM, core.Options{Workers: 1, Scheduler: sched.Morsel}, core.DiskOptions{})
	p.AddSink(j, nil)

	op, decisions, err := (&Optimizer{}).Optimize(p)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if op.Nodes[j].Algorithm != exec.AlgorithmBMPSM || op.Nodes[j].JoinOptions.Scheduler != sched.Morsel {
		t.Errorf("annotate-only optimization changed the plan: %+v", op.Nodes[j])
	}
	if decisions[j].Algorithm != exec.AlgorithmBMPSM {
		t.Errorf("decision reports %v, want the configured B-MPSM", decisions[j].Algorithm)
	}
	if decisions[j].EstRows <= 0 {
		t.Errorf("join estimate missing: %+v", decisions[j])
	}
}

// TestOptimizedPlanExecutes: an optimized plan must run and produce the same
// aggregate as the unoptimized plan.
func TestOptimizedPlanExecutes(t *testing.T) {
	r := workload.UniformRelation("R", 1<<13, workload.DefaultKeyDomain, 23)
	s := workload.ForeignKeyRelation("S", r, 1<<15, 24)
	small := workload.ForeignKeyRelation("T", r, 1<<9, 25)

	base := buildThreeWayPlan(r, s, small)
	baseRes, err := exec.RunPlan(context.Background(), base, nil)
	if err != nil {
		t.Fatalf("base plan: %v", err)
	}

	op, _, err := (&Optimizer{Rewrite: true}).Optimize(buildThreeWayPlan(r, s, small))
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	optRes, err := exec.RunPlan(context.Background(), op, nil)
	if err != nil {
		t.Fatalf("optimized plan: %v", err)
	}
	if !relation.SameMultiset(baseRes.Output.Tuples, optRes.Output.Tuples) {
		t.Errorf("optimized plan output differs: %d vs %d groups", baseRes.Output.Len(), optRes.Output.Len())
	}
}
