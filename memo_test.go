package mpsm

import (
	"context"
	"slices"
	"testing"
	"weak"

	"repro/internal/relation"
	"repro/internal/service"
	"repro/internal/stats"
)

// memoEntry is one entry point that plans through the engine's memo.
type memoEntry struct {
	name string
	// plan is the plan the entry point runs for r ⋈ s; run executes it and
	// returns its output under the default projection (R.Key, R.Payload +
	// S.Payload).
	plan func(r, s *Relation) *Plan
	run  func(ctx context.Context, e *Engine, svc *Service, p *Plan) ([]Tuple, error)
	// explain describes what run executes for p.
	explain func(e *Engine, svc *Service, p *Plan) (*Explain, error)
	// cached reports that run looks its physical plan up in the memo;
	// Explain runs the optimizer over the memo's profiles instead.
	cached bool
}

// memoEntries are the five entry points of the memo contract.
func memoEntries() []memoEntry {
	pairs := func(r, s *Relation) *Plan { return joinPlan(r, s, NewMaterializeSink()) }
	joined := func(r, s *Relation) *Plan {
		p := NewPlan()
		p.Join(p.Scan(r), p.Scan(s))
		return p
	}
	joinArgs := func(p *Plan) (r, s *Relation, snk *MaterializeSink) {
		return p.ep.Nodes[0].Rel, p.ep.Nodes[1].Rel, p.ep.Nodes[3].Sink.(*MaterializeSink)
	}
	engineExplain := func(e *Engine, _ *Service, p *Plan) (*Explain, error) { return e.Explain(p) }
	serviceExplain := func(_ *Engine, svc *Service, p *Plan) (*Explain, error) { return svc.Explain(p) }
	return []memoEntry{
		{
			name: "Engine.Join", plan: pairs, explain: engineExplain, cached: true,
			run: func(ctx context.Context, e *Engine, _ *Service, p *Plan) ([]Tuple, error) {
				r, s, snk := joinArgs(p)
				_, err := e.Join(ctx, r, s, WithSink(snk))
				return snk.Relation("pairs").Tuples, err
			},
		},
		{
			name: "Engine.RunPlan", plan: joined, explain: engineExplain, cached: true,
			run: func(ctx context.Context, e *Engine, _ *Service, p *Plan) ([]Tuple, error) {
				res, err := e.RunPlan(ctx, p)
				if err != nil {
					return nil, err
				}
				return res.Output.Tuples, nil
			},
		},
		{
			name: "Engine.Explain", plan: joined, explain: engineExplain,
			run: func(ctx context.Context, e *Engine, _ *Service, p *Plan) ([]Tuple, error) {
				_, res, err := e.ExplainAnalyze(ctx, p)
				if err != nil {
					return nil, err
				}
				return res.Output.Tuples, nil
			},
		},
		{
			name: "Service.Join", plan: pairs, explain: serviceExplain, cached: true,
			run: func(ctx context.Context, _ *Engine, svc *Service, p *Plan) ([]Tuple, error) {
				r, s, snk := joinArgs(p)
				_, err := svc.Join(ctx, r, s, WithQueryOptions(WithSink(snk)))
				return snk.Relation("pairs").Tuples, err
			},
		},
		{
			name: "Service.RunPlan", plan: joined, explain: serviceExplain, cached: true,
			run: func(ctx context.Context, _ *Engine, svc *Service, p *Plan) ([]Tuple, error) {
				res, err := svc.RunPlan(ctx, p)
				if err != nil {
					return nil, err
				}
				return res.Output.Tuples, nil
			},
		},
	}
}

// memoOracle is the default projection of the left-outer join of r and s: an
// r tuple without a partner pairs with the zero tuple.
func memoOracle(r, s *Relation) []Tuple {
	byKey := make(map[uint64][]Tuple)
	for _, st := range s.Tuples {
		byKey[st.Key] = append(byKey[st.Key], st)
	}
	var out []Tuple
	for _, rt := range r.Tuples {
		partners := byKey[rt.Key]
		if len(partners) == 0 {
			partners = []Tuple{{}}
		}
		for _, st := range partners {
			out = append(out, Tuple{Key: rt.Key, Payload: rt.Payload + st.Payload})
		}
	}
	return out
}

// TestMemoContract pins the one staleness rule of the plan memo at every entry
// point that plans through it — Engine.Join, Engine.RunPlan, Engine.Explain,
// Service.Join and Service.RunPlan — over two key-sorted relations, on which
// the planner declares both inputs presorted (the join is left-outer, so it
// always runs on an MPSM algorithm, which reads the declarations):
//   - a repeat call on unchanged data hits: the same profiles, and for the
//     entry points that run a cached plan, a memo hit;
//   - a rewrite the content fingerprint does not sample hits too, and the hit
//     carries the now-false presorted declarations and its worker count, yet
//     returns the oracle's multiset: a stale hit costs time, never
//     correctness;
//   - an in-place rewrite at the same length the fingerprint sees (reversed
//     keys) re-profiles and re-plans, and the plan no longer declares the
//     inputs presorted.
func TestMemoContract(t *testing.T) {
	ctx := context.Background()
	for _, entry := range memoEntries() {
		t.Run(entry.name, func(t *testing.T) {
			r := sortedRelation(GenerateUniform("R", 1<<12, 151))
			s := sortedRelation(GenerateForeignKey("S", r, 1<<14, 152))
			e := New(WithWorkers(2), WithAutoPlan(true), WithKind(LeftOuterJoin))
			svc := NewService(e, WithFairSlots(2))
			defer svc.Close()
			p := entry.plan(r, s)

			profileOf := func(rel *Relation) *stats.Profile {
				e.statsMu.Lock()
				defer e.statsMu.Unlock()
				return e.statsCache[weak.Make(rel)].prof
			}
			call := func(step string) {
				t.Helper()
				got, err := entry.run(ctx, e, svc, p)
				if err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				if want := memoOracle(r, s); !relation.SameMultiset(got, want) {
					t.Fatalf("%s: %d tuples differ from the oracle's %d", step, len(got), len(want))
				}
			}
			join := func() ExplainNode {
				t.Helper()
				ex, err := entry.explain(e, svc, p)
				if err != nil {
					t.Fatal(err)
				}
				return ex.Nodes[2]
			}
			memo := func(step string, hits, misses, invalidations uint64) {
				t.Helper()
				if !entry.cached {
					return
				}
				if st := e.memo.Stats(); st.Hits != hits || st.Misses != misses || st.Invalidations != invalidations {
					t.Fatalf("%s: memo %+v, want %d hits, %d misses, %d invalidations", step, st, hits, misses, invalidations)
				}
			}

			call("first call")
			memo("first call", 0, 1, 0)
			first := join()
			if !first.PresortedPrivate || !first.PresortedPublic || (first.Algorithm != "P-MPSM" && first.Algorithm != "B-MPSM") {
				t.Fatalf("sorted inputs planned as %+v, want an MPSM join with both inputs declared presorted", first)
			}
			profR, profS := profileOf(r), profileOf(s)

			call("repeat call")
			memo("repeat call", 1, 1, 0)
			if profileOf(r) != profR || profileOf(s) != profS {
				t.Fatal("repeat call re-profiled unchanged relations")
			}

			// Reverse the tuples between the first two the fingerprint samples:
			// neither input is sorted any more, and neither fingerprint moves.
			printR, printS := service.Fingerprint(r), service.Fingerprint(s)
			slices.Reverse(r.Tuples[1 : r.Len()/64])
			slices.Reverse(s.Tuples[1 : s.Len()/64])
			if service.Fingerprint(r) != printR || service.Fingerprint(s) != printS {
				t.Fatal("the unsampled rewrite moved a fingerprint; the test no longer builds a stale hit")
			}
			call("stale hit")
			memo("stale hit", 2, 1, 0)
			if profileOf(r) != profR || profileOf(s) != profS {
				t.Fatal("an unsampled rewrite re-profiled")
			}
			if stale := join(); !stale.PresortedPrivate || !stale.PresortedPublic || stale.Workers != first.Workers {
				t.Fatalf("stale hit planned as %+v, want the first call's %+v", stale, first)
			}

			// Reverse the inputs whole, in place and at the same length.
			slices.Reverse(r.Tuples)
			slices.Reverse(s.Tuples)
			call("after an in-place rewrite")
			memo("after an in-place rewrite", 2, 2, 1)
			if profileOf(r) == profR || profileOf(s) == profS {
				t.Fatal("an in-place rewrite kept the old profiles")
			}
			if now := join(); now.PresortedPrivate || now.PresortedPublic {
				t.Fatalf("reversed inputs still planned as presorted: %+v", now)
			}
		})
	}
}
