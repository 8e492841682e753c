package sink

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/batch"
	"repro/internal/mergejoin"
	"repro/internal/relation"
	"repro/internal/sorting"
	"repro/internal/workload"
)

// BenchmarkMergeOutput times the merge phase's output path end to end — the
// range kernel over two sorted column runs into a bound sink — per match, for
// the shapes that decide whether emitting ranges pays: foreign keys at
// multiplicity 1, 4 (the paper's, and the benchmark's join_large) and 16, and
// the benchmark's band template (2 × 32 768 tuples, keys below 2^18, width
// 16); into the sinks that fold a range (max-sum; count; group count over the
// default projection; group sum over the probe payload, as compiled queries
// project) and one that walks every pair (collect). The -fold cases time what
// B-, P- and D-MPSM run for an inner equi-join into max-sum and count instead:
// mergejoin.FoldColumns, handed to the writer as one (count, max); a band
// join does not fold, so they skip the band shape.
func BenchmarkMergeOutput(b *testing.B) {
	type shape struct {
		name string
		r, s *relation.Relation
		band uint64
	}
	fk := func(mult int) shape {
		r := workload.UniformRelation("R", 1<<16, workload.DefaultKeyDomain, 31)
		return shape{fmt.Sprintf("fk-x%d", mult), r, workload.ForeignKeyRelation("S", r, mult<<16, 32), 0}
	}
	shapes := []shape{fk(1), fk(4), fk(16), {
		"band16",
		workload.UniformRelation("d", 1<<15, 1<<18, 33),
		workload.UniformRelation("e", 1<<15, 1<<18, 34), 16,
	}}
	sinks := []struct {
		name string
		new  func() Sink
		fold bool
	}{
		{"max-sum", func() Sink { return NewMaxSum() }, false},
		{"max-sum-fold", func() Sink { return NewMaxSum() }, true},
		{"count", func() Sink { return NewCount() }, false},
		{"count-fold", func() Sink { return NewCount() }, true},
		{"group-count", func() Sink { return NewGroups(context.Background(), AggCount, nil, ValueOpaque, nil) }, false},
		{"group-sum-probe", func() Sink {
			return NewGroups(context.Background(), AggSum, ValueProbePayload.Projection(), ValueProbePayload, nil)
		}, false},
		{"collect", func() Sink { return NewCollect(nil, nil) }, false},
	}
	for _, sh := range shapes {
		// Payloads below 10^6, as the end-to-end benchmark generates them: no
		// sum wraps, so the aggregates separate per side.
		for _, rel := range []*relation.Relation{sh.r, sh.s} {
			for i := range rel.Tuples {
				rel.Tuples[i].Payload %= 1_000_000
			}
		}
		priv := batch.NewRun(0, 0, sh.r.Len(), nil)
		pub := batch.NewRun(0, 0, sh.s.Len(), nil)
		sorting.SortTuplesIntoColumns(sh.r.Tuples, priv.Keys, priv.Payloads, nil)
		sorting.SortTuplesIntoColumns(sh.s.Tuples, pub.Keys, pub.Payloads, nil)
		for _, sk := range sinks {
			if sk.fold && sh.band != 0 {
				continue
			}
			b.Run(sh.name+"/"+sk.name, func(b *testing.B) {
				sc := batch.NewScratch(0, nil)
				defer sc.Close()
				var matches uint64
				for b.Loop() {
					bound := BindChecked(sk.new(), 1, nil, nil)
					if sk.fold {
						if pairs, best, _ := mergejoin.FoldColumns(priv.Keys, priv.Payloads, pub.Keys, pub.Payloads, false); pairs > 0 {
							bound.Writer(0).ConsumeFold(pairs, best)
						}
					} else {
						mergejoin.JoinColumnsBand(priv.Keys, priv.Payloads, pub.Keys, pub.Payloads, sh.band, bound.Writer(0), sc)
					}
					if err := bound.Close(); err != nil {
						b.Fatal(err)
					}
					matches = bound.Matches()
				}
				if matches == 0 {
					b.Fatal("no matches: the benchmark input is broken")
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(matches), "ns/match")
			})
		}
	}
}
