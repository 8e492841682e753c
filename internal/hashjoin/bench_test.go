package hashjoin

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/memory"
	"repro/internal/relation"
	"repro/internal/sink"
	"repro/internal/workload"
)

// BenchmarkProbeOutput times a hash join's output path end to end — Wisconsin
// on one worker with a scratch pool, build and probe — per match, for the
// shapes that decide what a probe hands on: foreign keys at multiplicity 1
// and 4 (65 536 build tuples), the short_concurrent join (4 096 × 16 384
// foreign keys) and a build side with 16 duplicates of each of its 4 096 keys
// probed by 65 536 foreign keys; into the sinks that take every match the
// range loop produces (Collect over the default projection, Materialize, a
// group sum over the probe payload, as compiled queries project, and max-sum
// behind a tie-break verifier, which folds nothing) and into the max-sum and
// count sinks, which the probe folds into. It goes through Wisconsin's
// exported signature only.
func BenchmarkProbeOutput(b *testing.B) {
	type shape struct {
		name string
		r, s *relation.Relation
	}
	fk := func(mult int) shape {
		r := workload.UniformRelation("R", 1<<16, workload.DefaultKeyDomain, 41)
		return shape{fmt.Sprintf("fk-x%d", mult), r, workload.ForeignKeyRelation("S", r, mult<<16, 42)}
	}
	gate := workload.UniformRelation("R", 1<<12, workload.DefaultKeyDomain, 45)
	keys := workload.UniformRelation("K", 1<<12, workload.DefaultKeyDomain, 43)
	dup := make([]relation.Tuple, 0, 16*keys.Len())
	for d := 0; d < 16; d++ {
		for i, t := range keys.Tuples {
			dup = append(dup, relation.Tuple{Key: t.Key, Payload: uint64(d*keys.Len() + i)})
		}
	}
	shapes := []shape{fk(1), fk(4), {"gate", gate, workload.ForeignKeyRelation("S", gate, 1<<14, 46)},
		{"dup-x16", relation.New("R", dup), workload.ForeignKeyRelation("S", keys, 1<<16, 44)}}
	accept := func(rp, sp uint64) (uint64, uint64, bool) { return rp, sp, true }
	sinks := []struct {
		name  string
		new   func() sink.Sink
		check sink.PairCheck
	}{
		{"collect", func() sink.Sink { return sink.NewCollect(nil, nil) }, nil},
		{"materialize", func() sink.Sink { return sink.NewMaterialize() }, nil},
		{"group-sum-probe", func() sink.Sink {
			return sink.NewGroups(context.Background(), sink.AggSum, sink.ValueProbePayload.Projection(), sink.ValueProbePayload, nil)
		}, nil},
		{"max-sum-verified", func() sink.Sink { return sink.NewMaxSum() }, accept},
		{"max-sum", func() sink.Sink { return sink.NewMaxSum() }, nil},
		{"count", func() sink.Sink { return sink.NewCount() }, nil},
	}
	for _, sh := range shapes {
		// Payloads below 10^6, as the end-to-end benchmark generates them.
		for _, rel := range []*relation.Relation{sh.r, sh.s} {
			for i := range rel.Tuples {
				rel.Tuples[i].Payload %= 1_000_000
			}
		}
		for _, sk := range sinks {
			b.Run(sh.name+"/"+sk.name, func(b *testing.B) {
				opts := Options{Workers: 1, Scratch: memory.NewPool(0), KeyCheck: sk.check}
				var matches uint64
				for b.Loop() {
					opts.Sink = sk.new()
					res, err := Wisconsin(context.Background(), sh.r, sh.s, opts)
					if err != nil {
						b.Fatal(err)
					}
					matches = res.Matches
				}
				if matches == 0 {
					b.Fatal("no matches: the benchmark input is broken")
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(matches), "ns/match")
			})
		}
	}
}

// BenchmarkRadixJoin runs the radix join on 2^bits partitions, forced through
// radixJoin, for bits 5, 8, 11 and 14, on one worker and on GOMAXPROCS, with
// a scratch pool, over 2^18 × 2^20 foreign keys, and reports its partition
// phase per input tuple beside the whole join's time. The join partitions in
// one pass; at these fan-outs a second, local pass read as slow or slower on
// two cores, and this is where a host with more cores re-reads that.
func BenchmarkRadixJoin(b *testing.B) {
	r := workload.UniformRelation("R", 1<<18, workload.DefaultKeyDomain, 51)
	s := workload.ForeignKeyRelation("S", r, 1<<20, 52)
	tuples := float64(r.Len() + s.Len())
	for _, workers := range slices.Compact([]int{1, runtime.GOMAXPROCS(0)}) {
		for _, bits := range []int{5, 8, 11, 14} {
			b.Run(fmt.Sprintf("T=%d/bits=%d", workers, bits), func(b *testing.B) {
				opts := Options{Workers: workers, Scratch: memory.NewPool(0)}
				var partition time.Duration
				for b.Loop() {
					res, err := radixJoin(context.Background(), r, s, opts, bits)
					if err != nil {
						b.Fatal(err)
					}
					partition += res.PhaseDuration("partition")
				}
				b.ReportMetric(float64(partition.Nanoseconds())/float64(b.N)/tuples, "partition-ns/tuple")
			})
		}
	}
}
