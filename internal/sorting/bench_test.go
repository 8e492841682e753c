package sorting

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/relation"
	"repro/internal/workload"
)

// clusteredSkew draws n keys with the paper's 80:20 skew on [0, domain) —
// 80% of the keys in the bottom fifth — arranged into 8 ascending key ranges,
// unsorted within a range: the shape of the end-to-end benchmark's
// join_large_skew public input, whose first radix digit leaves a few buckets
// many times the average size. Payloads are source positions, so stability
// shows.
func clusteredSkew(n int, seed, domain uint64) []relation.Tuple {
	rel := workload.SkewedRelation("S", n, domain, workload.SkewLow80, seed)
	workload.ApplyLocationSkew(rel, 8, workload.LocationClustered, domain)
	for i := range rel.Tuples {
		rel.Tuples[i].Payload = uint64(i)
	}
	return rel.Tuples
}

// denseCluster draws n uniform 32-bit keys and moves every other tuple into
// one run of 2^12 consecutive keys instead: a hot range inside a wide domain,
// which leaves one bucket of the packed sort with bins far too full, of keys
// too different, for an insertion fix-up.
func denseCluster(n int, seed int64) []relation.Tuple {
	tuples := makeTuples(n, seed, 1<<32)
	for i := 0; i < n; i += 2 {
		tuples[i].Key = 0x5a5a5000 | tuples[i].Key&(1<<12-1)
	}
	return tuples
}

// BenchmarkRunGeneration times the production run-generation sort
// (SortTuplesIntoColumns) per tuple over the key distributions that decide
// its cost — uniform 32-bit keys, clustered 80:20 skew on a 2^20 domain, a
// dense cluster in a 32-bit domain (the one shape here whose buckets need
// more than one counting pass), a 2^10-key domain (duplicate-heavy) and
// presorted input — alone and with one sorter per CPU, the way the phases of
// P-MPSM run it: every sorter has a chunk of n tuples of its own, so the
// sorters share the memory system but no source, and ns/tuple is over one
// sorter's n. CI executes it once per case as a smoke test; it asserts
// nothing about time.
func BenchmarkRunGeneration(b *testing.B) {
	distributions := []struct {
		name string
		gen  func(n, sorter int) []relation.Tuple
	}{
		{"uniform32", func(n, s int) []relation.Tuple { return makeTuples(n, int64(1+10*s), 1<<32) }},
		{"clustered-skew", func(n, s int) []relation.Tuple { return clusteredSkew(n, uint64(2+10*s), 1<<20) }},
		{"dense-cluster", func(n, s int) []relation.Tuple { return denseCluster(n, int64(5+10*s)) }},
		{"domain-2^10", func(n, s int) []relation.Tuple { return makeTuples(n, int64(3+10*s), 1<<10) }},
		{"presorted", func(n, s int) []relation.Tuple {
			tuples := makeTuples(n, int64(4+10*s), 1<<32)
			SortStdlib(tuples)
			return tuples
		}},
	}
	for _, dist := range distributions {
		for _, logN := range []int{14, 18, 20} {
			n := 1 << logN
			for _, sorters := range slices.Compact([]int{1, runtime.GOMAXPROCS(0)}) {
				b.Run(fmt.Sprintf("%s/n=2^%d/sorters=%d", dist.name, logN, sorters), func(b *testing.B) {
					srcs := make([][]relation.Tuple, sorters)
					keys := make([][]uint64, sorters)
					pays := make([][]uint64, sorters)
					for s := range srcs {
						srcs[s], keys[s], pays[s] = dist.gen(n, s), make([]uint64, n), make([]uint64, n)
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						var wg sync.WaitGroup
						for s := 0; s < sorters; s++ {
							wg.Add(1)
							go func() {
								defer wg.Done()
								SortTuplesIntoColumns(srcs[s], keys[s], pays[s], nil)
							}()
						}
						wg.Wait()
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/tuple")
				})
			}
		}
	}
}
