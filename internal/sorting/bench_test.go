package sorting

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/keys"
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

// wideUniform32 is makeTuples' uniform 32-bit keys with full 64-bit payloads,
// which leave no room beside the key: the packed sort keeps the payloads out
// of the sort word and carries positions instead.
func wideUniform32(n int, seed int64) []relation.Tuple {
	tuples := makeTuples(n, seed, 1<<32)
	for i := range tuples {
		tuples[i].Payload = ^uint64(i) * 0x9E3779B97F4A7C15
	}
	return tuples
}

// userStrings encodes n keys user_%08d, drawn at random below 10^8, through
// an inexact one-column string schema: each tuple is the key's 8-byte prefix
// beside its row index.
func userStrings(n int, seed int64) []relation.Tuple {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]keys.Value, n)
	for i := range rows {
		rows[i] = []keys.Value{keys.StringValue(fmt.Sprintf("user_%08d", rng.Intn(1e8)))}
	}
	return keys.MustNew(keys.Column{Type: keys.Bytes}).MustEncode("R", rows, make([]uint64, n)).Tuples
}

// foreignKeys draws n keys from n/2 uniform 32-bit parent keys, about two
// tuples a key: the shape of one worker's chunk of the end-to-end benchmark's
// join_large public input. Payloads are source positions.
func foreignKeys(n int, seed int64) []relation.Tuple {
	parents := makeTuples(max(n/2, 1), seed, 1<<32)
	rng := rand.New(rand.NewSource(seed + 1))
	tuples := make([]relation.Tuple, n)
	for i := range tuples {
		tuples[i] = relation.Tuple{Key: parents[rng.Intn(len(parents))].Key, Payload: uint64(i)}
	}
	return tuples
}

// BenchmarkRunGeneration times the production run-generation sort
// (SortTuplesIntoColumns) per tuple over the key distributions that decide
// its cost — uniform 32-bit keys (with positions as payloads, which ride in
// the sort word, and with 64-bit payloads, which do not), clustered 80:20
// skew on a 2^20 domain, a dense cluster in a 32-bit domain (the one narrow
// shape whose buckets need more than one counting pass), a 2^10-key domain
// (duplicate-heavy), full 64-bit keys and encoded user_%08d strings beside
// their row indices (too wide for a position beside them: the wide path, the
// strings' words tying on their shared prefix) and presorted input — alone
// and with one sorter per CPU, the way the phases of P-MPSM run it: every
// sorter has a chunk of n tuples of its own, so the sorters share the memory
// system but no source, and ns/tuple is over one sorter's n. The `-grouped`
// cases take SortTuplesIntoGroups instead, the sort of a folding B- or
// P-MPSM join's public runs, on uniform keys, clustered skew and foreign keys
// of about two tuples a key (the `foreign-key` case is its raw sort), and on
// a 2^16-key domain, where from 2^18 tuples on every stage-1 bucket is
// grouped by its counting pass alone (at 2^14 the one bucket's 16 key bits
// outrun the pass, and it is sorted). CI executes it once per case as a smoke
// test; it asserts nothing about time.
func BenchmarkRunGeneration(b *testing.B) {
	distributions := []struct {
		name    string
		gen     func(n, sorter int) []relation.Tuple
		grouped bool
	}{
		{"uniform32", func(n, s int) []relation.Tuple { return makeTuples(n, int64(1+10*s), 1<<32) }, false},
		{"uniform32-wide-payload", func(n, s int) []relation.Tuple { return wideUniform32(n, int64(1+10*s)) }, false},
		{"clustered-skew", func(n, s int) []relation.Tuple { return clusteredSkew(n, uint64(2+10*s), 1<<20) }, false},
		{"dense-cluster", func(n, s int) []relation.Tuple { return denseCluster(n, int64(5+10*s)) }, false},
		{"domain-2^10", func(n, s int) []relation.Tuple { return makeTuples(n, int64(3+10*s), 1<<10) }, false},
		{"full-width", func(n, s int) []relation.Tuple { return makeTuples(n, int64(6+10*s), 0) }, false},
		{"string-prefix", func(n, s int) []relation.Tuple { return userStrings(n, int64(7+10*s)) }, false},
		{"presorted", func(n, s int) []relation.Tuple {
			return stdlibOracle(makeTuples(n, int64(4+10*s), 1<<32))
		}, false},
		{"foreign-key", func(n, s int) []relation.Tuple { return foreignKeys(n, int64(8+10*s)) }, false},
		{"uniform32-grouped", func(n, s int) []relation.Tuple { return makeTuples(n, int64(1+10*s), 1<<32) }, true},
		{"clustered-skew-grouped", func(n, s int) []relation.Tuple { return clusteredSkew(n, uint64(2+10*s), 1<<20) }, true},
		{"foreign-key-grouped", func(n, s int) []relation.Tuple { return foreignKeys(n, int64(8+10*s)) }, true},
		{"domain-2^16-grouped", func(n, s int) []relation.Tuple { return makeTuples(n, int64(9+10*s), 1<<16) }, true},
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
								if dist.grouped {
									SortTuplesIntoGroups(srcs[s], keys[s], pays[s], nil)
								} else {
									SortTuplesIntoColumns(srcs[s], keys[s], pays[s], nil)
								}
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
