package partition

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/relation"
	"repro/internal/sched"
	"repro/internal/sorting"
)

// TestCountScatterLinesUpInputs counts and scatters two inputs of different
// key widths together, as the radix join partitions R and S, at one to three
// workers. S's widest key sits where no chunk's sample (sorting.GuessMaxKey)
// sees it, so Count guesses too narrow and must count again. The clusters of
// both inputs must come from one exact key domain, the histograms must be
// those of the whole inputs, and an identity scatter must keep every input's
// tuples and put each into the partition of its own cluster.
func TestCountScatterLinesUpInputs(t *testing.T) {
	const bits, wide = 6, 1<<20 + 3
	r := makeTuples(5000, 11, 1<<16)
	s := makeTuples(6000, 12, 1<<17)
	s[1].Key = wide // chunk 0's index 1: no sample at any of 1 to 3 workers
	var payBound uint64
	for _, in := range [][]relation.Tuple{r, s} {
		for _, tup := range in {
			payBound |= tup.Payload
		}
	}
	exact := NewRadixConfig(bits, wide)
	for workers := 1; workers <= 3; workers++ {
		t.Run(fmt.Sprintf("T=%d", workers), func(t *testing.T) {
			inputs := [][]relation.Chunk{
				relation.New("R", r).Split(workers),
				relation.New("S", s).Split(workers),
			}
			var guess uint64
			for _, chunks := range inputs {
				for _, c := range chunks {
					guess = max(guess, sorting.GuessMaxKey(c.Tuples))
				}
			}
			if NewRadixConfig(bits, guess) == exact {
				t.Fatalf("the chunks' samples guess %d, as wide as %d", guess, uint64(wide))
			}
			rt := sched.New(sched.Config{Workers: workers})
			counted := Count(context.Background(), rt, "partition", bits, inputs, nil, nil)
			if counted == nil {
				t.Fatalf("Count failed: %v", rt.Err())
			}
			if counted.Config != exact || counted.MaxKey != wide || counted.PayBound != payBound {
				t.Fatalf("Count found %+v, max %d, payloads %d; want %+v, %d, %d",
					counted.Config, counted.MaxKey, counted.PayBound, exact, uint64(wide), payBound)
			}
			clusters := exact.Clusters()
			parts := counted.Scatter(context.Background(), UniformSplitters(clusters, clusters), clusters)
			for i, in := range [][]relation.Tuple{r, s} {
				if got, want := CombineHistograms(counted.Hists[i]), BuildHistogram(in, exact); !slices.Equal(got, want) {
					t.Fatalf("input %d: counted %v, want %v", i, got, want)
				}
				var back []relation.Tuple
				for p, part := range parts[i] {
					for _, tup := range part {
						if c := exact.Cluster(tup.Key); c != p {
							t.Fatalf("input %d: key %d of cluster %d landed in partition %d", i, tup.Key, c, p)
						}
					}
					back = append(back, part...)
				}
				if !relation.SameMultiset(in, back) {
					t.Fatalf("input %d: the scatter lost or duplicated tuples", i)
				}
			}
		})
	}
}
