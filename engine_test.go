package mpsm

import (
	"context"
	"errors"
	"sort"
	"sync"
	"testing"

	"repro/internal/mergejoin"
)

var allAlgorithms = []Algorithm{PMPSM, BMPSM, DMPSM, Wisconsin, RadixHash}

// nestedLoopJoin is a deliberately naive O(|r|·|s|) oracle that shares no
// code with any algorithm or kernel under test.
func nestedLoopJoin(r, s *Relation) []Pair {
	var out []Pair
	for _, rt := range r.Tuples {
		for _, st := range s.Tuples {
			if rt.Key == st.Key {
				out = append(out, Pair{R: rt, S: st})
			}
		}
	}
	return out
}

func sortPairs(pairs []Pair) {
	sort.Slice(pairs, func(i, j int) bool {
		a, b := pairs[i], pairs[j]
		if a.R.Key != b.R.Key {
			return a.R.Key < b.R.Key
		}
		if a.R.Payload != b.R.Payload {
			return a.R.Payload < b.R.Payload
		}
		return a.S.Payload < b.S.Payload
	})
}

func TestEngineStreamingSinkParityAllAlgorithms(t *testing.T) {
	// Every algorithm must emit exactly the pairs the default aggregate
	// counts, regardless of the sink: count and materialize sinks must agree
	// with the max-sum path on identical inputs.
	r := GenerateUniform("R", 1500, 103)
	s := GenerateForeignKey("S", r, 6000, 104)
	engine := New(WithWorkers(4))

	for _, alg := range allAlgorithms {
		base, err := engine.Join(context.Background(), r, s, WithAlgorithm(alg))
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		count := NewCountSink()
		if _, err := engine.Join(context.Background(), r, s, WithAlgorithm(alg), WithSink(count)); err != nil {
			t.Fatalf("%v count sink: %v", alg, err)
		}
		if count.Total() != base.Matches {
			t.Fatalf("%v: count sink saw %d pairs, max-sum sink %d", alg, count.Total(), base.Matches)
		}
		mat := NewMaterializeSink()
		res, err := engine.Join(context.Background(), r, s, WithAlgorithm(alg), WithSink(mat))
		if err != nil {
			t.Fatalf("%v materialize sink: %v", alg, err)
		}
		if uint64(len(mat.Pairs())) != base.Matches || res.Matches != base.Matches {
			t.Fatalf("%v: materialized %d pairs (result says %d), want %d",
				alg, len(mat.Pairs()), res.Matches, base.Matches)
		}
	}
}

func TestEngineMaterializeMatchesNestedLoopOracle(t *testing.T) {
	// Small inputs in a narrow domain so the quadratic oracle stays cheap but
	// duplicate keys occur on both sides.
	r := GenerateSkewedWithDomain("R", 300, 400, SkewNone, 105)
	s := GenerateSkewedWithDomain("S", 900, 400, SkewNone, 106)
	want := nestedLoopJoin(r, s)
	sortPairs(want)

	engine := New(WithWorkers(3))
	for _, alg := range allAlgorithms {
		mat := NewMaterializeSink()
		if _, err := engine.Join(context.Background(), r, s, WithAlgorithm(alg), WithSink(mat)); err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		got := append([]Pair(nil), mat.Pairs()...)
		sortPairs(got)
		if len(got) != len(want) {
			t.Fatalf("%v: %d pairs, oracle has %d", alg, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%v: pair %d = %+v, oracle %+v", alg, i, got[i], want[i])
			}
		}
	}
}

func TestEngineTopKSink(t *testing.T) {
	r := GenerateUniform("R", 1000, 107)
	s := GenerateForeignKey("S", r, 4000, 108)
	oracle := nestedLoopJoin(r, s)
	sort.Slice(oracle, func(i, j int) bool { return oracle[i].Sum() > oracle[j].Sum() })

	top := NewTopKSink(7)
	if _, err := New(WithWorkers(4)).Join(context.Background(), r, s, WithSink(top)); err != nil {
		t.Fatal(err)
	}
	got := top.Top()
	if len(got) != 7 {
		t.Fatalf("Top() returned %d pairs, want 7", len(got))
	}
	for i, p := range got {
		if p.Sum() != oracle[i].Sum() {
			t.Fatalf("top[%d].Sum = %d, oracle %d", i, p.Sum(), oracle[i].Sum())
		}
	}
}

func TestEngineJoinAlreadyCancelledContext(t *testing.T) {
	r := GenerateUniform("R", 2000, 109)
	s := GenerateForeignKey("S", r, 8000, 110)
	engine := New(WithWorkers(4))

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, alg := range allAlgorithms {
		res, err := engine.Join(ctx, r, s, WithAlgorithm(alg))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: err = %v, want context.Canceled", alg, err)
		}
		if res != nil {
			t.Fatalf("%v: got a result from a join that never ran", alg)
		}
	}
}

// cancellingSink cancels the join's own context as soon as the first pair is
// emitted, modelling a consumer that aborts mid-flight. It counts every pair
// it still receives afterwards.
type cancellingSink struct {
	cancel  context.CancelFunc
	mu      sync.Mutex
	emitted uint64
}

func (c *cancellingSink) Open(workers int)                {}
func (c *cancellingSink) Writer(w int) mergejoin.Consumer { return (*cancellingWriter)(c) }
func (c *cancellingSink) Close() error                    { return nil }

type cancellingWriter cancellingSink

func (c *cancellingWriter) Consume(r, s Tuple) {
	c.mu.Lock()
	c.emitted++
	c.mu.Unlock()
	c.cancel()
}

func TestEngineJoinMidFlightCancel(t *testing.T) {
	r := GenerateUniform("R", 20000, 111)
	s := GenerateForeignKey("S", r, 80000, 112)
	engine := New(WithWorkers(8))

	full, err := engine.Join(context.Background(), r, s)
	if err != nil {
		t.Fatal(err)
	}

	for _, alg := range allAlgorithms {
		ctx, cancel := context.WithCancel(context.Background())
		snk := &cancellingSink{cancel: cancel}
		res, err := engine.Join(ctx, r, s, WithAlgorithm(alg), WithSink(snk))
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: err = %v, want context.Canceled", alg, err)
		}
		if res != nil {
			t.Fatalf("%v: canceled join still returned a result", alg)
		}
		if alg == PMPSM || alg == BMPSM || alg == DMPSM {
			// The MPSM merge loops check cancellation per public run / page,
			// so after the first emitted pair every worker stops within one
			// chunk: the join must abort well before draining all matches.
			if snk.emitted >= full.Matches/2 {
				t.Fatalf("%v: consumed %d of %d pairs despite mid-flight cancel",
					alg, snk.emitted, full.Matches)
			}
		}
	}
}

func TestEngineJoinMidFlightCancelBandAndKinds(t *testing.T) {
	// The band and non-inner merge loops live inside the mergejoin kernels;
	// they must honour per-run cancellation just like the inner path.
	r := GenerateSkewedWithDomain("R", 20000, 40000, SkewNone, 123)
	s := GenerateSkewedWithDomain("S", 80000, 40000, SkewNone, 124)
	engine := New(WithWorkers(8))

	cases := map[string][]Option{
		"band":       {WithBandWidth(50)},
		"left-outer": {WithKind(LeftOuterJoin)},
		"semi":       {WithKind(SemiJoin)},
	}
	for name, caseOpts := range cases {
		for _, alg := range []Algorithm{PMPSM, BMPSM} {
			ctx, cancel := context.WithCancel(context.Background())
			snk := &cancellingSink{cancel: cancel}
			opts := append([]Option{WithAlgorithm(alg), WithSink(snk)}, caseOpts...)
			res, err := engine.Join(ctx, r, s, opts...)
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%v %s: err = %v, want context.Canceled", alg, name, err)
			}
			if res != nil {
				t.Fatalf("%v %s: canceled join still returned a result", alg, name)
			}
		}
	}
}

func TestEngineJoinStream(t *testing.T) {
	r := GenerateUniform("R", 1500, 113)
	s := GenerateForeignKey("S", r, 6000, 114)
	engine := New(WithWorkers(4))

	want, err := engine.Join(context.Background(), r, s)
	if err != nil {
		t.Fatal(err)
	}

	seq, errf := engine.JoinStream(context.Background(), r, s)
	var n uint64
	for range seq {
		n++
	}
	if err := errf(); err != nil {
		t.Fatalf("stream error: %v", err)
	}
	if n != want.Matches {
		t.Fatalf("stream yielded %d pairs, want %d", n, want.Matches)
	}
}

func TestEngineJoinStreamEarlyBreak(t *testing.T) {
	r := GenerateUniform("R", 20000, 115)
	s := GenerateForeignKey("S", r, 80000, 116)
	engine := New(WithWorkers(8))

	seq, errf := engine.JoinStream(context.Background(), r, s)
	n := 0
	for range seq {
		n++
		if n == 5 {
			break
		}
	}
	if n != 5 {
		t.Fatalf("consumed %d pairs, want 5", n)
	}
	// Breaking out is normal stream termination, not an error.
	if err := errf(); err != nil {
		t.Fatalf("early break reported error: %v", err)
	}
}

func TestEngineJoinStreamParentCancellation(t *testing.T) {
	r := GenerateUniform("R", 2000, 117)
	s := GenerateForeignKey("S", r, 8000, 118)
	engine := New(WithWorkers(4))

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	seq, errf := engine.JoinStream(ctx, r, s)
	for range seq {
		t.Fatal("canceled stream yielded a pair")
	}
	if err := errf(); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestEngineConcurrentJoins(t *testing.T) {
	// One engine, many concurrent joins with per-call sinks: construct once,
	// use everywhere.
	r := GenerateUniform("R", 1000, 119)
	s := GenerateForeignKey("S", r, 4000, 120)
	engine := New(WithWorkers(2))
	want, err := engine.Join(context.Background(), r, s)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			count := NewCountSink()
			alg := allAlgorithms[i%len(allAlgorithms)]
			if _, err := engine.Join(context.Background(), r, s, WithAlgorithm(alg), WithSink(count)); err != nil {
				errs[i] = err
				return
			}
			if count.Total() != want.Matches {
				errs[i] = errors.New("match count mismatch")
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent join %d: %v", i, err)
		}
	}
}

func TestEngineJoinWithDiskStats(t *testing.T) {
	r := GenerateUniform("R", 3000, 121)
	s := GenerateForeignKey("S", r, 6000, 122)
	engine := New(WithWorkers(4), WithDisk(DiskConfig{PageSize: 256, PageBudget: 8}))
	res, stats, err := engine.JoinWithDiskStats(context.Background(), r, s)
	if err != nil {
		t.Fatal(err)
	}
	if stats == nil || stats.Pool.MaxResident > 8 {
		t.Fatalf("disk stats missing or over budget: %+v", stats)
	}
	var want mergejoin.MaxAggregate
	mergejoin.ReferenceJoin(r.Tuples, s.Tuples, &want)
	if res.Matches != want.Count || res.MaxSum != want.Max {
		t.Fatalf("disk join (%d, %d) diverged from the oracle (%d, %d)", res.Matches, res.MaxSum, want.Count, want.Max)
	}
	if wantPages := (s.Len() + 255) / 256; stats.PublicPages < wantPages {
		t.Fatalf("public input spilled to %d pages, %d tuples need at least %d", stats.PublicPages, s.Len(), wantPages)
	}
}

func TestParseAlgorithmRoundTrip(t *testing.T) {
	for _, alg := range allAlgorithms {
		got, err := ParseAlgorithm(alg.String())
		if err != nil {
			t.Fatalf("ParseAlgorithm(%q): %v", alg.String(), err)
		}
		if got != alg {
			t.Fatalf("ParseAlgorithm(%q) = %v, want %v", alg.String(), got, alg)
		}
	}
	// Case-insensitivity.
	for name, want := range map[string]Algorithm{
		"p-mpsm":    PMPSM,
		"P-MPSM":    PMPSM,
		"wisconsin": Wisconsin,
		"WISCONSIN": Wisconsin,
		"radix hj":  RadixHash,
	} {
		got, err := ParseAlgorithm(name)
		if err != nil || got != want {
			t.Fatalf("ParseAlgorithm(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseAlgorithm("nested-loop"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}
