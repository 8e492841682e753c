package mergejoin

import (
	"context"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/batch"
	"repro/internal/relation"
)

// splitIntoRuns distributes sorted tuples round-robin into n sorted column
// runs.
func splitIntoRuns(tuples []relation.Tuple, n int) []*batch.Run {
	runs := make([]*batch.Run, n)
	for i := range runs {
		runs[i] = &batch.Run{Worker: i}
	}
	for i, t := range tuples {
		runs[i%n].Keys = append(runs[i%n].Keys, t.Key)
		runs[i%n].Payloads = append(runs[i%n].Payloads, t.Payload)
	}
	return runs
}

// columnsOf deinterleaves a tuple slice into its key and payload columns.
func columnsOf(tuples []relation.Tuple) (keys, pays []uint64) {
	keys, pays = make([]uint64, len(tuples)), make([]uint64, len(tuples))
	batch.Deinterleave(tuples, keys, pays)
	return keys, pays
}

// joinRunsKind joins one sorted private run against all public runs the way
// the match phase of internal/core does: the kernel behind its skip search
// per public run, writing to the consumer itself for Inner and to a Marker in
// front of it otherwise. It returns the number of public tuples scanned.
func joinRunsKind(kind Kind, private []relation.Tuple, publicRuns []*batch.Run, batchSize int, out Consumer) (publicScanned int) {
	rKeys, rPays := columnsOf(private)
	sc := batch.NewScratch(batchSize, nil)
	defer sc.Close()
	cons := Pairs(out)
	var marker *Marker
	if kind != Inner {
		marker = NewMarker(kind, rKeys, rPays, cons, sc, nil)
		cons = marker
	}
	for _, pub := range publicRuns {
		publicScanned += JoinColumnsWithSkip(rKeys, rPays, pub.Keys, pub.Payloads, 0, cons, sc)
	}
	if marker != nil {
		marker.Finish(context.Background())
	}
	return publicScanned
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{Inner: "inner", LeftOuter: "left-outer", Semi: "semi", Anti: "anti", Kind(7): "Kind(7)"}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
	if !Inner.Valid() || !Anti.Valid() || Kind(9).Valid() || Kind(-1).Valid() {
		t.Fatal("Valid() misclassifies kinds")
	}
}

func TestJoinRunsKindSmall(t *testing.T) {
	private := []relation.Tuple{{Key: 1, Payload: 10}, {Key: 2, Payload: 20}, {Key: 3, Payload: 30}, {Key: 3, Payload: 31}}
	public := []relation.Tuple{{Key: 2, Payload: 200}, {Key: 3, Payload: 300}, {Key: 5, Payload: 500}}
	runs := splitIntoRuns(public, 2)

	t.Run("inner", func(t *testing.T) {
		var m Materializer
		joinRunsKind(Inner, private, runs, 0, &m)
		if len(m.Out) != 3 { // key 2 once, key 3 twice (two private duplicates)
			t.Fatalf("inner results = %d, want 3", len(m.Out))
		}
	})
	t.Run("left outer", func(t *testing.T) {
		var m Materializer
		joinRunsKind(LeftOuter, private, runs, 0, &m)
		// 3 inner matches + 1 unmatched private tuple (key 1).
		if len(m.Out) != 4 {
			t.Fatalf("outer results = %d, want 4", len(m.Out))
		}
		foundNull := false
		for _, o := range m.Out {
			if o.Key == 1 && o.SPayload == 0 {
				foundNull = true
			}
		}
		if !foundNull {
			t.Fatal("outer join missing the NULL-padded tuple for key 1")
		}
	})
	t.Run("semi", func(t *testing.T) {
		var m Materializer
		joinRunsKind(Semi, private, runs, 0, &m)
		// Keys 2, 3, 3 have partners; each private tuple emitted once.
		if len(m.Out) != 3 {
			t.Fatalf("semi results = %d, want 3", len(m.Out))
		}
	})
	t.Run("anti", func(t *testing.T) {
		var m Materializer
		joinRunsKind(Anti, private, runs, 0, &m)
		if len(m.Out) != 1 || m.Out[0].Key != 1 {
			t.Fatalf("anti results = %+v, want only key 1", m.Out)
		}
	})
}

func TestJoinRunsKindEmptyInputs(t *testing.T) {
	public := splitIntoRuns([]relation.Tuple{{Key: 1}}, 2)
	for _, kind := range []Kind{Inner, LeftOuter, Semi, Anti} {
		var c Counter
		if n := joinRunsKind(kind, nil, public, 0, &c); n != 0 || c.Count != 0 {
			t.Fatalf("%v with empty private: scanned %d, results %d", kind, n, c.Count)
		}
	}
	// Empty public input: outer and anti emit every private tuple, semi and
	// inner emit nothing.
	private := []relation.Tuple{{Key: 1}, {Key: 2}}
	counts := map[Kind]uint64{Inner: 0, LeftOuter: 2, Semi: 0, Anti: 2}
	for kind, want := range counts {
		var c Counter
		joinRunsKind(kind, private, nil, 0, &c)
		if c.Count != want {
			t.Fatalf("%v with empty public: results %d, want %d", kind, c.Count, want)
		}
	}
}

func TestJoinRunsKindPanicsOnUnknownKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown kind should panic")
		}
	}()
	joinRunsKind(Kind(42), []relation.Tuple{{Key: 1}}, nil, 0, &Counter{})
}

func TestJoinRunsKindMatchOnlyInLastRun(t *testing.T) {
	// A private tuple whose only partner lives in the last public run must
	// be classified as matched (semi yes, anti no, outer no NULL row).
	private := []relation.Tuple{{Key: 7, Payload: 70}}
	runs := []*batch.Run{
		{Worker: 0, Keys: []uint64{1}, Payloads: []uint64{0}},
		{Worker: 1, Keys: []uint64{2}, Payloads: []uint64{0}},
		{Worker: 2, Keys: []uint64{7}, Payloads: []uint64{700}},
	}
	var semi, anti, outer Counter
	joinRunsKind(Semi, private, runs, 0, &semi)
	joinRunsKind(Anti, private, runs, 0, &anti)
	joinRunsKind(LeftOuter, private, runs, 0, &outer)
	if semi.Count != 1 || anti.Count != 0 || outer.Count != 1 {
		t.Fatalf("semi=%d anti=%d outer=%d, want 1/0/1", semi.Count, anti.Count, outer.Count)
	}
}

func TestJoinRunsKindMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		rKeys := make([]uint64, 800)
		sKeys := make([]uint64, 2500)
		for i := range rKeys {
			rKeys[i] = rng.Uint64() % 500
		}
		for i := range sKeys {
			sKeys[i] = rng.Uint64() % 500
		}
		private := sortedTuples(rKeys, 100)
		public := sortedTuples(sKeys, 900)
		runs := splitIntoRuns(public, 4)

		for _, kind := range []Kind{Inner, LeftOuter, Semi, Anti} {
			var got, want MaxAggregate
			joinRunsKind(kind, private, runs, 0, &got)
			ReferenceJoinKind(kind, private, public, &want)
			if got.Count != want.Count || (got.Count > 0 && got.Max != want.Max) {
				t.Fatalf("trial %d, %v: got (%d, %d), want (%d, %d)",
					trial, kind, got.Count, got.Max, want.Count, want.Max)
			}
		}
	}
}

func TestJoinRunsKindCardinalityRelations(t *testing.T) {
	// Property: |semi| + |anti| = |R|; |outer| = |inner| + |anti|, for any
	// inputs.
	f := func(rRaw, sRaw []uint16) bool {
		rKeys := make([]uint64, len(rRaw))
		for i, k := range rRaw {
			rKeys[i] = uint64(k % 128)
		}
		sKeys := make([]uint64, len(sRaw))
		for i, k := range sRaw {
			sKeys[i] = uint64(k % 128)
		}
		private := sortedTuples(rKeys, 0)
		public := sortedTuples(sKeys, 0)
		runs := splitIntoRuns(public, 3)

		counts := map[Kind]uint64{}
		for _, kind := range []Kind{Inner, LeftOuter, Semi, Anti} {
			var c Counter
			joinRunsKind(kind, private, runs, 0, &c)
			counts[kind] = c.Count
		}
		if counts[Semi]+counts[Anti] != uint64(len(private)) {
			return false
		}
		return counts[LeftOuter] == counts[Inner]+counts[Anti]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReferenceJoinKindInnerDelegates(t *testing.T) {
	r := sortedTuples([]uint64{1, 2, 3}, 10)
	s := sortedTuples([]uint64{2, 3, 3}, 20)
	var a, b MaxAggregate
	ReferenceJoinKind(Inner, r, s, &a)
	ReferenceJoin(r, s, &b)
	if a.Count != b.Count || a.Max != b.Max {
		t.Fatal("ReferenceJoinKind(Inner) should match ReferenceJoin")
	}
}

// sortKeys is a tiny helper keeping the reference implementations honest about
// their input expectations (sorted private/public runs).
func TestHelpersProduceSortedRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	keys := make([]uint64, 100)
	for i := range keys {
		keys[i] = rng.Uint64() % 50
	}
	tuples := sortedTuples(keys, 0)
	if !sort.SliceIsSorted(tuples, func(i, j int) bool { return tuples[i].Key < tuples[j].Key }) {
		t.Fatal("sortedTuples helper did not sort")
	}
	for _, run := range splitIntoRuns(tuples, 3) {
		if !sort.SliceIsSorted(run.Keys, func(i, j int) bool { return run.Keys[i] < run.Keys[j] }) {
			t.Fatal("splitIntoRuns broke the sort order")
		}
	}
}

// TestMarkerEmitsNoClassificationWhenCancelled pins the cancellation contract
// of the marking kinds: a join cancelled before Finish emits no
// classification pass — its marks are incomplete — while the matches of a
// left-outer join that were forwarded before the cancel stay delivered.
func TestMarkerEmitsNoClassificationWhenCancelled(t *testing.T) {
	private := sortedTuples([]uint64{1, 2, 3, 3, 9}, 10)
	runs := splitIntoRuns(sortedTuples([]uint64{2, 3, 5}, 100), 2)
	rKeys, rPays := columnsOf(private)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, kind := range []Kind{LeftOuter, Semi, Anti} {
		var got plainConsumer
		sc := batch.NewScratch(2, nil)
		marker := NewMarker(kind, rKeys, rPays, Pairs(&got), sc, nil)
		for _, pub := range runs {
			JoinColumnsWithSkip(rKeys, rPays, pub.Keys, pub.Payloads, 0, marker, sc)
		}
		marker.Finish(ctx)
		for _, p := range got.pairs {
			if kind != LeftOuter || p.s == (relation.Tuple{}) {
				t.Fatalf("%v: cancelled marker emitted %+v", kind, p)
			}
		}
		if kind == LeftOuter && len(got.pairs) != 3 {
			t.Fatalf("left-outer: %d matches forwarded before the cancel, want 3", len(got.pairs))
		}
	}
}

// fuzzTuples decodes two bytes per tuple. Byte values from 250 up map to the
// top of the uint64 domain, so key 0 and MaxUint64 — and payload sums that
// wrap — are one mutation away from any input.
func fuzzTuples(data []byte, payloadBase uint64) []relation.Tuple {
	wide := func(b byte) uint64 {
		if b >= 250 {
			return ^uint64(0) - uint64(255-b)
		}
		return uint64(b)
	}
	tuples := make([]relation.Tuple, len(data)/2)
	for i := range tuples {
		tuples[i] = relation.Tuple{Key: wide(data[2*i]), Payload: payloadBase + wide(data[2*i+1])}
	}
	sort.SliceStable(tuples, func(i, j int) bool { return tuples[i].Key < tuples[j].Key })
	return tuples
}

// FuzzJoinColumnsKind drives the column kernel behind a Marker — one private
// run against 1–4 public runs, any kind, any batch size — and requires the
// pairs it delivers one by one, and the max-sum and count it folds from the
// range entries, to equal mergejoin.ReferenceJoinKind's.
func FuzzJoinColumnsKind(f *testing.F) {
	f.Add([]byte{1, 1, 2, 2, 3, 3, 3, 4, 9, 5}, []byte{2, 1, 3, 2, 5, 3, 3, 4}, uint8(1), uint8(1), uint8(0))     // the small example
	f.Add([]byte{7, 1, 7, 2, 7, 3}, []byte{7, 9, 7, 8, 7, 7, 7, 6}, uint8(2), uint8(2), uint8(1))                 // all-equal keys
	f.Add([]byte{}, []byte{1, 1, 2, 2}, uint8(3), uint8(0), uint8(3))                                             // empty R
	f.Add([]byte{1, 1, 2, 2}, []byte{}, uint8(1), uint8(3), uint8(2))                                             // empty S
	f.Add([]byte{4, 4}, []byte{4, 5}, uint8(2), uint8(0), uint8(33))                                              // one tuple
	f.Add([]byte{0, 1, 255, 255, 0, 2, 5, 3}, []byte{255, 254, 0, 7, 6, 8, 255, 9}, uint8(3), uint8(2), uint8(1)) // keys 0 and MaxUint64 on both sides
	f.Add([]byte{0, 0, 0, 0}, []byte{1, 1}, uint8(3), uint8(1), uint8(2))                                         // unmatched key 0: the null tuple's key
	f.Fuzz(func(t *testing.T, rData, sData []byte, kindByte, runsByte, sizeByte uint8) {
		kind := Kind(kindByte % 4)
		private := fuzzTuples(rData, 0)
		public := fuzzTuples(sData, 1000)
		runs := splitIntoRuns(public, 1+int(runsByte%4))
		batchSize := int(sizeByte % 41) // 0 selects the default size

		var want, got plainConsumer
		ReferenceJoinKind(kind, private, public, &want)
		joinRunsKind(kind, private, runs, batchSize, &got)
		requireSamePairs(t, "pairs", sortPairs(want.pairs), sortPairs(got.pairs))

		var wantMax, gotMax MaxAggregate
		var gotCount Counter
		for _, p := range want.pairs {
			wantMax.Consume(p.r, p.s)
		}
		joinRunsKind(kind, private, runs, batchSize, &gotMax)
		joinRunsKind(kind, private, runs, batchSize, &gotCount)
		if gotMax != wantMax || gotCount.Count != wantMax.Count {
			t.Fatalf("folded (%+v, %d), pair by pair %+v", gotMax, gotCount.Count, wantMax)
		}
	})
}
