package mergejoin

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/relation"
)

func TestJoinBandSmall(t *testing.T) {
	r := sortedTuples([]uint64{5, 10, 20}, 0)
	s := sortedTuples([]uint64{4, 8, 11, 19, 30}, 100)

	cases := []struct {
		band uint64
		want uint64
	}{
		{0, 0},  // no exact matches
		{1, 3},  // 5~4, 10~11, 20~19
		{2, 4},  // + 10~8
		{10, 9}, // 5:{4,8,11}... counted via the oracle below
	}
	for _, tc := range cases {
		var got, want Counter
		JoinBand(r, s, tc.band, &got)
		ReferenceJoinBand(r, s, tc.band, &want)
		if got.Count != want.Count {
			t.Fatalf("band=%d: got %d pairs, reference %d", tc.band, got.Count, want.Count)
		}
		if tc.band <= 2 && got.Count != tc.want {
			t.Fatalf("band=%d: got %d pairs, want %d", tc.band, got.Count, tc.want)
		}
	}
}

func TestJoinBandZeroEqualsEquiJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rKeys := make([]uint64, 500)
	sKeys := make([]uint64, 1500)
	for i := range rKeys {
		rKeys[i] = rng.Uint64() % 400
	}
	for i := range sKeys {
		sKeys[i] = rng.Uint64() % 400
	}
	r := sortedTuples(rKeys, 0)
	s := sortedTuples(sKeys, 0)
	var band, equi Counter
	JoinBand(r, s, 0, &band)
	Join(r, s, &equi)
	if band.Count != equi.Count {
		t.Fatalf("band-0 join found %d pairs, equi join %d", band.Count, equi.Count)
	}
}

func TestJoinBandEmptyInputs(t *testing.T) {
	var c Counter
	JoinBand(nil, sortedTuples([]uint64{1}, 0), 5, &c)
	JoinBand(sortedTuples([]uint64{1}, 0), nil, 5, &c)
	if c.Count != 0 {
		t.Fatalf("band join with empty inputs produced %d pairs", c.Count)
	}
}

func TestJoinBandKeyOverflowAndUnderflow(t *testing.T) {
	// Keys near the ends of the uint64 domain must not wrap around.
	maxKey := ^uint64(0)
	r := []relation.Tuple{{Key: 0}, {Key: maxKey}}
	s := []relation.Tuple{{Key: 1}, {Key: maxKey - 1}}
	var got, want Counter
	JoinBand(r, s, 5, &got)
	ReferenceJoinBand(r, s, 5, &want)
	if got.Count != want.Count || got.Count != 2 {
		t.Fatalf("overflow handling: got %d pairs, want %d (= 2)", got.Count, want.Count)
	}
}

func TestJoinBandMatchesReferenceProperty(t *testing.T) {
	f := func(rRaw, sRaw []uint16, bandRaw uint8) bool {
		rKeys := make([]uint64, len(rRaw))
		for i, k := range rRaw {
			rKeys[i] = uint64(k % 256)
		}
		sKeys := make([]uint64, len(sRaw))
		for i, k := range sRaw {
			sKeys[i] = uint64(k % 256)
		}
		r := sortedTuples(rKeys, 10)
		s := sortedTuples(sKeys, 20)
		band := uint64(bandRaw % 16)
		var got, want MaxAggregate
		JoinBand(r, s, band, &got)
		ReferenceJoinBand(r, s, band, &want)
		return got.Count == want.Count && (got.Count == 0 || got.Max == want.Max)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
