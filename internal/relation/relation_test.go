package relation

import (
	"testing"
	"testing/quick"
)

func TestNewAndLen(t *testing.T) {
	r := New("r", []Tuple{{1, 10}, {2, 20}})
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	if r.Name != "r" {
		t.Fatalf("Name = %q, want r", r.Name)
	}
}

func TestNewWithCapacity(t *testing.T) {
	r := NewWithCapacity("r", 16)
	if r.Len() != 0 {
		t.Fatalf("Len = %d, want 0", r.Len())
	}
	if cap(r.Tuples) != 16 {
		t.Fatalf("cap = %d, want 16", cap(r.Tuples))
	}
	r.Append(Tuple{5, 50})
	if r.Len() != 1 || r.Tuples[0].Key != 5 {
		t.Fatalf("after Append: %+v", r.Tuples)
	}
}

func TestClone(t *testing.T) {
	r := New("orig", []Tuple{{1, 10}, {2, 20}})
	c := r.Clone()
	c.Tuples[0].Key = 99
	if r.Tuples[0].Key != 1 {
		t.Fatal("Clone did not deep copy tuples")
	}
	if c.Name != "orig" {
		t.Fatalf("Clone name = %q", c.Name)
	}
}

func TestMinMaxKey(t *testing.T) {
	tests := []struct {
		name     string
		tuples   []Tuple
		min, max uint64
		wantErr  bool
	}{
		{"empty", nil, 0, 0, true},
		{"single", []Tuple{{7, 0}}, 7, 7, false},
		{"ascending", []Tuple{{1, 0}, {2, 0}, {9, 0}}, 1, 9, false},
		{"descending", []Tuple{{9, 0}, {2, 0}, {1, 0}}, 1, 9, false},
		{"duplicates", []Tuple{{4, 0}, {4, 0}, {4, 0}}, 4, 4, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			r := New(tc.name, tc.tuples)
			minKey, maxKey, err := r.MinMaxKey()
			if tc.wantErr {
				if err == nil {
					t.Fatal("want error, got nil")
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if minKey != tc.min || maxKey != tc.max {
				t.Fatalf("MinMaxKey = (%d, %d), want (%d, %d)", minKey, maxKey, tc.min, tc.max)
			}
		})
	}
}

func TestSplitSizes(t *testing.T) {
	for _, total := range []int{0, 1, 2, 3, 7, 8, 100, 101} {
		for _, n := range []int{1, 2, 3, 4, 7, 32} {
			tuples := make([]Tuple, total)
			for i := range tuples {
				tuples[i].Key = uint64(i)
			}
			r := New("r", tuples)
			chunks := r.Split(n)
			if len(chunks) != n {
				t.Fatalf("Split(%d) over %d tuples: got %d chunks", n, total, len(chunks))
			}
			sum := 0
			prevEnd := 0
			minSize, maxSize := total, 0
			for i, c := range chunks {
				if c.Worker != i {
					t.Fatalf("chunk %d worker = %d", i, c.Worker)
				}
				if c.Offset != prevEnd {
					t.Fatalf("chunk %d offset = %d, want %d", i, c.Offset, prevEnd)
				}
				prevEnd = c.Offset + c.Len()
				sum += c.Len()
				if c.Len() < minSize {
					minSize = c.Len()
				}
				if c.Len() > maxSize {
					maxSize = c.Len()
				}
			}
			if sum != total {
				t.Fatalf("chunks cover %d tuples, want %d", sum, total)
			}
			if maxSize-minSize > 1 {
				t.Fatalf("chunk sizes unbalanced: min %d max %d", minSize, maxSize)
			}
		}
	}
}

func TestSplitAliasesStorage(t *testing.T) {
	r := New("r", []Tuple{{1, 0}, {2, 0}, {3, 0}, {4, 0}})
	chunks := r.Split(2)
	chunks[1].Tuples[0].Payload = 42
	if r.Tuples[2].Payload != 42 {
		t.Fatal("Split chunks should alias relation storage")
	}
}

func TestSplitPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Split(0) should panic")
		}
	}()
	New("r", nil).Split(0)
}

func TestIsSortedByKey(t *testing.T) {
	if !IsSortedByKey(nil) {
		t.Fatal("nil slice should be sorted")
	}
	if !IsSortedByKey([]Tuple{{1, 0}}) {
		t.Fatal("single tuple should be sorted")
	}
	if !IsSortedByKey([]Tuple{{1, 0}, {1, 5}, {2, 0}}) {
		t.Fatal("non-decreasing keys should be sorted")
	}
	if IsSortedByKey([]Tuple{{2, 0}, {1, 0}}) {
		t.Fatal("decreasing keys should not be sorted")
	}
}

func TestSameMultiset(t *testing.T) {
	a := []Tuple{{1, 10}, {2, 20}, {1, 10}}
	b := []Tuple{{2, 20}, {1, 10}, {1, 10}}
	if !SameMultiset(a, b) {
		t.Fatal("permutations should be the same multiset")
	}
	c := []Tuple{{1, 10}, {2, 20}, {1, 11}}
	if SameMultiset(a, c) {
		t.Fatal("different payloads should not be the same multiset")
	}
	if SameMultiset(a, a[:2]) {
		t.Fatal("different lengths should not be the same multiset")
	}
}

func TestSameMultisetProperty(t *testing.T) {
	// Property: any permutation of a tuple slice is the same multiset.
	f := func(keys []uint64) bool {
		tuples := make([]Tuple, len(keys))
		for i, k := range keys {
			tuples[i] = Tuple{Key: k, Payload: uint64(i)}
		}
		reversed := make([]Tuple, len(tuples))
		for i, t := range tuples {
			reversed[len(tuples)-1-i] = t
		}
		return SameMultiset(tuples, reversed)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringForm(t *testing.T) {
	r := New("orders", make([]Tuple, 3))
	want := "Relation{orders, 3 tuples}"
	if got := r.String(); got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}
