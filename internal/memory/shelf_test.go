package memory

import "testing"

// TestIntsZeroedOnEveryReuse pins the one per-type policy of the draws: an
// int buffer comes back zeroed whether it is reused from the lease's own free
// list or from the pool's.
func TestIntsZeroedOnEveryReuse(t *testing.T) {
	dirty := func(buf []int) {
		for i := range buf {
			buf[i] = i + 1
		}
	}
	zeroed := func(where string, buf []int) {
		t.Helper()
		for i, v := range buf {
			if v != 0 {
				t.Fatalf("%s: Ints not zeroed at %d: %d", where, i, v)
			}
		}
	}
	p := NewPool(0)
	l := p.Acquire()
	a := l.Ints(100)
	dirty(a[:cap(a)])
	l.PutInts(a)
	b := l.Ints(128)
	if &a[0] != &b[0] {
		t.Fatal("lease shelf did not serve the handed-back buffer")
	}
	zeroed("lease shelf", b)
	dirty(b)
	l.Release()

	l2 := p.Acquire()
	c := l2.Ints(65)
	if &c[0] != &a[0] || l2.Stats().Reused != 1 {
		t.Fatal("pool shelf did not serve the released buffer")
	}
	zeroed("pool shelf", c)
	l2.Release()
}

// TestScriptedTrafficStats runs one fixed sequence of draws, hand-backs and
// releases over all four element types — lease-shelf hits, pool-shelf hits,
// misses and releases past the byte limit — and pins every counter the lease
// and the pool report for it.
func TestScriptedTrafficStats(t *testing.T) {
	type poolCounters struct {
		Gets, Hits, Misses, Discards uint64
		HeldBytes, PeakHeldBytes     int64
	}
	p := NewPool(8192)

	l1 := p.Acquire()
	t1 := l1.Tuples(100) // class 7: 2048 B
	i1 := l1.Ints(100)   // 1024 B
	s1 := l1.Int32s(100) // 512 B
	l1.Uint64s(100)      // 1024 B
	l1.PutInts(i1)
	l1.PutInt32s(s1)
	l1.Ints(65)      // lease shelf
	l1.Int32s(128)   // lease shelf
	l1.Uint64s(1000) // class 10: 8192 B
	l1.Tuples(3)     // class 2: 64 B
	l1.PutTuples(t1)
	l1.Tuples(128)     // lease shelf
	l1.PutUint64s(nil) // foreign: dropped
	first := l1.Stats()
	l1.Release() // the 8 KiB uint64 buffer does not fit under the limit

	l2 := p.Acquire()
	l2.Tuples(128)   // pool shelf
	l2.Ints(100)     // pool shelf
	l2.Int32s(70)    // pool shelf
	l2.Uint64s(1000) // discarded on release: a miss
	l2.Uint64s(128)  // pool shelf
	l2.Tuples(4)     // pool shelf
	l2.Tuples(4)     // miss
	second := l2.Stats()
	l2.Release()

	s := p.Stats()
	got := poolCounters{s.Gets, s.Hits, s.Misses, s.Discards, s.HeldBytes, s.PeakHeldBytes}
	if want := (LeaseStats{Buffers: 9, Reused: 3, Bytes: 16448}); first != want {
		t.Errorf("first lease: %+v, want %+v", first, want)
	}
	if want := (LeaseStats{Buffers: 7, Reused: 5, Bytes: 12928}); second != want {
		t.Errorf("second lease: %+v, want %+v", second, want)
	}
	if want := (poolCounters{Gets: 13, Hits: 5, Misses: 8, Discards: 2, HeldBytes: 4736, PeakHeldBytes: 4736}); got != want {
		t.Errorf("pool: %+v, want %+v", got, want)
	}
}
