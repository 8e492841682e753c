package memory

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/faultinject"
)

func TestPoisonedLeaseQuarantinesBuffers(t *testing.T) {
	p := NewPool(1 << 24)
	l := p.Acquire()
	l.Tuples(1000)
	l.Ints(500)
	l.Poison()
	l.Release()

	st := p.Stats()
	if st.PoisonedLeases != 1 {
		t.Fatalf("PoisonedLeases = %d, want 1", st.PoisonedLeases)
	}
	if st.QuarantinedBytes == 0 {
		t.Fatal("quarantined lease reported zero quarantined bytes")
	}
	if st.ActiveLeases != 0 {
		t.Fatalf("ActiveLeases = %d after release", st.ActiveLeases)
	}
	if err := p.CheckIntegrity(); err != nil {
		t.Fatalf("pool integrity after quarantine: %v", err)
	}

	// A fresh lease must not see the poisoned lease's buffers: everything
	// it draws comes from clean free lists or fresh allocation.
	l2 := p.Acquire()
	buf := l2.Tuples(1000)
	if len(buf) != 1000 {
		t.Fatalf("fresh draw returned %d tuples", len(buf))
	}
	if l2.Stats().Reused != 0 {
		t.Fatal("fresh lease reused a buffer that should be quarantined")
	}
	l2.Release()
	if err := p.CheckIntegrity(); err != nil {
		t.Fatalf("pool integrity after clean reuse: %v", err)
	}
}

func TestHealthyLeaseStillRecycles(t *testing.T) {
	p := NewPool(1 << 24)
	l := p.Acquire()
	l.Tuples(1000)
	l.Release()
	l2 := p.Acquire()
	l2.Tuples(1000)
	if l2.Stats().Reused != 1 {
		t.Fatalf("healthy release did not recycle: reused = %d", l2.Stats().Reused)
	}
	l2.Release()
}

func TestPoisonNilSafe(t *testing.T) {
	var l *Lease
	l.Poison() // must not panic
	l.Release()
}

func TestInjectedLeaseAllocPanics(t *testing.T) {
	p := NewPool(1 << 24)
	f := faultinject.New(5).Enable(faultinject.LeaseAlloc, 1)
	l := p.Acquire().InjectFaults(f)
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("injected lease allocation did not panic")
			}
			var inj *faultinject.Injected
			if err, ok := r.(error); !ok || !errors.As(err, &inj) || inj.Point != faultinject.LeaseAlloc {
				t.Fatalf("panic value %v is not Injected{LeaseAlloc}", r)
			}
		}()
		l.Tuples(100)
	}()
	// The recovery path poisons and releases; the pool must stay coherent.
	l.Poison()
	l.Release()
	if err := p.CheckIntegrity(); err != nil {
		t.Fatalf("pool integrity after injected alloc failure: %v", err)
	}
	if p.Stats().PoisonedLeases != 1 {
		t.Fatalf("PoisonedLeases = %d", p.Stats().PoisonedLeases)
	}
}

// TestCheckIntegrityDetectsCorruptedFreeList replaces one parked buffer with a
// wrong-class slice, on each of the four shelves in turn; the audit must name
// the misplaced buffer.
func TestCheckIntegrityDetectsCorruptedFreeList(t *testing.T) {
	for name, corrupt := range map[string]func(*shelves){
		"tuples":  func(s *shelves) { corruptShelf(&s.tuples) },
		"ints":    func(s *shelves) { corruptShelf(&s.ints) },
		"int32s":  func(s *shelves) { corruptShelf(&s.int32s) },
		"uint64s": func(s *shelves) { corruptShelf(&s.uint64s) },
	} {
		p := NewPool(1 << 24)
		l := p.Acquire()
		l.Tuples(100)
		l.Ints(100)
		l.Int32s(100)
		l.Uint64s(100)
		l.Release()
		if err := p.CheckIntegrity(); err != nil {
			t.Fatalf("%s: clean pool failed the audit: %v", name, err)
		}
		p.mu.Lock()
		corrupt(&p.free)
		p.mu.Unlock()
		if err := p.CheckIntegrity(); err == nil || !strings.Contains(err.Error(), "parked in class") {
			t.Fatalf("%s: CheckIntegrity missed a wrong-class buffer: %v", name, err)
		}
	}
}

// corruptShelf swaps the first parked buffer for a capacity-1 slice of it.
func corruptShelf[T any](s *shelf[T]) {
	for c := range s {
		if len(s[c]) > 0 {
			s[c][0] = s[c][0][:0:1]
			return
		}
	}
}

func TestCheckIntegrityNilPool(t *testing.T) {
	var p *Pool
	if err := p.CheckIntegrity(); err != nil {
		t.Fatalf("nil pool integrity: %v", err)
	}
}
