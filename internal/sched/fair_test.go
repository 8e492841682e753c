package sched

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waiting returns the current queue depth, for test synchronization.
func (fs *FairShare) waiting() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return len(fs.waiters)
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestFairShareGrantsLowestVirtualTimeFirst(t *testing.T) {
	fs := NewFairShare(1)
	holder := fs.Ticket(1)
	if err := holder.Acquire(context.Background()); err != nil {
		t.Fatalf("holder acquire: %v", err)
	}

	heavy := fs.Ticket(1)
	light := fs.Ticket(1)
	heavy.vtime = 50 * time.Millisecond // has consumed CPU
	light.vtime = 10 * time.Millisecond // has not

	order := make(chan string, 2)
	var wg sync.WaitGroup
	for _, c := range []struct {
		name string
		tk   *Ticket
	}{{"heavy", heavy}, {"light", light}} {
		wg.Add(1)
		go func(name string, tk *Ticket) {
			defer wg.Done()
			if err := tk.Acquire(context.Background()); err != nil {
				t.Errorf("%s acquire: %v", name, err)
				return
			}
			order <- name
			tk.Release(time.Millisecond)
		}(c.name, c.tk)
	}
	waitFor(t, func() bool { return fs.waiting() == 2 })
	holder.Release(0)
	wg.Wait()
	if first := <-order; first != "light" {
		t.Fatalf("first grant went to %q, want the lowest-virtual-time waiter", first)
	}
}

func TestFairShareWeightScalesCharge(t *testing.T) {
	fs := NewFairShare(2)
	a := fs.Ticket(1)
	b := fs.Ticket(4)
	for _, tk := range []*Ticket{a, b} {
		if err := tk.Acquire(context.Background()); err != nil {
			t.Fatalf("acquire: %v", err)
		}
		tk.Release(100 * time.Millisecond)
	}
	if a.vtime != 100*time.Millisecond {
		t.Fatalf("weight-1 vtime = %v, want 100ms", a.vtime)
	}
	if b.vtime != 25*time.Millisecond {
		t.Fatalf("weight-4 vtime = %v, want 25ms (100ms / weight 4)", b.vtime)
	}
}

func TestFairShareWeightedShareUnderContention(t *testing.T) {
	// One slot, two tickets with weights 1 and 3, two worker goroutines per
	// ticket issuing synthetic equal-cost units: the weight-3 ticket must
	// execute three times as many units. Two goroutines per ticket keep both
	// tickets represented in the wait queue at every grant (the serving shape
	// — each query runs several workers), and a holder releases only once the
	// other three are queued, so every grant chooses between both tickets by
	// the minimum-virtual-time rule alone, whatever the goroutine timing: the
	// ratio is 3:1 up to the units in flight and the ties.
	fs := NewFairShare(1)
	gate := fs.Ticket(1)
	if err := gate.Acquire(context.Background()); err != nil {
		t.Fatalf("gate acquire: %v", err)
	}

	const unit = time.Millisecond // synthetic busy time, no real sleeping
	var counts [2]atomic.Int64
	tickets := []*Ticket{fs.Ticket(1), fs.Ticket(3)}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i, tk := range tickets {
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(i int, tk *Ticket) {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if err := tk.Acquire(context.Background()); err != nil {
						return
					}
					counts[i].Add(1)
				queued:
					for fs.waiting() < 3 {
						select {
						case <-stop:
							break queued
						default:
							runtime.Gosched()
						}
					}
					tk.Release(unit)
				}
			}(i, tk)
		}
	}
	waitFor(t, func() bool { return fs.waiting() == 4 })
	gate.Release(0)
	waitFor(t, func() bool { return counts[0].Load()+counts[1].Load() >= 400 })
	close(stop)
	wg.Wait()

	c0, c1 := counts[0].Load(), counts[1].Load()
	ratio := float64(c1) / float64(c0)
	if ratio < 2.8 || ratio > 3.2 {
		t.Fatalf("weight-3 : weight-1 unit ratio = %d:%d (%.2f), want ≈3", c1, c0, ratio)
	}
}

func TestFairShareAcquireCancel(t *testing.T) {
	fs := NewFairShare(1)
	holder := fs.Ticket(1)
	if err := holder.Acquire(context.Background()); err != nil {
		t.Fatalf("holder acquire: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	waiter := fs.Ticket(1)
	go func() { errc <- waiter.Acquire(ctx) }()
	waitFor(t, func() bool { return fs.waiting() == 1 })
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("canceled Acquire = %v, want context.Canceled", err)
	}
	if fs.waiting() != 0 {
		t.Fatal("canceled waiter left in the queue")
	}
	// The slot must still cycle: release and re-acquire.
	holder.Release(0)
	if err := waiter.Acquire(context.Background()); err != nil {
		t.Fatalf("re-acquire after cancel: %v", err)
	}
	waiter.Release(0)
}

func TestFairShareNilDisablesGating(t *testing.T) {
	var fs *FairShare
	tk := fs.Ticket(5)
	if tk != nil {
		t.Fatalf("nil FairShare ticket = %v, want nil", tk)
	}
	if err := tk.Acquire(context.Background()); err != nil {
		t.Fatalf("nil ticket Acquire = %v", err)
	}
	tk.Release(time.Second)
	if fs.Slots() != 0 {
		t.Fatalf("nil Slots = %d", fs.Slots())
	}
}

func TestGatedRuntimesInterleave(t *testing.T) {
	// Two runtimes sharing one arbiter run morsel queues concurrently; both
	// must complete with every task executed exactly once.
	fs := NewFairShare(2)
	var wg sync.WaitGroup
	totals := make([]int64, 2)
	var mu sync.Mutex
	for q := 0; q < 2; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			rt := New(Config{Workers: 2, Gate: fs.Ticket(1 + q)})
			tasks := make([]Task, 40)
			for i := range tasks {
				tasks[i] = Task{Node: -1, Run: func(w *Worker) {
					mu.Lock()
					totals[q]++
					mu.Unlock()
				}}
			}
			rt.RunTasks(context.Background(), "match", tasks)
		}(q)
	}
	wg.Wait()
	if totals[0] != 40 || totals[1] != 40 {
		t.Fatalf("task totals = %v, want 40 each", totals)
	}
}

func TestGatedPhaseRespectsCancel(t *testing.T) {
	fs := NewFairShare(1)
	holder := fs.Ticket(1)
	if err := holder.Acquire(context.Background()); err != nil {
		t.Fatalf("holder acquire: %v", err)
	}
	defer holder.Release(0)

	ctx, cancel := context.WithCancel(context.Background())
	rt := New(Config{Workers: 2, Gate: fs.Ticket(1)})
	done := make(chan struct{})
	var ran atomic.Int64
	go func() {
		rt.Phase(ctx, "blocked", func(ctx context.Context, w *Worker) {
			ran.Add(1)
		})
		close(done)
	}()
	waitFor(t, func() bool { return fs.waiting() > 0 })
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("gated Phase did not return after cancel")
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("phase fn ran %d times despite never being granted a slot", n)
	}
}
