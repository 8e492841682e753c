package sched

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/numa"
	"repro/internal/result"
)

func TestModeString(t *testing.T) {
	if Static.String() != "static" || Morsel.String() != "morsel" {
		t.Fatalf("unexpected mode strings: %v %v", Static, Morsel)
	}
	if Mode(7).String() != "Mode(7)" {
		t.Fatalf("unknown mode should render numerically, got %v", Mode(7))
	}
	if !Static.Valid() || !Morsel.Valid() || Mode(7).Valid() {
		t.Fatal("Valid misclassifies modes")
	}
}

func TestParseMode(t *testing.T) {
	for name, want := range map[string]Mode{
		"static": Static, "Static": Static, " STATIC ": Static,
		"morsel": Morsel, "morsels": Morsel, "dynamic": Morsel,
	} {
		got, err := ParseMode(name)
		if err != nil || got != want {
			t.Fatalf("ParseMode(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseMode("nope"); err == nil {
		t.Fatal("ParseMode should reject unknown names")
	}
	// String() forms round-trip.
	for _, m := range []Mode{Static, Morsel} {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Fatalf("round-trip of %v failed: %v, %v", m, got, err)
		}
	}
}

func TestNewDefaults(t *testing.T) {
	rt := New(Config{})
	if rt.Workers() <= 0 {
		t.Fatal("worker default missing")
	}
	rt = New(Config{Workers: 3})
	if rt.Workers() != 3 {
		t.Fatalf("Workers() = %d, want 3", rt.Workers())
	}
	if rt.Worker(0).Tracker() != nil {
		t.Fatal("tracker must be nil when tracking is disabled")
	}
	rt = New(Config{Workers: 2, TrackNUMA: true})
	if rt.Worker(1).Tracker() == nil {
		t.Fatal("tracker missing when tracking is enabled")
	}
}

func TestPhaseRunsEveryWorkerAndRecords(t *testing.T) {
	rt := New(Config{Workers: 4})
	var ran [4]int32
	d := rt.Phase(context.Background(), "p", func(_ context.Context, w *Worker) {
		atomic.AddInt32(&ran[w.ID()], 1)
		time.Sleep(time.Millisecond)
	})
	for w := 0; w < 4; w++ {
		if ran[w] != 1 {
			t.Fatalf("worker %d ran %d times", w, ran[w])
		}
		if rt.Worker(w).phaseTime["p"] <= 0 {
			t.Fatalf("worker %d recorded no time", w)
		}
	}
	if d <= 0 {
		t.Fatal("phase duration missing")
	}
	// Repeated phases accumulate under the same name.
	before := rt.Worker(0).phaseTime["p"]
	rt.Phase(context.Background(), "p", func(_ context.Context, w *Worker) {
		time.Sleep(time.Millisecond)
	})
	if rt.Worker(0).phaseTime["p"] <= before {
		t.Fatal("phase time did not accumulate")
	}
}

func TestPhaseIsABarrier(t *testing.T) {
	rt := New(Config{Workers: 8})
	var inFlight, maxSeen int32
	rt.Phase(context.Background(), "p", func(_ context.Context, w *Worker) {
		n := atomic.AddInt32(&inFlight, 1)
		for {
			m := atomic.LoadInt32(&maxSeen)
			if n <= m || atomic.CompareAndSwapInt32(&maxSeen, m, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		atomic.AddInt32(&inFlight, -1)
	})
	if got := atomic.LoadInt32(&inFlight); got != 0 {
		t.Fatalf("%d workers still in flight after the barrier", got)
	}
	if maxSeen < 2 {
		t.Skipf("no concurrency observed (GOMAXPROCS too low)")
	}
}

func TestPhaseSkipsWorkOnCanceledContext(t *testing.T) {
	rt := New(Config{Workers: 4})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran int32
	rt.Phase(ctx, "p", func(_ context.Context, w *Worker) {
		atomic.AddInt32(&ran, 1)
	})
	if ran != 0 {
		t.Fatalf("%d workers ran despite canceled context", ran)
	}
}

func TestRunTasksExecutesEveryTaskExactlyOnce(t *testing.T) {
	rt := New(Config{Workers: 4, Topology: numa.Topology{Nodes: 2, CoresPerNode: 2}})
	const n = 100
	counts := make([]int32, n)
	tasks := make([]Task, n)
	for i := range tasks {
		i := i
		tasks[i] = Task{Node: i % 3, Run: func(w *Worker) { atomic.AddInt32(&counts[i], 1) }}
	}
	rt.RunTasks(context.Background(), "join", tasks)
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("task %d executed %d times", i, c)
		}
	}
}

func TestRunTasksRecordsBusyTimePerWorker(t *testing.T) {
	rt := New(Config{Workers: 2})
	tasks := make([]Task, 8)
	for i := range tasks {
		tasks[i] = Task{Node: -1, Run: func(w *Worker) { time.Sleep(time.Millisecond) }}
	}
	rt.RunTasks(context.Background(), "join", tasks)
	var total time.Duration
	for w := 0; w < 2; w++ {
		total += rt.Worker(w).phaseTime["join"]
	}
	if total < 8*time.Millisecond {
		t.Fatalf("recorded busy time %v, want >= 8ms", total)
	}
}

func TestRunTasksLocalityPreference(t *testing.T) {
	// One worker per node; every task is pinned to a node. With as many
	// tasks per node and no contention for the queue at start, the first
	// task every worker executes must be a local one.
	topo := numa.Topology{Nodes: 2, CoresPerNode: 1}
	rt := New(Config{Workers: 2, Topology: topo})
	var mu sync.Mutex
	firstNode := map[int]int{}
	var tasks []Task
	for i := 0; i < 16; i++ {
		node := i % 2
		tasks = append(tasks, Task{Node: node, Run: func(w *Worker) {
			mu.Lock()
			if _, seen := firstNode[w.ID()]; !seen {
				firstNode[w.ID()] = node
			}
			mu.Unlock()
		}})
	}
	rt.RunTasks(context.Background(), "join", tasks)
	mu.Lock()
	defer mu.Unlock()
	for w, node := range firstNode {
		if want := topo.NodeOfWorker(w); node != want {
			t.Fatalf("worker %d started with a task of node %d, want local node %d", w, node, want)
		}
	}
}

func TestRunTasksStealsRemoteTasks(t *testing.T) {
	// All tasks pinned to node 0, but workers live on 2 nodes: the node-1
	// workers must steal, and every task must still run exactly once.
	rt := New(Config{Workers: 4, Topology: numa.Topology{Nodes: 2, CoresPerNode: 2}})
	var executed int32
	tasks := make([]Task, 64)
	for i := range tasks {
		tasks[i] = Task{Node: 0, Run: func(w *Worker) {
			atomic.AddInt32(&executed, 1)
			time.Sleep(100 * time.Microsecond)
		}}
	}
	rt.RunTasks(context.Background(), "join", tasks)
	if executed != 64 {
		t.Fatalf("executed %d tasks, want 64", executed)
	}
}

func TestRunTasksStopsOnCancellation(t *testing.T) {
	rt := New(Config{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var executed int32
	tasks := make([]Task, 1000)
	for i := range tasks {
		tasks[i] = Task{Node: -1, Run: func(w *Worker) {
			if atomic.AddInt32(&executed, 1) == 4 {
				cancel()
			}
		}}
	}
	rt.RunTasks(ctx, "join", tasks)
	if got := atomic.LoadInt32(&executed); got >= 1000 {
		t.Fatalf("cancellation did not stop the queue (executed %d)", got)
	}
}

func TestForEachSegment(t *testing.T) {
	collect := func(n, size int) [][2]int {
		var got [][2]int
		ForEachSegment(n, size, func(lo, hi int) { got = append(got, [2]int{lo, hi}) })
		return got
	}
	if got := collect(0, 4); len(got) != 0 {
		t.Fatalf("empty sequence produced segments: %v", got)
	}
	if got := collect(10, 4); len(got) != 3 || got[0] != [2]int{0, 4} || got[2] != [2]int{8, 10} {
		t.Fatalf("segments of (10, 4) = %v", got)
	}
	if got := collect(4, 100); len(got) != 1 || got[0] != [2]int{0, 4} {
		t.Fatalf("oversized segment size mishandled: %v", got)
	}
	// A non-positive size falls back to the default rather than looping
	// forever or panicking.
	if got := collect(10, 0); len(got) != 1 || got[0] != [2]int{0, 10} {
		t.Fatalf("zero segment size mishandled: %v", got)
	}
}

func TestBreakdownsPreservePhaseOrder(t *testing.T) {
	rt := New(Config{Workers: 2})
	rt.Phase(context.Background(), "b", func(_ context.Context, w *Worker) {})
	rt.Phase(context.Background(), "a", func(_ context.Context, w *Worker) {})
	bds := rt.Breakdowns([]result.Phase{{Name: "a"}, {Name: "b"}})
	if len(bds) != 2 {
		t.Fatalf("got %d breakdowns, want 2", len(bds))
	}
	for _, bd := range bds {
		if len(bd.Phases) != 2 || bd.Phases[0].Name != "a" || bd.Phases[1].Name != "b" {
			t.Fatalf("phase order not preserved: %+v", bd.Phases)
		}
	}
}

func TestNUMAStatsMergesTrackers(t *testing.T) {
	rt := New(Config{Workers: 2, TrackNUMA: true})
	rt.Phase(context.Background(), "p", func(_ context.Context, w *Worker) {
		w.Tracker().SeqRead(w.Node(), 10)
	})
	stats := rt.NUMAStats()
	if stats.TotalAccesses() != 20 {
		t.Fatalf("merged accesses = %d, want 20", stats.TotalAccesses())
	}
	// Without tracking, stats must be zero rather than panicking.
	rt = New(Config{Workers: 2})
	if got := rt.NUMAStats(); got.TotalAccesses() != 0 {
		t.Fatalf("untracked runtime reported accesses: %+v", got)
	}
}
