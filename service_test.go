package mpsm

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/mergejoin"
)

// waitForState polls until cond holds or the test deadline is near.
func waitForState(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

// blockingSink passes the first joined pair and then blocks until released,
// keeping its query (and its admission reservation) in flight.
type blockingSink struct {
	started chan struct{}
	release chan struct{}
	once    sync.Once
}

func newBlockingSink() *blockingSink {
	return &blockingSink{started: make(chan struct{}), release: make(chan struct{})}
}

func (b *blockingSink) Open(workers int)                {}
func (b *blockingSink) Writer(w int) mergejoin.Consumer { return b }
func (b *blockingSink) Close() error                    { return nil }

func (b *blockingSink) Consume(r, s Tuple) {
	b.once.Do(func() {
		close(b.started)
		<-b.release
	})
}

var _ Sink = (*blockingSink)(nil)

func TestServiceJoinMatchesEngine(t *testing.T) {
	r := GenerateUniform("R", 2000, 1)
	s := GenerateForeignKey("S", r, 8000, 2)
	var want mergejoin.MaxAggregate
	mergejoin.ReferenceJoin(r.Tuples, s.Tuples, &want)

	svc := NewService(New(WithWorkers(2)))
	defer svc.Close()
	res, err := svc.Join(context.Background(), r, s, WithQueryLabel("solo"))
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if res.Matches != want.Count || res.MaxSum != want.Max {
		t.Fatalf("got %d/%d, want %d/%d", res.Matches, res.MaxSum, want.Count, want.Max)
	}
	st := svc.Stats()
	if st.Admission.Admitted != 1 || st.Active != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Memory.ReservedBytes != 0 {
		t.Fatalf("reserved after completion = %d, want 0", st.Memory.ReservedBytes)
	}
}

// TestServicePlanCacheHitRateAndParity runs the same join repeatedly for every
// algorithm and checks that (a) each repetition matches the reference oracle
// and (b) at least 90% of the plans come from the cache.
func TestServicePlanCacheHitRateAndParity(t *testing.T) {
	r := GenerateUniform("R", 2000, 1)
	s := GenerateForeignKey("S", r, 8000, 2)
	var want mergejoin.MaxAggregate
	mergejoin.ReferenceJoin(r.Tuples, s.Tuples, &want)

	svc := NewService(New())
	defer svc.Close()
	algorithms := []Algorithm{PMPSM, BMPSM, DMPSM, Wisconsin, RadixHash}
	const runs = 20
	for _, alg := range algorithms {
		for i := 0; i < runs; i++ {
			res, err := svc.Join(context.Background(), r, s,
				WithQueryOptions(WithAlgorithm(alg), WithWorkers(2)))
			if err != nil {
				t.Fatalf("%v run %d: %v", alg, i, err)
			}
			if res.Matches != want.Count || res.MaxSum != want.Max {
				t.Fatalf("%v run %d: got %d/%d, want %d/%d (cached plan diverged)",
					alg, i, res.Matches, res.MaxSum, want.Count, want.Max)
			}
		}
	}
	pc := svc.Stats().PlanCache
	total := pc.Hits + pc.Misses
	if total != uint64(len(algorithms)*runs) {
		t.Fatalf("cache saw %d lookups, want %d", total, len(algorithms)*runs)
	}
	if rate := float64(pc.Hits) / float64(total); rate < 0.90 {
		t.Fatalf("plan cache hit rate = %.2f (%d/%d), want >= 0.90", rate, pc.Hits, total)
	}
	if pc.Entries != len(algorithms) {
		t.Fatalf("cache entries = %d, want one per algorithm (%d)", pc.Entries, len(algorithms))
	}
}

// TestServiceConcurrentClients is the scaled-down acceptance workload: several
// closed-loop clients share one service; every query must succeed with the
// oracle result and the serving state must drain completely.
func TestServiceConcurrentClients(t *testing.T) {
	r := GenerateUniform("R", 2000, 1)
	s := GenerateForeignKey("S", r, 6000, 2)
	var want mergejoin.MaxAggregate
	mergejoin.ReferenceJoin(r.Tuples, s.Tuples, &want)

	svc := NewService(New(WithScratchPool(true), WithAutoPlan(true), WithWorkers(2)),
		WithFairSlots(2))
	defer svc.Close()
	// Warm the plan cache so the concurrent wave doesn't race on the first
	// miss (the cache has no singleflight; concurrent first sightings each
	// plan once).
	if _, err := svc.Join(context.Background(), r, s); err != nil {
		t.Fatalf("warmup: %v", err)
	}

	const clients, perClient = 8, 4
	errs := make(chan error, clients*perClient)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			weight := 1 + c%2
			for i := 0; i < perClient; i++ {
				res, err := svc.Join(context.Background(), r, s,
					WithQueryWeight(weight))
				if err != nil {
					errs <- err
					return
				}
				if res.Matches != want.Count || res.MaxSum != want.Max {
					errs <- errors.New("concurrent query returned wrong result")
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := svc.Stats()
	if got := st.Admission.Admitted; got != clients*perClient+1 {
		t.Fatalf("admitted = %d, want %d", got, clients*perClient+1)
	}
	if st.Active != 0 || st.Memory.ReservedBytes != 0 {
		t.Fatalf("serving state did not drain: %+v", st)
	}
	pc := st.PlanCache
	if rate := float64(pc.Hits) / float64(pc.Hits+pc.Misses); rate < 0.90 {
		t.Fatalf("hit rate under concurrency = %.2f, want >= 0.90", rate)
	}
}

func TestServiceAdmissionRejects(t *testing.T) {
	r := GenerateUniform("R", 500, 1)
	s := GenerateForeignKey("S", r, 1000, 2)

	svc := NewService(New(WithWorkers(1)),
		WithMaxMemory(1<<20), WithAdmissionQueue(1, 0))
	defer svc.Close()

	// A budget that could never fit is rejected outright, not queued.
	if _, err := svc.Join(context.Background(), r, s, WithQueryBudget(2<<20)); !errors.Is(err, ErrBudgetTooLarge) {
		t.Fatalf("oversized budget error = %v, want ErrBudgetTooLarge", err)
	}

	// Fill the budget with a blocked query, then the queue with a waiter; the
	// next arrival bounces with ErrQueueFull instead of piling up.
	blk := newBlockingSink()
	holderErr := make(chan error, 1)
	go func() {
		_, err := svc.Join(context.Background(), r, s,
			WithQueryBudget(1<<20), WithQueryOptions(WithSink(blk)))
		holderErr <- err
	}()
	<-blk.started

	waiterErr := make(chan error, 1)
	go func() {
		_, err := svc.Join(context.Background(), r, s, WithQueryBudget(1024))
		waiterErr <- err
	}()
	waitForState(t, func() bool { return svc.Stats().Admission.Waiting == 1 })

	if _, err := svc.Join(context.Background(), r, s, WithQueryBudget(1024)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("full-queue error = %v, want ErrQueueFull", err)
	}

	close(blk.release)
	if err := <-holderErr; err != nil {
		t.Fatalf("holder: %v", err)
	}
	if err := <-waiterErr; err != nil {
		t.Fatalf("waiter: %v", err)
	}
	if got := svc.Stats().Memory.ReservedBytes; got != 0 {
		t.Fatalf("reserved after drain = %d, want 0", got)
	}
}

// TestServiceCancelWhileQueued is the service-level regression test for
// context cancellation in the admission queue: the canceled query returns
// ctx.Err(), leaves the queue, and its budget is fully recovered.
func TestServiceCancelWhileQueued(t *testing.T) {
	r := GenerateUniform("R", 500, 1)
	s := GenerateForeignKey("S", r, 1000, 2)

	svc := NewService(New(WithWorkers(1)), WithMaxMemory(1<<20))
	defer svc.Close()

	blk := newBlockingSink()
	holderErr := make(chan error, 1)
	go func() {
		_, err := svc.Join(context.Background(), r, s,
			WithQueryBudget(1<<20), WithQueryLabel("holder"), WithQueryOptions(WithSink(blk)))
		holderErr <- err
	}()
	<-blk.started

	// While the holder runs, its reservation is attributed in the pool stats.
	attributed := false
	for _, q := range svc.Stats().Memory.Queries {
		if q.Label == "holder" && q.ReservedBytes == 1<<20 {
			attributed = true
		}
	}
	if !attributed {
		t.Fatalf("holder's reservation missing from attribution: %+v", svc.Stats().Memory.Queries)
	}

	ctx, cancel := context.WithCancel(context.Background())
	canceledErr := make(chan error, 1)
	go func() {
		_, err := svc.Join(ctx, r, s, WithQueryBudget(1024))
		canceledErr <- err
	}()
	waitForState(t, func() bool { return svc.Stats().Admission.Waiting == 1 })
	cancel()
	if err := <-canceledErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled query error = %v, want context.Canceled", err)
	}
	st := svc.Stats().Admission
	if st.Canceled != 1 || st.Waiting != 0 {
		t.Fatalf("admission stats after cancel = %+v", st)
	}

	close(blk.release)
	if err := <-holderErr; err != nil {
		t.Fatalf("holder: %v", err)
	}
	if got := svc.Stats().Memory.ReservedBytes; got != 0 {
		t.Fatalf("reserved after drain = %d, want 0 (canceled waiter leaked)", got)
	}
}

func TestServiceClosed(t *testing.T) {
	r := GenerateUniform("R", 100, 1)
	s := GenerateForeignKey("S", r, 200, 2)
	svc := NewService(New())
	svc.Close()
	if _, err := svc.Join(context.Background(), r, s); !errors.Is(err, ErrServiceClosed) {
		t.Fatalf("Join after Close = %v, want ErrServiceClosed", err)
	}
}

// TestServiceRunPlan routes a multi-operator plan through the serving layer
// and compares it against the direct engine execution.
func TestServiceRunPlan(t *testing.T) {
	r := GenerateUniform("R", 1000, 1)
	s := GenerateForeignKey("S", r, 3000, 2)

	build := func() *Plan {
		p := NewPlan()
		rs := p.Scan(r)
		ss := p.Scan(s)
		j := p.Join(rs, ss)
		p.GroupAggregate(j, AggSum)
		return p
	}
	e := New(WithWorkers(2))
	want, err := e.RunPlan(context.Background(), build())
	if err != nil {
		t.Fatalf("engine RunPlan: %v", err)
	}

	svc := NewService(e)
	defer svc.Close()
	got, err := svc.RunPlan(context.Background(), build())
	if err != nil {
		t.Fatalf("service RunPlan: %v", err)
	}
	if got.Output.Len() != want.Output.Len() {
		t.Fatalf("group count = %d, want %d", got.Output.Len(), want.Output.Len())
	}
	for i, g := range got.Output.Tuples {
		if g != want.Output.Tuples[i] {
			t.Fatalf("group %d = %+v, want %+v", i, g, want.Output.Tuples[i])
		}
	}
	// The same shape re-submitted hits the cache.
	if _, err := svc.RunPlan(context.Background(), build()); err != nil {
		t.Fatal(err)
	}
	if pc := svc.Stats().PlanCache; pc.Hits != 1 {
		t.Fatalf("plan cache stats = %+v, want a hit on the repeated plan", pc)
	}
}

// TestServiceShareIsTheWorkerBound: a query's share of the fair-share slots
// bounds its worker count where the planner chooses it and is the count where
// it does not. A lone query on four slots joins a small input on the one
// worker the planner keeps and the same input, pinned to an algorithm with
// auto-planning off, on all four; an explicit WithWorkers replaces the share
// the same way.
func TestServiceShareIsTheWorkerBound(t *testing.T) {
	r := GenerateUniform("R", 4096, 1)
	s := GenerateForeignKey("S", r, 16384, 2)
	svc := NewService(New(WithAutoPlan(true)), WithFairSlots(4))
	defer svc.Close()
	pin := []Option{WithAlgorithm(PMPSM), WithAutoPlan(false)}
	for _, tc := range []struct {
		name string
		opts []Option
		want int
	}{
		{"auto-planned under the share", nil, 1},
		{"pinned: the share", pin, 4},
		{"auto-planned under WithWorkers(3)", []Option{WithWorkers(3)}, 1},
		{"pinned with WithWorkers(3)", append([]Option{WithWorkers(3)}, pin...), 3},
	} {
		for run := 0; run < 2; run++ { // a plan-cache miss, then a hit
			res, err := svc.Join(context.Background(), r, s, WithQueryOptions(tc.opts...))
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if res.Workers != tc.want {
				t.Errorf("%s, run %d: the join ran on %d workers, want %d", tc.name, run, res.Workers, tc.want)
			}
		}
	}
}

// TestServiceDegradedShareHalves: a query the degradation ladder admitted on
// half its budget gets half its share of the slots as its worker bound — seen
// here on a pinned algorithm, which runs on exactly the bound.
func TestServiceDegradedShareHalves(t *testing.T) {
	r := GenerateUniform("R", 2000, 1)
	s := GenerateForeignKey("S", r, 8000, 2)
	svc := NewService(New(WithAutoPlan(true)),
		WithFairSlots(8), WithMaxMemory(8<<20), WithAdmissionQueue(1, time.Millisecond))
	defer svc.Close()

	// One query holds half the memory and one of two places among the active
	// (and, on its one worker, one slot: every worker that reaches the
	// blocking sink stays in it).
	holder := newBlockingSink()
	done := make(chan error, 1)
	go func() {
		_, err := svc.Join(context.Background(), r, s, WithQueryBudget(4<<20),
			WithQueryOptions(WithSink(holder), WithAutoPlan(false), WithWorkers(1)))
		done <- err
	}()
	<-holder.started

	// The second asks for all of it, times out of the queue, and is admitted
	// on the halved budget: its share of 8 slots among 2 queries, 4, halves.
	res, err := svc.Join(context.Background(), r, s, WithQueryBudget(8<<20),
		WithQueryOptions(WithAlgorithm(PMPSM), WithAutoPlan(false)))
	close(holder.release)
	if err != nil {
		t.Fatalf("degraded join: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("holding join: %v", err)
	}
	if st := svc.Stats().Degradation; st.NarrowedQueries != 1 || st.BudgetShrinks != 1 {
		t.Fatalf("degradation = %+v, want one query narrowed by one budget halving", st)
	}
	if res.Workers != 2 {
		t.Errorf("the degraded join ran on %d workers, want 2: half its share of 4", res.Workers)
	}
}
