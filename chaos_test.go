package mpsm

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// chaosWorkload runs healthy and fault-injected queries concurrently against
// one service and verifies the failure-domain contract: faulty queries fail
// with typed errors (or succeed when their fault never fired), healthy
// queries return the exact fault-free answer, and after the storm the
// service holds zero reservations, zero leases, zero queued waiters, and a
// structurally intact scratch pool.
func chaosWorkload(t *testing.T, faulty, healthy int, specs []string) {
	t.Helper()
	r := GenerateUniform("R", 2000, 1)
	s := GenerateForeignKey("S", r, 8000, 2)

	engine := New(WithScratchPool(true), WithWorkers(2))
	// The queue must hold the full client population: the contract under
	// test is healthy-query parity, not back-pressure (which
	// TestServiceAdmissionRejects covers).
	svc := NewService(engine,
		WithMaxMemory(32<<20),
		WithAdmissionQueue(256, 10*time.Second),
		WithDefaultBudget(1<<20),
	)
	defer svc.Close()

	// Fault-free baseline for parity.
	want, err := svc.Join(context.Background(), r, s)
	if err != nil {
		t.Fatalf("baseline join: %v", err)
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	var failures []string
	var panics, injectedOK, healthyOK int

	for i := 0; i < faulty; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f, err := ParseFaultSpec(specs[i%len(specs)] + fmt.Sprintf(",seed:%d", i))
			if err != nil {
				t.Errorf("fault spec: %v", err)
				return
			}
			res, err := svc.Join(context.Background(), r, s,
				WithQueryLabel(fmt.Sprintf("faulty-%d", i)),
				WithQueryOptions(WithFaultInjection(f)))
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				// The fault drew but never fired — a legitimate outcome for
				// probabilistic points — but the answer must be right.
				if res.Matches != want.Matches || res.MaxSum != want.MaxSum {
					failures = append(failures, fmt.Sprintf("faulty-%d: wrong surviving answer", i))
				}
				injectedOK++
			default:
				var pe *PanicError
				if errors.As(err, &pe) {
					panics++
					if pe.Query == "" {
						failures = append(failures, fmt.Sprintf("faulty-%d: PanicError without query label", i))
					}
				} else if !Retryable(err) && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
					failures = append(failures, fmt.Sprintf("faulty-%d: untyped failure %v", i, err))
				}
			}
		}(i)
	}
	for i := 0; i < healthy; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := svc.Join(context.Background(), r, s,
				WithQueryLabel(fmt.Sprintf("healthy-%d", i)))
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				failures = append(failures, fmt.Sprintf("healthy-%d failed: %v", i, err))
				return
			}
			if res.Matches != want.Matches || res.MaxSum != want.MaxSum {
				failures = append(failures, fmt.Sprintf("healthy-%d: answer diverged under chaos", i))
				return
			}
			healthyOK++
		}(i)
	}
	wg.Wait()

	for _, f := range failures {
		t.Error(f)
	}
	if healthyOK != healthy {
		t.Errorf("only %d/%d healthy queries returned the fault-free answer", healthyOK, healthy)
	}
	if panics == 0 {
		t.Error("no query failed with a PanicError — the panic points never exercised isolation")
	}
	t.Logf("chaos: %d faulty (%d recovered panics, %d survived), %d healthy", faulty, panics, injectedOK, healthy)

	// The service must be fully drained and structurally intact.
	st := svc.Stats()
	if st.Active != 0 {
		t.Errorf("Active = %d after drain", st.Active)
	}
	if st.Admission.Waiting != 0 {
		t.Errorf("admission Waiting = %d after drain", st.Admission.Waiting)
	}
	if st.Memory.ReservedBytes != 0 {
		t.Errorf("ReservedBytes = %d after drain", st.Memory.ReservedBytes)
	}
	if st.Memory.ActiveLeases != 0 {
		t.Errorf("ActiveLeases = %d after drain", st.Memory.ActiveLeases)
	}
	if st.Degradation.PanicsRecovered == 0 {
		t.Error("DegradationStats.PanicsRecovered = 0 despite recovered panics")
	}
	if err := engine.pool.CheckIntegrity(); err != nil {
		t.Errorf("scratch pool integrity after chaos: %v", err)
	}
}

func TestChaosServiceSurvivesFaultStorm(t *testing.T) {
	faulty, healthy := 60, 60
	if testing.Short() {
		faulty, healthy = 20, 20
	}
	chaosWorkload(t, faulty, healthy, []string{
		"panic:1#1",                           // one worker panic per query
		"lease:1#1",                           // one allocation failure per query
		"panic:0.2",                           // probabilistic panics
		"stall:0.5@200us",                     // morsel stalls (slowdown, not failure)
		"cancel:1#1,stall:0.3@100us",          // cancellation storm + stalls
		"panic:0.3,lease:0.3,grant:0.5@100us", // mixed, plus grant races
	})
}

func TestChaosAllAlgorithmsPanicContained(t *testing.T) {
	r := GenerateUniform("R", 1000, 3)
	s := GenerateForeignKey("S", r, 4000, 4)
	for _, alg := range []Algorithm{PMPSM, BMPSM, DMPSM, Wisconsin, RadixHash} {
		for _, sched := range []Scheduler{Static, Morsel} {
			f := NewFaultSet(uint64(alg)*10+1).Enable(FaultWorkerPanic, 1).Limit(FaultWorkerPanic, 1)
			engine := New(WithScratchPool(true), WithWorkers(2))
			_, err := engine.Join(context.Background(), r, s,
				WithAlgorithm(alg), WithScheduler(sched), WithFaultInjection(f))
			if err == nil {
				t.Errorf("%v/%v: injected panic did not surface", alg, sched)
				continue
			}
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Errorf("%v/%v: failure %v is not a PanicError", alg, sched, err)
			}
			// The engine survives: the same join runs clean afterwards.
			if _, err := engine.Join(context.Background(), r, s, WithAlgorithm(alg), WithScheduler(sched)); err != nil {
				t.Errorf("%v/%v: engine unusable after contained panic: %v", alg, sched, err)
			}
			if err := engine.pool.CheckIntegrity(); err != nil {
				t.Errorf("%v/%v: pool integrity after panic: %v", alg, sched, err)
			}
		}
	}
}

func TestChaosLeaseAllocFaultContained(t *testing.T) {
	r := GenerateUniform("R", 1000, 5)
	s := GenerateForeignKey("S", r, 4000, 6)
	engine := New(WithScratchPool(true), WithWorkers(2))
	f := NewFaultSet(7).Enable(FaultLeaseAlloc, 1).Limit(FaultLeaseAlloc, 1)
	if _, err := engine.Join(context.Background(), r, s, WithFaultInjection(f)); err == nil {
		t.Fatal("injected lease-allocation failure did not surface")
	}
	st, _ := engine.PoolStats()
	if st.ActiveLeases != 0 {
		t.Fatalf("ActiveLeases = %d after contained allocation failure", st.ActiveLeases)
	}
	if st.PoisonedLeases == 0 {
		t.Fatal("allocation failure did not quarantine the lease")
	}
	if err := engine.pool.CheckIntegrity(); err != nil {
		t.Fatalf("pool integrity: %v", err)
	}
	if _, err := engine.Join(context.Background(), r, s); err != nil {
		t.Fatalf("engine unusable after contained allocation failure: %v", err)
	}
}

// TestChaosLeaseFaultReachesEveryAlgorithm arms the lease-allocation fault on
// every draw and runs each algorithm into the default max-sum sink and into a
// materializing one: whichever element type an algorithm draws first — tuples,
// ints, int32 hash slots or uint64 columns — the fault must fire, the join must
// fail with it, and the pool must come out intact with no lease left out.
func TestChaosLeaseFaultReachesEveryAlgorithm(t *testing.T) {
	r := GenerateUniform("R", 1000, 10)
	s := GenerateForeignKey("S", r, 4000, 11)
	for _, alg := range []Algorithm{PMPSM, BMPSM, DMPSM, Wisconsin, RadixHash} {
		for name, snk := range map[string]func() Sink{
			"default":     func() Sink { return nil },
			"materialize": func() Sink { return NewMaterializeSink() },
		} {
			engine := New(WithScratchPool(true), WithWorkers(2))
			f := NewFaultSet(uint64(alg)).Enable(FaultLeaseAlloc, 1)
			_, err := engine.Join(context.Background(), r, s,
				WithAlgorithm(alg), WithSink(snk()), WithFaultInjection(f))
			var inj *faultinject.Injected
			if !errors.As(err, &inj) || inj.Point != faultinject.LeaseAlloc {
				t.Errorf("%v/%s: join returned %v, want an injected lease-allocation fault", alg, name, err)
			}
			st, _ := engine.PoolStats()
			if st.ActiveLeases != 0 {
				t.Errorf("%v/%s: ActiveLeases = %d after the failed join", alg, name, st.ActiveLeases)
			}
			if err := engine.pool.CheckIntegrity(); err != nil {
				t.Errorf("%v/%s: pool integrity: %v", alg, name, err)
			}
		}
	}
}

// TestChaosNoGoroutineLeak bounds goroutine growth across a fault storm:
// recovered panics and canceled queries must not strand workers.
func TestChaosNoGoroutineLeak(t *testing.T) {
	r := GenerateUniform("R", 1000, 8)
	s := GenerateForeignKey("S", r, 4000, 9)
	engine := New(WithScratchPool(true), WithWorkers(4))
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		f := NewFaultSet(uint64(i)).Enable(FaultWorkerPanic, 0.5).EnableDelay(FaultMorselStall, 0.3, 100*time.Microsecond)
		engine.Join(context.Background(), r, s, WithScheduler(Morsel), WithFaultInjection(f))
	}
	deadline := time.After(5 * time.Second)
	for runtime.NumGoroutine() > before+10 {
		select {
		case <-deadline:
			t.Fatalf("goroutines grew from %d to %d across the fault storm", before, runtime.NumGoroutine())
		default:
			time.Sleep(10 * time.Millisecond)
		}
	}
}
