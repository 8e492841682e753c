// Command mpsmd serves MPSM joins over HTTP: a thin front-end over the
// mpsm.Service serving layer (admission control, fair-share scheduling, plan
// cache) with an in-memory catalog of named relations.
//
// Start a server and run a join:
//
//	mpsmd -addr :7737 -pool -auto &
//	curl -s localhost:7737/v1/relations -d '{"name":"r","generate":{"size":100000,"seed":1}}'
//	curl -s localhost:7737/v1/relations -d '{"name":"s","generate":{"size":400000,"seed":2,"foreign_key_of":"r"}}'
//	curl -s localhost:7737/v1/join -d '{"r":"r","s":"s"}'
//	curl -s localhost:7737/v1/query -d '{"query":"ans(K, Sum) :- r(K, X), s(K, Y), X > 10, agg sum(Y)","limit":5}'
//	curl -s localhost:7737/v1/stats
//
// An upload is scanned in one pass into the relation's tuples and refused with
// 413 once it exceeds what a join could be admitted for (-max-memory / 48
// tuples) or what the catalog may hold (-max-memory bytes of tuples); see
// ingest.go for the grammar.
//
// Joins admitted beyond the memory limit queue FIFO (429 once the queue is
// full); concurrent joins interleave under weighted fair-share scheduling; and
// repeated plan shapes are served from the plan cache — /v1/stats reports all
// three.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	mpsm "repro"
)

// The connection-level time bounds. Request bodies have their own deadline,
// server.bodyTimeout, which an upload renews block by block: there is no
// http.Server.ReadTimeout, because a bulk upload may take as long as it likes
// while it keeps delivering.
const (
	// readHeaderTimeout is how long a client may take to send a request's
	// headers.
	readHeaderTimeout = 10 * time.Second
	// idleTimeout is how long a keep-alive connection may sit between
	// requests.
	idleTimeout = 2 * time.Minute
)

func main() {
	var (
		addr          = flag.String("addr", ":7737", "listen address")
		workers       = flag.Int("workers", 0, "engine degree of parallelism (default GOMAXPROCS)")
		usePool       = flag.Bool("pool", true, "enable the engine-wide scratch pool")
		autoPlan      = flag.Bool("auto", true, "let the cost-based planner pick physical plans (memoized by the plan cache)")
		maxMemory     = flag.Int64("max-memory", 0, "admission memory limit in bytes (0 = pool default)")
		queueLimit    = flag.Int("queue", 0, "admission queue limit (0 = unbounded)")
		queueTimeout  = flag.Duration("queue-timeout", 0, "max time a query waits for admission (0 = query context only)")
		fairSlots     = flag.Int("fair-slots", 0, "fair-share execution slots (default GOMAXPROCS)")
		cacheSize     = flag.Int("cache-size", 0, "plan cache capacity (0 = default 256)")
		defaultBudget = flag.Int64("default-budget", 0, "per-query memory budget in bytes when the request declares none (0 = derive from input sizes)")
	)
	execDeadline := flag.Duration("exec-deadline", 0, "per-query execution deadline (0 = none)")
	flag.Parse()

	// MPSM_FAULTS arms deterministic fault injection across the whole
	// service, e.g. MPSM_FAULTS='seed:42,panic:0.05,stall:0.1@200us'.
	faults, err := mpsm.ParseFaultSpec(os.Getenv("MPSM_FAULTS"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpsmd: MPSM_FAULTS:", err)
		os.Exit(2)
	}

	engine := mpsm.New(
		mpsm.WithWorkers(*workers),
		mpsm.WithScratchPool(*usePool),
		mpsm.WithAutoPlan(*autoPlan),
	)
	svc := mpsm.NewService(engine,
		mpsm.WithMaxMemory(*maxMemory),
		mpsm.WithAdmissionQueue(*queueLimit, *queueTimeout),
		mpsm.WithFairSlots(*fairSlots),
		mpsm.WithPlanCacheSize(*cacheSize),
		mpsm.WithDefaultBudget(*defaultBudget),
		mpsm.WithExecDeadline(*execDeadline),
		mpsm.WithServiceFaults(faults),
	)

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           newServer(svc),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}

	// Graceful shutdown: on SIGINT/SIGTERM stop accepting connections,
	// drain in-flight HTTP requests (bounded by the shutdown timeout), then
	// close the service — Close itself waits for queries already admitted
	// or queued, so the drain order is connections first, queries second.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-ctx.Done()
		fmt.Println("mpsmd: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(shutdownCtx)
		_ = svc.Close()
	}()

	if faults != nil {
		fmt.Printf("mpsmd: fault injection armed: %v\n", faults)
	}
	fmt.Printf("mpsmd listening on %s\n", *addr)
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "mpsmd:", err)
		os.Exit(1)
	}
	<-done
	fmt.Println("mpsmd: drained")
}
