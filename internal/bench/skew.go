package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/numa"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		Name:  "figure15",
		Title: "Location skew in S (none vs clustered arrangements)",
		Run:   runFigure15,
	})
	register(Experiment{
		Name:  "figure16",
		Title: "Negatively correlated skew: equi-height vs equi-cost splitter partitioning",
		Run:   runFigure16,
	})
}

// runFigure15 reproduces Figure 15: the impact of location skew in S on
// P-MPSM at multiplicity 4. Three arrangements of the same data are compared:
// no location skew, clustered so that a private partition's join partners are
// concentrated in one (usually local) run, and clustered with the chunk
// assignment rotated so the matching run is remote.
//
// Without real NUMA hardware the wall-clock effect is small; the join-phase
// time, the number of public tuples actually scanned and the simulated NUMA
// cost expose the effect the paper measures.
func runFigure15(cfg Config, w io.Writer) error {
	if err := warmUp(cfg); err != nil {
		return err
	}
	// Load balance and locality effects only become visible with a worker
	// per simulated core, so the experiment uses at least 8 workers and a
	// topology in which the workers actually spread over the NUMA nodes
	// (oversubscription is fine: this experiment is about data placement,
	// not wall-clock scaling).
	workers := max(cfg.workers(), 8)
	topo := numa.Topology{Nodes: 4, CoresPerNode: max(1, workers/4)}
	spec := workload.Spec{
		RSize:        cfg.RSize(),
		Multiplicity: 4,
		ForeignKey:   true,
		Seed:         1500,
	}
	r, s, err := workload.Generate(spec)
	if err != nil {
		return err
	}

	arrangements := []struct {
		name   string
		mutate func(rel *relation.Relation) *relation.Relation
	}{
		{"no location skew (T join partitions)", func(rel *relation.Relation) *relation.Relation { return rel }},
		{"clustered: partners in 1 local run", func(rel *relation.Relation) *relation.Relation {
			c := rel.Clone()
			workload.ApplyLocationSkew(c, workers, workload.LocationClustered, workload.DefaultKeyDomain)
			return c
		}},
		{"clustered + rotated: partners in 1 remote run", func(rel *relation.Relation) *relation.Relation {
			c := rel.Clone()
			workload.ApplyLocationSkew(c, workers, workload.LocationClustered, workload.DefaultKeyDomain)
			rotateChunks(c, workers, 1)
			return c
		}},
	}

	tbl := newTable(w)
	tbl.row("arrangement of S", "total [ms]", "join phase [ms]", "S tuples scanned", "simulated NUMA cost [ms]", "remote access fraction")
	for _, arr := range arrangements {
		sArranged := arr.mutate(s)
		res, err := pmpsm(r, sArranged, core.Options{Workers: workers, TrackNUMA: true, Topology: topo})
		if err != nil {
			return err
		}
		tbl.row(arr.name, ms(res.Total), ms(res.PhaseDuration("phase 4")), res.PublicScanned,
			ms(res.SimulatedNUMACost), fmt.Sprintf("%.2f", res.NUMA.RemoteFraction()))
	}
	tbl.flush()
	fmt.Fprintln(w, "\nexpected shape: location skew never hurts — clustered arrangements scan fewer S tuples per worker")
	return nil
}

// rotateChunks moves each worker-sized block of the relation to the position
// `shift` workers later, so that the key range a worker would sort locally is
// held by a different (remote) worker.
func rotateChunks(rel *relation.Relation, workers, shift int) {
	chunks := rel.Split(workers)
	rotated := make([]relation.Tuple, 0, rel.Len())
	for i := 0; i < workers; i++ {
		src := (i + shift) % workers
		rotated = append(rotated, chunks[src].Tuples...)
	}
	copy(rel.Tuples, rotated)
}

// runFigure16 reproduces Figure 16: the negatively correlated skew experiment.
// R has 80% of its keys in the top 20% of the domain, S has 80% of its keys in
// the bottom 20%, multiplicity 4. P-MPSM runs once with equi-height R
// partitioning and once with the equi-cost splitter computation; the report
// shows the per-worker completion times whose spread the splitters are
// supposed to flatten.
func runFigure16(cfg Config, w io.Writer) error {
	if err := warmUp(cfg); err != nil {
		return err
	}
	// Per-worker imbalance needs enough workers to be visible; the paper
	// uses 32. A key domain of 4·|R| keeps the join selective but non-empty
	// at laptop scale (the paper's 1600M tuples over a 2^32 domain have a
	// comparable key density).
	workers := max(cfg.workers(), 8)
	r, s, err := workload.Generate(workload.Spec{
		RSize:        cfg.RSize(),
		Multiplicity: 4,
		RSkew:        workload.SkewHigh80,
		SSkew:        workload.SkewLow80,
		KeyDomain:    uint64(cfg.RSize()) * 4,
		Seed:         1600,
	})
	if err != nil {
		return err
	}

	strategies := []struct {
		name     string
		strategy core.SplitterStrategy
	}{
		{"equi-height R partitioning", core.SplitterEquiHeight},
		{"equi-cost R-and-S splitters", core.SplitterEquiCost},
	}

	for _, st := range strategies {
		res, err := pmpsm(r, s, core.Options{
			Workers:          workers,
			Splitters:        st.strategy,
			CollectPerWorker: true,
			HistogramBits:    10, // B = 10 as in the paper's experiment
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "-- %s (total %s ms, matches %d)\n", st.name, ms(res.Total), res.Matches)
		tbl := newTable(w)
		tbl.row("worker", "|Ri|", "S scanned", "matches", "split cost", "phase 3 [ms]", "phase 4 [ms]", "worker total [ms]")
		minTotal, maxTotal := time.Duration(1<<62), time.Duration(0)
		minCost, maxCost := 0.0, 0.0
		costModel := partition.DefaultSplitterCost(workers)
		for i, wb := range res.PerWorker {
			var total time.Duration
			cells := make(map[string]time.Duration)
			for _, p := range wb.Phases {
				cells[p.Name] = p.Duration
				total += p.Duration
			}
			// The realized split-relevant cost is the quantity the splitter
			// computation balances: cost(sort Ri) + T·|Ri| + |S data scanned|.
			// Unlike per-worker wall clock, it is deterministic and not
			// distorted by goroutine scheduling on oversubscribed machines.
			cost := costModel.PartitionCost(wb.PrivateTuples, float64(wb.PublicScanned))
			if total < minTotal {
				minTotal = total
			}
			if total > maxTotal {
				maxTotal = total
			}
			if i == 0 || cost < minCost {
				minCost = cost
			}
			if cost > maxCost {
				maxCost = cost
			}
			tbl.row(wb.Worker, wb.PrivateTuples, wb.PublicScanned, wb.Matches, fmt.Sprintf("%.0f", cost),
				ms(cells["phase 3"]), ms(cells["phase 4"]), ms(total))
		}
		tbl.flush()
		fmt.Fprintf(w, "   imbalance (max/min): split-relevant cost %.2fx, wall clock %.2fx\n\n",
			maxCost/max(1, minCost),
			float64(maxTotal)/float64(max(1, int64(minTotal))))
	}
	fmt.Fprintln(w, "expected shape: equi-cost splitters flatten the per-worker times; equi-height leaves the low-key workers overloaded")
	return nil
}
