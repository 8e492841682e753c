package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		Name:  "morsel",
		Title: "Morsel-driven phase 4 under value skew: static vs morsel straggler gap",
		Run:   runMorselSkew,
	})
}

// runMorselSkew demonstrates the morsel scheduler closing the phase-4
// straggler gap. The workload concentrates 80% of both R and S keys in the
// top 20% of a narrow domain, and P-MPSM runs with deliberately data-oblivious
// uniform splitters — the situation the paper's equi-cost splitters normally
// repair, standing in for any estimation error that leaves one worker with a
// far larger private run than the others.
//
// Under static scheduling that worker is the phase-4 straggler: its busy
// time and match count dwarf everyone else's while the rest idle at the
// barrier. Under morsel scheduling the same run is cut into segments that
// idle workers steal, so per-worker phase-4 busy times flatten. The report
// shows per-worker phase-4 time and matches for both modes plus the max/min
// and max/mean busy-time ratios.
func runMorselSkew(cfg Config, w io.Writer) error {
	if err := warmUp(cfg); err != nil {
		return err
	}
	workers := max(cfg.workers(), 8)
	r, s, err := workload.Generate(workload.Spec{
		RSize:        cfg.RSize(),
		Multiplicity: 4,
		RSkew:        workload.SkewHigh80,
		SSkew:        workload.SkewHigh80,
		KeyDomain:    uint64(cfg.RSize()) * 4,
		Seed:         2100,
	})
	if err != nil {
		return err
	}
	// Morsels sized so that even the small default test scale produces
	// enough of them per heavy run to balance.
	morselSize := max(256, cfg.RSize()/(16*workers))

	for _, mode := range []sched.Mode{sched.Static, sched.Morsel} {
		res, err := pmpsm(r, s, core.Options{
			Workers:          workers,
			Splitters:        core.SplitterUniform,
			Scheduler:        mode,
			MorselSize:       morselSize,
			CollectPerWorker: true,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "-- %s scheduling (total %s ms, phase 4 %s ms, matches %d)\n",
			mode, ms(res.Total), ms(res.PhaseDuration("phase 4")), res.Matches)
		tbl := newTable(w)
		tbl.row("worker", "|Ri|", "matches", "phase 4 busy [ms]")
		minBusy, maxBusy := time.Duration(1<<62), time.Duration(0)
		var sumBusy time.Duration
		for _, wb := range res.PerWorker {
			var busy time.Duration
			for _, p := range wb.Phases {
				if p.Name == "phase 4" {
					busy = p.Duration
				}
			}
			if busy < minBusy {
				minBusy = busy
			}
			if busy > maxBusy {
				maxBusy = busy
			}
			sumBusy += busy
			tbl.row(wb.Worker, wb.PrivateTuples, wb.Matches, ms(busy))
		}
		tbl.flush()
		mean := sumBusy / time.Duration(workers)
		fmt.Fprintf(w, "   phase-4 straggler gap: max/min %.2fx, max/mean %.2fx\n\n",
			float64(maxBusy)/float64(max(1, int64(minBusy))),
			float64(maxBusy)/float64(max(1, int64(mean))))
	}
	fmt.Fprintln(w, "expected shape: identical matches; the static max/min busy-time ratio collapses under morsel scheduling")
	fmt.Fprintln(w, "(uniform splitters are chosen deliberately — they stand in for splitter estimation error)")
	return nil
}
