package main

import (
	"time"

	mpsm "repro"
)

// phaseJSON is one timed phase of a -json record.
type phaseJSON struct {
	Name   string  `json:"name"`
	Millis float64 `json:"millis"`
}

// algorithmTiming is the -json record of one join execution: what the text
// form prints, as JSON.
type algorithmTiming struct {
	Algorithm     string      `json:"algorithm"`
	Scheduler     string      `json:"scheduler"`
	Workers       int         `json:"workers"`
	TotalMillis   float64     `json:"total_millis"`
	Phases        []phaseJSON `json:"phases"`
	Matches       uint64      `json:"matches"`
	MaxSum        uint64      `json:"max_sum"`
	PublicScanned int         `json:"public_scanned,omitempty"`
	NUMAModelMs   float64     `json:"numa_model_millis,omitempty"`
	SyncOps       uint64      `json:"sync_ops,omitempty"`
}

// joinJSON is the -json output of a single join: the timing record plus,
// when applicable, the scratch-pool, disk and plan details.
type joinJSON struct {
	algorithmTiming
	Scratch *mpsm.ScratchStats `json:"scratch,omitempty"`
	Pool    *mpsm.PoolStats    `json:"scratch_pool,omitempty"`
	Disk    *mpsm.DiskStats    `json:"disk,omitempty"`
	Explain *mpsm.Explain      `json:"explain,omitempty"`
}

// timingJSON converts a join result into its -json record.
func timingJSON(res *mpsm.Result, scheduler string) algorithmTiming {
	t := algorithmTiming{
		Algorithm:     res.Algorithm,
		Scheduler:     scheduler,
		Workers:       res.Workers,
		TotalMillis:   millis(res.Total),
		Matches:       res.Matches,
		MaxSum:        res.MaxSum,
		PublicScanned: res.PublicScanned,
		NUMAModelMs:   millis(res.SimulatedNUMACost),
		SyncOps:       res.NUMA.SyncOps,
	}
	for _, p := range res.Phases {
		t.Phases = append(t.Phases, phaseJSON{Name: p.Name, Millis: millis(p.Duration)})
	}
	return t
}

// millis converts a duration to fractional milliseconds.
func millis(d time.Duration) float64 {
	return float64(d.Microseconds()) / 1000.0
}
