package main

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	mpsm "repro"
)

// TestJSONRecordFieldNames pins the -json output of a single join: the timing
// record's fields sit at the top level under these names, the phases carry
// name and millis, and nothing else appears when the optional sections are
// absent. Scripts parse these names; moving the type must not change them.
func TestJSONRecordFieldNames(t *testing.T) {
	res := &mpsm.Result{
		Algorithm:         "P-MPSM",
		Workers:           2,
		Matches:           40,
		MaxSum:            77,
		Phases:            []mpsm.Phase{{Name: "phase 1", Duration: 1500 * time.Microsecond}},
		Total:             3250 * time.Microsecond,
		PublicScanned:     120,
		SimulatedNUMACost: 2 * time.Millisecond,
	}
	res.NUMA.SyncOps = 9
	raw, err := json.Marshal(joinJSON{algorithmTiming: timingJSON(res, "static")})
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	want := map[string]any{
		"algorithm":         "P-MPSM",
		"scheduler":         "static",
		"workers":           2.0,
		"total_millis":      3.25,
		"phases":            []any{map[string]any{"name": "phase 1", "millis": 1.5}},
		"matches":           40.0,
		"max_sum":           77.0,
		"public_scanned":    120.0,
		"numa_model_millis": 2.0,
		"sync_ops":          9.0,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("-json record = %s\nwant fields and values %v", raw, want)
	}
}
