package bench

import (
	"testing"
)

// keysAcceptConfig is the measurement-grade configuration the normalized-key
// acceptance ratios are asserted at (the CI bench job's scale; keysSize
// floors the per-side cardinality at 2^17 tuples there).
func keysAcceptConfig() Config {
	return Config{Scale: 0.25, Workers: DefaultConfig().Workers}
}

// checkKeysReportShape validates the structural invariants of a keys report
// independent of timing: every measured join produced a positive time, the
// collision sweep is present in order with a non-decreasing collision rate,
// and — since only the prefix regime varies — an invariant match count.
func checkKeysReportShape(t *testing.T, rep *KeysReport) {
	t.Helper()
	if rep.Tuples <= 0 {
		t.Fatalf("report has %d tuples", rep.Tuples)
	}
	for name, ms := range map[string]float64{
		"string normalized":    rep.StringNormalizedMillis,
		"string comparator":    rep.StringComparatorMillis,
		"composite normalized": rep.CompositeNormalizedMillis,
		"composite comparator": rep.CompositeComparatorMillis,
		"raw uint64":           rep.RawUint64Millis,
		"exact schema":         rep.ExactSchemaMillis,
	} {
		if ms <= 0 {
			t.Errorf("implausible %s timing %v", name, ms)
		}
	}
	wantShared := []int{0, 2, 4, 5}
	if len(rep.Collision) != len(wantShared) {
		t.Fatalf("report has %d collision cells, want %d", len(rep.Collision), len(wantShared))
	}
	for i, cell := range rep.Collision {
		if cell.SharedPrefixBytes != wantShared[i] {
			t.Errorf("collision cell %d shares %d bytes, want %d", i, cell.SharedPrefixBytes, wantShared[i])
		}
		if cell.Millis <= 0 {
			t.Errorf("collision cell %d: implausible timing %v", i, cell.Millis)
		}
		if cell.CollisionRate < 0 || cell.CollisionRate > 1 {
			t.Errorf("collision cell %d: rate %v out of [0,1]", i, cell.CollisionRate)
		}
		if i > 0 {
			if cell.CollisionRate < rep.Collision[i-1].CollisionRate {
				t.Errorf("collision rate not monotone: cell %d has %v after %v",
					i, cell.CollisionRate, rep.Collision[i-1].CollisionRate)
			}
			if cell.Matches != rep.Collision[0].Matches {
				t.Errorf("sweep cell %d found %d matches, cell 0 found %d — the prefix regime must not change the result",
					i, cell.Matches, rep.Collision[0].Matches)
			}
		}
	}
}

// TestKeysJSONReport locks in the machine-readable normalized-key report and
// its acceptance criteria: string and composite schema joins beat the
// comparator-based row fallback by at least 2x, and the exact-prefix control
// — a single-column uint64 schema whose normalization is the identity — runs
// within 2% of the same join on raw keys. The default run checks the report's
// shape; the wall-clock ratios are asserted only under MPSM_PERF_ASSERT=1 —
// as the CI bench job does on an otherwise idle step — with one
// re-measurement, since the 2% control bound sits close to an idle machine's
// noise floor.
func TestKeysJSONReport(t *testing.T) {
	if testing.Short() {
		t.Skip("the keys report measures 2^17-tuple joins repeatedly")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts the wall-clock ratios the test asserts")
	}
	const minSpeedup, maxOverhead = 2.0, 1.02

	rep, err := buildKeysReport(keysAcceptConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkKeysReportShape(t, rep)
	if !perfAssert() {
		return // tier-1 checks shape and choice quality only; see perfAssert
	}
	if rep.StringSpeedup < minSpeedup || rep.CompositeSpeedup < minSpeedup || rep.ExactOverhead > maxOverhead {
		// One re-measurement: the speedups clear 2x comfortably on an idle
		// machine, but the control's 2% bound can lose a single run to a
		// noisy neighbour.
		t.Logf("string %.2fx composite %.2fx (want >= %.2f) control %.3fx (want <= %.3f), re-measuring once",
			rep.StringSpeedup, rep.CompositeSpeedup, minSpeedup, rep.ExactOverhead, maxOverhead)
		rep, err = buildKeysReport(keysAcceptConfig())
		if err != nil {
			t.Fatal(err)
		}
		checkKeysReportShape(t, rep)
	}
	if rep.StringSpeedup < minSpeedup {
		t.Errorf("normalized string join is %.2fx the comparator fallback, want >= %.2f",
			rep.StringSpeedup, minSpeedup)
	}
	if rep.CompositeSpeedup < minSpeedup {
		t.Errorf("normalized composite join is %.2fx the comparator fallback, want >= %.2f",
			rep.CompositeSpeedup, minSpeedup)
	}
	if rep.ExactOverhead > maxOverhead {
		t.Errorf("exact-prefix schema join is %.3fx the raw-key join, want <= %.3f",
			rep.ExactOverhead, maxOverhead)
	}
}
