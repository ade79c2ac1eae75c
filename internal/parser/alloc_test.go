package parser

import (
	"testing"
)

// TestNoiseRejectionZeroAllocs pins the validate pass's contract: deciding
// that a line starts no record performs zero heap allocations — both for a
// bare MatchEnds probe and for a whole steady-state scan of pure noise,
// the body of BenchmarkScanNoiseReject. A regression silently brings back
// the per-candidate allocations the evaluation engine was rebuilt to
// remove.
func TestNoiseRejectionZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	m := NewMatcher(benchTemplate())
	noise := []byte("!! unparseable noise line with spaces !!\n")
	if avg := testing.AllocsPerRun(200, func() {
		if _, ok, _ := m.MatchEnds(noise, 0); ok {
			t.Fatal("noise line matched")
		}
	}); avg != 0 {
		t.Fatalf("MatchEnds on a noise line: %v allocs, want 0", avg)
	}

	lines := benchNoiseLines(5000)
	scan, _ := warmScan(lines)
	if avg := testing.AllocsPerRun(100, scan); avg != 0 {
		t.Fatalf("steady-state all-noise ScanInto: %v allocs/scan, want 0 (%.4f allocs/line)",
			avg, avg/float64(lines.N()))
	}
}

// TestApplyPathAllocsPerRecord pins the extract pass's steady-state cost on
// the profile-apply workload (every line a record): with the arenas warm,
// a scan — and therefore each record — allocates nothing. It is the
// ceiling of BenchmarkScanArenaReuse, whose body it shares.
func TestApplyPathAllocsPerRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	scan, res := warmScan(benchLines(5000))
	records := len(res.Records)
	if records != 5000 {
		t.Fatalf("records = %d, want 5000", records)
	}
	avg := testing.AllocsPerRun(100, scan)
	if perRecord := avg / float64(records); perRecord != 0 {
		t.Fatalf("steady-state apply path: %v allocs/scan = %.4f allocs/record, want 0", avg, perRecord)
	}
}

// TestColdScanAllocsBounded pins the cold-path allocation count: a fresh
// scan may grow its arenas, but the count must stay far below one
// allocation per record (the old tree path allocated several per record).
func TestColdScanAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	lines := benchLines(2000)
	m := NewMatcher(benchTemplate())
	avg := testing.AllocsPerRun(5, func() { m.Scan(lines) })
	if perRecord := avg / 2000; perRecord > 0.05 {
		t.Fatalf("cold scan: %v allocs = %.4f allocs/record, want <= 0.05", avg, perRecord)
	}
}
