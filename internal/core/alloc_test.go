package core_test

import (
	"context"
	"testing"

	"datamaran/internal/core"
	"datamaran/internal/lake/laketest"
)

// failedDiscovery is what a crawl pays for a file no profile claims and no
// structure explains: discovery over the six lines of the lakes' prose
// notes file, which finds nothing. Generation finds candidates on it and
// evaluation refines them, tens of unfold rounds each, before the last
// one fails the coverage threshold.
func failedDiscovery(tb testing.TB) func() {
	data := []byte(laketest.Prose("metrics",
		"jobs/ holds the scheduler dumps -- multi-line, one stanza per job",
		"requests/ is the edge tier; latency units are milliseconds"))
	return func() {
		structures, _, err := core.Discover(context.Background(), data, core.Options{})
		if err != nil || len(structures) != 0 {
			tb.Fatalf("Discover = %d structures, %v; want none", len(structures), err)
		}
	}
}

// TestFailedDiscoveryAllocs holds a failed discovery to about twice the
// 61 308 allocations it makes with unfold variants spliced from their
// parent's matcher. Building every variant's tree and compiling it, as
// refinement did before, made 445 041.
func TestFailedDiscoveryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const ceiling = 125_000
	if allocs := testing.AllocsPerRun(3, failedDiscovery(t)); allocs > ceiling {
		t.Fatalf("a failed discovery allocated %.0f objects, ceiling %d", allocs, ceiling)
	}
}

// BenchmarkFailedDiscovery times failedDiscovery, whose allocations
// TestFailedDiscoveryAllocs pins.
func BenchmarkFailedDiscovery(b *testing.B) {
	discover := failedDiscovery(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		discover()
	}
}
