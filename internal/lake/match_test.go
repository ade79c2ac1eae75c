package lake

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"datamaran/internal/core"
	"datamaran/internal/datagen"
	"datamaran/internal/lake/laketest"
	"datamaran/internal/parser/parsertest"
	"datamaran/internal/template"
	"datamaran/internal/textio"
)

// matchPool is the profiles the matcher tests draw registries from: the
// fixture lake's four formats (one of them multi-line), a two-template
// profile discovered on an interleaved file, and chains of those — a
// profile whose later templates only ever see the residue of the earlier
// ones, which is where a coverage scan and a full extraction could part.
func matchPool(t testing.TB) [][]*template.Node {
	t.Helper()
	golden, err := LoadRegistry(filepath.Join("..", "..", "testdata", "lake_golden", "registry.json"))
	if err != nil || golden.Len() == 0 {
		t.Fatalf("golden registry: %d entries, %v", golden.Len(), err)
	}
	var pool [][]*template.Node
	for _, e := range golden.Entries() {
		pool = append(pool, e.Templates)
	}
	two, _, err := discoverSample(context.Background(), []byte(mixedLog(2, 60, 100)), NewRegistry(), core.Options{})
	if err != nil || two == nil || len(two.Templates) != 2 {
		t.Fatalf("interleaved file gave %v, %v; want a two-template profile", two, err)
	}
	pool = append(pool, two.Templates)
	rng := rand.New(rand.NewSource(11))
	for range 8 {
		var chain []*template.Node
		for _, i := range rng.Perm(len(pool))[:2+rng.Intn(2)] {
			chain = append(chain, pool[i]...)
		}
		pool = append(pool, chain)
	}
	return pool
}

// matchSamples is the data the matcher tests scan: every file of the
// fixture lake, the 100-dataset corpus (a tenth of it with -short),
// interleaved files, and of each a copy that ends without a newline and
// one cut in the middle of a line.
func matchSamples(t testing.TB) map[string][]byte {
	t.Helper()
	samples := map[string][]byte{}
	root := filepath.Join("..", "..", "testdata", "lake")
	paths, _, err := crawl(root)
	if err != nil || len(paths) == 0 {
		t.Fatalf("fixture lake: %d files, %v", len(paths), err)
	}
	for _, rel := range paths {
		data, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(rel)))
		if err != nil {
			t.Fatal(err)
		}
		samples["lake/"+rel] = data
	}
	for i, d := range datagen.GitHubCorpus(1) {
		if !testing.Short() || i%10 == 0 {
			samples[fmt.Sprintf("corpus/%03d %s", i, d.Name)] = d.Data
		}
	}
	samples["mixed/60-40"] = []byte(mixedLog(3, 100, 49))
	samples["mixed/30-70"] = []byte(mixedLog(5, 60, 100))
	samples["jobs+metrics"] = []byte(laketest.JobsLog(6, 30, 90000, 6, []string{"DONE", "FAILED"}) + laketest.MetricsLog(7, 60))
	for name, data := range samples {
		if len(data) > 40 {
			samples[name+" (no final newline)"] = data[:len(data)-1]
			samples[name+" (cut mid-line)"] = data[:len(data)/2+3]
		}
	}
	return samples
}

// TestCoverageMatchesFullExtraction: for every sample and every profile
// of the pool, the coverage-only scan covers exactly the bytes a full
// extraction reports — the sum of the per-structure Coverage of the
// reference residue chain, parsertest.Apply — and a scan given a budget
// gives up exactly when the final uncovered bytes exceed it.
func TestCoverageMatchesFullExtraction(t *testing.T) {
	pool := matchPool(t)
	rng := rand.New(rand.NewSource(3))
	chained := 0
	for name, data := range matchSamples(t) {
		lines := textio.NewLines(data)
		for pi, templates := range pool {
			res := parsertest.Apply(templates, data)
			want := 0
			for _, s := range res.Structures {
				want += s.Coverage
			}
			if len(res.Structures) > 1 && res.Structures[1].Coverage > 0 {
				chained++
			}
			e := newEntry("", templates, 0)
			if got, ok := coverage(e, lines, len(data)); !ok || got != want {
				t.Fatalf("%s, profile %d: scan covers %d (ok=%v), full extraction %d", name, pi, got, ok, want)
			}
			uncovered := len(data) - want
			for _, budget := range []int{uncovered, max(uncovered-1, 0), rng.Intn(len(data) + 1)} {
				got, ok := coverage(e, lines, budget)
				if ok != (uncovered <= budget) || (ok && got != want) {
					t.Fatalf("%s, profile %d, budget %d of %d uncovered: covered %d ok=%v", name, pi, budget, uncovered, got, ok)
				}
			}
		}
	}
	if chained == 0 {
		t.Error("no profile's second template ever covered a byte: the residue chain went untested")
	}
}

// TestMatchSampleKeepsTheOldRule: over random registries (multi-template
// profiles among them, in random order) and random thresholds, the
// coverage-only MatchSample with its abort bound picks the entry the
// full-extraction rule picks.
func TestMatchSampleKeepsTheOldRule(t *testing.T) {
	pool := matchPool(t)
	rng := rand.New(rand.NewSource(4))
	picks, misses := 0, 0
	for name, data := range matchSamples(t) {
		for trial := 0; trial < 6; trial++ {
			reg := NewRegistry()
			for _, i := range rng.Perm(len(pool))[:1+rng.Intn(5)] {
				reg.Add(pool[i])
			}
			threshold := []float64{DefaultMatchThreshold, 0, 1, 1.5, rng.Float64(), rng.Float64() * rng.Float64()}[trial]
			got, want := MatchSample(data, reg, threshold), matchSampleRef(data, reg, threshold)
			if got != want {
				t.Fatalf("%s, threshold %v, %d entries: picked %v, the old rule picks %v", name, threshold, reg.Len(), got, want)
			}
			if got != nil {
				picks++
			} else {
				misses++
			}
		}
	}
	if picks < 50 || misses < 50 {
		t.Errorf("%d picks and %d misses: one side of the rule went untested", picks, misses)
	}
}

// TestMatchSampleEdges: an empty sample matches nothing (and divides by
// nothing), an empty registry matches nothing, a sample that is one line
// without a newline is handled, and ties keep the earlier entry.
func TestMatchSampleEdges(t *testing.T) {
	metrics := template.Struct(template.Field(), template.Lit("|"), template.Field(), template.Lit("|"),
		template.Field(), template.Lit("|\n")).Normalize()
	reg := NewRegistry()
	first, _ := reg.Add([]*template.Node{metrics})
	reg.Add([]*template.Node{metrics, template.Struct(template.Field(), template.Lit(";\n")).Normalize()})

	if e := MatchSample(nil, reg, 0.5); e != nil {
		t.Errorf("empty sample matched %v", e)
	}
	if e := MatchSample([]byte{}, reg, 0); e != nil {
		t.Errorf("empty sample at threshold 0 matched %v", e)
	}
	if e := MatchSample([]byte("metric|cpu0|1.00|\n"), NewRegistry(), 0.5); e != nil {
		t.Errorf("empty registry matched %v", e)
	}
	if e := MatchSample([]byte("metric|cpu0|1.00|\nmetric|cpu1|2.00|\n"), reg, 1); e != first {
		t.Errorf("two entries cover the sample in full: got %v, want the earlier one", e)
	}
	// The template ends in "|\n": a last line without its newline is not a
	// record, so only the first 18 of 35 bytes are covered.
	unterminated := []byte("metric|cpu0|1.00|\nmetric|cpu1|2.00|")
	if e := MatchSample(unterminated, reg, 0.5); e != first {
		t.Errorf("18 of 35 bytes covered, threshold 0.5: got %v", e)
	}
	if e := MatchSample(unterminated, reg, 0.52); e != nil {
		t.Errorf("18 of 35 bytes covered, threshold 0.52: got %v", e)
	}
	if e := MatchSample([]byte("no newline at all"), reg, 0.5); e != nil {
		t.Errorf("one unterminated line matched %v", e)
	}
}

// TestMinCovered: the integer bar is the float comparison it replaces.
func TestMinCovered(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20000; trial++ {
		total := 1 + rng.Intn(1<<uint(1+rng.Intn(19)))
		threshold := rng.Float64()
		switch trial % 5 {
		case 0:
			threshold = float64(rng.Intn(total+1)) / float64(total)
		case 1:
			threshold = []float64{0, 1, 0.5, 1.0000001, 2, -1}[rng.Intn(6)]
		}
		c := minCovered(total, threshold)
		reaches := func(c int) bool { return float64(c)/float64(total) >= threshold }
		if c < 0 || c > total+1 || (c <= total && !reaches(c)) || (c > 0 && reaches(c-1)) {
			t.Fatalf("minCovered(%d, %v) = %d", total, threshold, c)
		}
	}
}

// metricsSamples returns the fixture lake's registry and a metrics sample
// of 500 and of 8 000 records, keyed by record count.
func metricsSamples(tb testing.TB) (*Registry, map[int][]byte) {
	reg, err := LoadRegistry(filepath.Join("..", "..", "testdata", "lake_golden", "registry.json"))
	if err != nil {
		tb.Fatal(err)
	}
	fixture, err := os.ReadFile(filepath.Join("..", "..", "testdata", "lake", "metrics", "metrics-1.log"))
	if err != nil {
		tb.Fatal(err)
	}
	perFile := bytes.Count(fixture, []byte("\n"))
	samples := map[int][]byte{}
	for _, records := range []int{500, 8000} {
		samples[records] = bytes.Repeat(fixture, records/perFile+1)
		if MatchSample(samples[records], reg, DefaultMatchThreshold) == nil {
			tb.Fatal("no profile claims the metrics sample")
		}
	}
	return reg, samples
}

// TestMatchSampleAllocs holds a call to one ceiling at both sample sizes:
// it allocates a line index and a copy of the registry's entry list, and
// nothing per record or per format — a registry entry's matchers are
// compiled when it is registered. A regression re-materializes records on
// the crawl's match stage, or compiles every format per call (15).
func TestMatchSampleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const ceiling = 4
	reg, samples := metricsSamples(t)
	for records, sample := range samples {
		allocs := testing.AllocsPerRun(100, func() { MatchSample(sample, reg, DefaultMatchThreshold) })
		if allocs > ceiling {
			t.Errorf("MatchSample over %d records: %.0f allocations, ceiling %d", records, allocs, ceiling)
		}
	}
}

// BenchmarkMatchSample: one call against the fixture lake's registry, at
// the two sizes TestMatchSampleAllocs pins.
func BenchmarkMatchSample(b *testing.B) {
	reg, samples := metricsSamples(b)
	for _, records := range []int{500, 8000} {
		sample := samples[records]
		b.Run(fmt.Sprintf("records=%d", records), func(b *testing.B) {
			b.SetBytes(int64(len(sample)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MatchSample(sample, reg, DefaultMatchThreshold)
			}
		})
	}
}
