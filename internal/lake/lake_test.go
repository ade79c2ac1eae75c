package lake

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"datamaran/internal/core"
	"datamaran/internal/follow"
	"datamaran/internal/lake/laketest"
)

// noiseProse is the lake's unstructured notes file (store_test also
// rewrites a structured file with it to test structure loss).
var noiseProse = laketest.Prose("metrics",
	"jobs/ holds the scheduler dumps -- multi-line, one stanza per job",
	"web/ is the edge tier; latency units are milliseconds")

// buildLake writes a small heterogeneous lake: three formats spread
// over eight files, one prose file, one empty file, and hidden entries
// that the crawl must skip. The file contents come from the shared
// laketest corpus.
func buildLake(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		p := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	states := []string{"DONE", "FAILED", "RUNNING"}
	verbs := []string{"GET", "PUT", "POST"}
	for f := 1; f <= 3; f++ {
		write(fmt.Sprintf("a/jobs-%d.log", f),
			laketest.JobsLog(int64(10+f), 60, 90000, 6, states))
	}
	for f := 1; f <= 3; f++ {
		write(fmt.Sprintf("b/req-%d.log", f),
			laketest.RequestsLog(int64(20+f), 150, verbs, 10000, []int{200, 404, 500}))
	}
	for f := 1; f <= 2; f++ {
		write(fmt.Sprintf("c/metrics-%d.log", f),
			laketest.MetricsLog(int64(30+f), 140))
	}
	write("noise.txt", noiseProse)
	write("empty.log", "")
	write(".hidden/skip.log", "GET /api/v1/item/1 200\n")
	write(".hiddenfile", "metric|cpu0|1.00|\n")
	return root
}

// digest renders an Index result and registry into a canonical string:
// everything the crawl reports except timings — per file its status,
// fingerprint, error and record counts. The records themselves are in
// the record store; a test that compares them crawls with one and adds
// storeRows.
func digest(t *testing.T, res *Result, reg *Registry) string {
	t.Helper()
	var b strings.Builder
	raw, err := json.Marshal(reg)
	if err != nil {
		t.Fatal(err)
	}
	b.Write(raw)
	b.WriteByte('\n')
	fmt.Fprintf(&b, "summary %+v\n", res.Summary)
	for _, f := range res.Files {
		fmt.Fprintf(&b, "file %s size=%d fp=%s status=%s err=%v\n",
			f.Path, f.Size, f.Fingerprint, f.Status, f.Err)
		if f.Inc != nil {
			fmt.Fprintf(&b, "inc %s %+v\n", f.Path, *f.Inc)
		}
	}
	return b.String()
}

func TestIndexDiscoversOncePerFormat(t *testing.T) {
	root := buildLake(t)
	reg := NewRegistry()
	res, err := Index(root, reg, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summary
	if s.Files != 10 {
		t.Fatalf("crawled %d files (hidden entries not skipped?): %+v", s.Files, res.Files)
	}
	if s.FormatsDiscovered != 3 || s.FormatsKnown != 3 {
		t.Fatalf("formats: %+v", s)
	}
	if s.Structured != 8 || s.CacheHits != 5 {
		t.Fatalf("clustering: %+v", s)
	}
	if s.Unstructured != 2 || s.Failed != 0 {
		t.Fatalf("unstructured/failed: %+v", s)
	}
	// Exactly one discovery per format.
	perFP := map[string]int{}
	for _, f := range res.Files {
		if f.Status == StatusDiscovered {
			perFP[f.Fingerprint]++
		}
	}
	for fp, n := range perFP {
		if n != 1 {
			t.Fatalf("format %s discovered %d times", fp, n)
		}
	}
	// Cached files are extracted in full.
	for _, f := range res.Files {
		if f.Status == StatusMatched && (f.Inc == nil || f.Inc.TotalRecords == 0 || f.Inc.Extracted != f.Inc.TotalRecords) {
			t.Fatalf("matched file %s was not extracted in full: %+v", f.Path, f.Inc)
		}
	}
}

func TestIndexWorkerEquivalence(t *testing.T) {
	// The acceptance property: worker count must not change one byte of
	// the registry, the per-file counts or the stored records.
	// Single-CPU-safe — it checks outputs, not wall clock.
	root := buildLake(t)
	var want string
	for _, workers := range []int{1, 2, 8} {
		reg := NewRegistry()
		s, err := OpenSegmentStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		res := crawlWithStoreWorkers(t, root, reg, follow.NewStore(), s, workers)
		got := digest(t, res, reg) + storeRows(t, s)
		if workers == 1 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("workers=%d output differs from workers=1:\n%s\n--- vs ---\n%s", workers, got, want)
		}
	}
}

func TestIndexRegistryReuseAcrossRuns(t *testing.T) {
	root := buildLake(t)
	regPath := filepath.Join(t.TempDir(), "registry.json")

	reg, err := LoadRegistry(regPath) // missing file: empty registry
	if err != nil {
		t.Fatal(err)
	}
	res1, err := Index(root, reg, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Save(regPath); err != nil {
		t.Fatal(err)
	}

	reg2, err := LoadRegistry(regPath)
	if err != nil {
		t.Fatal(err)
	}
	if reg2.Len() != reg.Len() {
		t.Fatalf("registry round trip lost formats: %d vs %d", reg2.Len(), reg.Len())
	}
	res2, err := Index(root, reg2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Summary.FormatsDiscovered != 0 {
		t.Fatalf("second run re-discovered formats: %+v", res2.Summary)
	}
	if res2.Summary.CacheHits != res2.Summary.Structured {
		t.Fatalf("second run should be all cache hits: %+v", res2.Summary)
	}
	if res2.Summary.Structured != res1.Summary.Structured {
		t.Fatalf("runs disagree on structured files: %+v vs %+v", res2.Summary, res1.Summary)
	}
	// Per-file claim counts accumulate across runs.
	for _, e := range reg2.Entries() {
		if first := reg.Lookup(e.Fingerprint); first == nil || e.Files != 2*first.Files {
			t.Fatalf("entry %s files=%d after two runs (first run %v)", e.Fingerprint, e.Files, first)
		}
	}
}

func TestIndexAppliesCoreOptions(t *testing.T) {
	// An unsatisfiable alpha (no template can cover more than the whole
	// file) turns every file unstructured — the Core options must flow
	// through to discovery.
	root := buildLake(t)
	reg := NewRegistry()
	res, err := Index(root, reg, Config{Core: core.Options{Alpha: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Structured != 0 || reg.Len() != 0 {
		t.Fatalf("alpha=2 still structured files: %+v", res.Summary)
	}
}

func TestIndexMissingRoot(t *testing.T) {
	if _, err := Index(filepath.Join(t.TempDir(), "nope"), NewRegistry(), Config{}); err == nil {
		t.Fatal("missing root should error")
	}
}

func TestReadSampleTrimsToLine(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "f.log")
	if err := os.WriteFile(p, []byte("aaaa\nbbbb\ncccc\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	sample, _, err := ReadSample(p, 7) // cuts inside the second line
	if err != nil {
		t.Fatal(err)
	}
	if string(sample) != "aaaa\n" {
		t.Fatalf("sample = %q, want first complete line only", sample)
	}
	whole, size, err := ReadSample(p, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if string(whole) != "aaaa\nbbbb\ncccc\n" {
		t.Fatalf("whole-file sample = %q", whole)
	}
	if size != int64(len("aaaa\nbbbb\ncccc\n")) {
		t.Fatalf("reported size = %d", size)
	}

	// A first line longer than the limit yields an empty sample (the
	// file classifies unstructured) instead of a truncated-line format.
	long := filepath.Join(dir, "long.log")
	if err := os.WriteFile(long, []byte(strings.Repeat("x", 64)+"\nshort\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, _, err := ReadSample(long, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 0 {
		t.Fatalf("oversized first line produced sample %q", s)
	}
}
