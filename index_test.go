package datamaran

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"datamaran/internal/follow"
	"datamaran/internal/lake"
)

const fixtureLake = "testdata/lake"

func TestIndexDirFixtureLake(t *testing.T) {
	regPath := filepath.Join(t.TempDir(), "registry.json")
	res, err := IndexDir(fixtureLake, IndexOptions{RegistryPath: regPath})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summary
	if s.FormatsKnown != 4 || s.FormatsDiscovered != 4 {
		t.Fatalf("fixture lake formats: %+v", s)
	}
	if s.Files != 12 || s.Structured != 11 || s.Unstructured != 1 || s.Failed != 0 {
		t.Fatalf("fixture lake files: %+v", s)
	}
	if s.CacheHits != 7 {
		t.Fatalf("fixture lake cache hits: %+v", s)
	}
	// Each format discovered exactly once — the acceptance criterion.
	perFP := map[string]int{}
	for _, f := range res.Files {
		if f.Discovered {
			perFP[f.Fingerprint]++
		}
	}
	if len(perFP) != 4 {
		t.Fatalf("discoveries per format: %v", perFP)
	}
	for fp, n := range perFP {
		if n != 1 {
			t.Fatalf("format %s discovered %d times", fp, n)
		}
	}
	// The registry persisted; a second run reuses every profile.
	if _, err := os.Stat(regPath); err != nil {
		t.Fatalf("registry not written: %v", err)
	}
	res2, err := IndexDir(fixtureLake, IndexOptions{RegistryPath: regPath})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Summary.FormatsDiscovered != 0 || res2.Summary.CacheHits != 11 {
		t.Fatalf("second run should skip all discovery: %+v", res2.Summary)
	}
	for _, f := range res2.Formats {
		if f.Discovered {
			t.Fatalf("format %s marked discovered on second run", f.Fingerprint)
		}
		if f.Files != 2*filesOfFormat(res, f.Fingerprint) {
			t.Fatalf("format %s claim count %d after two runs", f.Fingerprint, f.Files)
		}
	}
}

func filesOfFormat(res *IndexResult, fp string) int {
	for _, f := range res.Formats {
		if f.Fingerprint == fp {
			return f.Files
		}
	}
	return 0
}

// indexDigest renders everything observable about an IndexDir run
// except timings.
func indexDigest(t *testing.T, res *IndexResult) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "summary %+v\n", res.Summary)
	for _, f := range res.Formats {
		fmt.Fprintf(&b, "format %s files=%d discovered=%v templates=%v\n",
			f.Fingerprint, f.Files, f.Discovered, f.Templates)
	}
	for _, f := range res.Files {
		fmt.Fprintf(&b, "file %s size=%d fp=%s disc=%v unstructured=%v err=%v\n",
			f.Path, f.Size, f.Fingerprint, f.Discovered, f.Unstructured, f.Err)
		if f.Result == nil {
			continue
		}
		for _, s := range f.Result.Structures {
			fmt.Fprintf(&b, "  structure %+v\n", s)
		}
		for _, r := range f.Result.Records {
			fmt.Fprintf(&b, "  record %+v\n", r)
		}
		fmt.Fprintf(&b, "  noise %v\n", f.Result.NoiseLines)
		for _, tb := range f.Result.TablesWith(TablesOptions{}) {
			fmt.Fprintf(&b, "  table %s cols=%v rows=%d\n", tb.Name, tb.Columns, len(tb.Rows))
			var csv strings.Builder
			if err := tb.WriteCSV(&csv); err != nil {
				t.Fatal(err)
			}
			b.WriteString(csv.String())
		}
	}
	return b.String()
}

func TestIndexDirWorkerEquivalence(t *testing.T) {
	// workers=1 and workers=8 must agree byte-for-byte on every output,
	// including the persisted registry — the single-CPU-safe form of
	// the parallelism claim.
	var want, wantReg string
	for _, workers := range []int{1, 8} {
		regPath := filepath.Join(t.TempDir(), "registry.json")
		res, err := IndexDir(fixtureLake, IndexOptions{RegistryPath: regPath, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got := indexDigest(t, res)
		raw, err := os.ReadFile(regPath)
		if err != nil {
			t.Fatal(err)
		}
		if workers == 1 {
			want, wantReg = got, string(raw)
			continue
		}
		if string(raw) != wantReg {
			t.Fatalf("workers=%d registry differs from workers=1", workers)
		}
		if got != want {
			t.Fatalf("workers=%d results differ from workers=1", workers)
		}
	}
}

func TestIndexDirFormatsUsableAsProfiles(t *testing.T) {
	res, err := IndexDir(fixtureLake, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Formats {
		p := f.Profile()
		if p.Fingerprint() != f.Fingerprint {
			t.Fatalf("profile fingerprint %s != format %s", p.Fingerprint(), f.Fingerprint)
		}
	}
	// Applying a format's profile to one of its member files reproduces
	// the indexer's result for that file.
	var member IndexedFile
	for _, f := range res.Files {
		if !f.Discovered && !f.Unstructured && f.Err == nil {
			member = f
			break
		}
	}
	if member.Path == "" {
		t.Fatal("no cached member file in fixture lake")
	}
	data, err := os.ReadFile(filepath.Join(fixtureLake, member.Path))
	if err != nil {
		t.Fatal(err)
	}
	var prof *Profile
	for _, f := range res.Formats {
		if f.Fingerprint == member.Fingerprint {
			prof = f.Profile()
		}
	}
	direct, err := ExtractWithProfile(data, prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct.Records) != len(member.Result.Records) {
		t.Fatalf("direct profile apply: %d records, indexer got %d",
			len(direct.Records), len(member.Result.Records))
	}
}

// TestIndexDirTotalsWithoutCheckpoints: a crawl with no checkpoint file
// is the checkpointed crawl from an empty store, so every structured file
// takes the full path as a new one and its whole-file totals are its
// result's own counts.
func TestIndexDirTotalsWithoutCheckpoints(t *testing.T) {
	res, err := IndexDir(fixtureLake, IndexOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	structured := 0
	for _, f := range res.Files {
		if f.Err != nil || f.Unstructured {
			continue
		}
		structured++
		if f.Result == nil {
			t.Fatalf("%s: structured file without a result", f.Path)
		}
		if f.Resume != "new" || f.TotalRecords != len(f.Result.Records) || f.TotalNoise != len(f.Result.NoiseLines) {
			t.Fatalf("%s: resume %q, totals %d records / %d noise, result has %d / %d",
				f.Path, f.Resume, f.TotalRecords, f.TotalNoise, len(f.Result.Records), len(f.Result.NoiseLines))
		}
	}
	if structured != res.Summary.Structured || structured == 0 {
		t.Fatalf("%d structured files checked, summary %+v", structured, res.Summary)
	}
}

func TestIndexDirMissingDir(t *testing.T) {
	if _, err := IndexDir(filepath.Join(t.TempDir(), "absent"), IndexOptions{}); err == nil {
		t.Fatal("missing directory should error")
	}
}

// storeDump renders every table of the store at path, rows in scan
// order.
func storeDump(t *testing.T, path string) string {
	t.Helper()
	store, err := lake.OpenSegmentStore(path)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, ti := range store.Tables() {
		fmt.Fprintf(&b, "table %s rows=%d\n", ti.Name, ti.Rows)
		sc, err := store.Scan(ti.Name)
		if err != nil {
			t.Fatal(err)
		}
		for {
			row, err := sc.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "  %q\n", row)
		}
		sc.Close()
	}
	return b.String()
}

// TestIndexDirPersistsBeforeCompacting: compaction is an optimisation
// that runs after the store transaction has committed, so its failure
// must not keep the crawl's checkpoints off the disk — a next crawl
// resumed from the older ones would append rows the store already
// holds. The crawl still reports the error.
func TestIndexDirPersistsBeforeCompacting(t *testing.T) {
	root, state := t.TempDir(), t.TempDir()
	paths := []string{"metrics-1.log", "metrics-2.log", "metrics-3.log"}
	for _, name := range paths {
		raw, err := os.ReadFile(filepath.Join(fixtureLake, "metrics", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	grow := func(name, line string) {
		t.Helper()
		f, err := os.OpenFile(filepath.Join(root, name), os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(line); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	opts := IndexOptions{
		RegistryPath:   filepath.Join(state, "registry.json"),
		CheckpointPath: filepath.Join(state, "checkpoints.json"),
		StorePath:      filepath.Join(state, "store"),
		Workers:        2,
	}
	crawl := func() (*IndexResult, error) { return IndexDir(root, opts) }
	offsets := func() map[string]int64 {
		t.Helper()
		cps, err := follow.LoadStore(opts.CheckpointPath)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]int64{}
		for _, p := range paths {
			out[p] = cps.Get(p).Offset
		}
		return out
	}

	// Three files fold into one shared file; growing the first then moves
	// it into a file of its own, and two files need no compaction.
	if _, err := crawl(); err != nil {
		t.Fatal(err)
	}
	grow(paths[0], "metric|cpu1|10.00|db01|\nmetric|cpu2|20.00|db01|\n")
	if res, err := crawl(); err != nil || res.Summary.Resumed != 1 {
		t.Fatalf("second crawl: %+v, %v", res, err)
	}
	segs, err := filepath.Glob(filepath.Join(opts.StorePath, "*.r*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one per-path segment after the second crawl, have %v (%v)", segs, err)
	}
	// Damage that file where only a header walk looks: its first block's
	// row count becomes the end-of-blocks mark. The next crawl does not
	// touch the path, so nothing but compaction reads it.
	pristine, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	damaged := append([]byte(nil), pristine...)
	damaged[len("dmseg2\n")] = 0
	if err := os.WriteFile(segs[0], damaged, 0o644); err != nil {
		t.Fatal(err)
	}

	// Growing the other two spreads the table over three files: the crawl
	// commits, then compacts, and the compaction fails.
	before := offsets()
	grow(paths[1], "metric|cpu3|30.00|web02|\nmetric|cpu4|40.00|web02|\n")
	grow(paths[2], "metric|cpu5|50.00|db01|\nmetric|cpu6|60.00|db01|\n")
	if _, err := crawl(); err == nil {
		t.Fatal("crawl over a damaged segment reported no compaction error")
	}
	after := offsets()
	for _, p := range paths[1:] {
		if after[p] <= before[p] {
			t.Fatalf("%s: checkpoint offset %d on disk after the failed compaction, %d before — the store committed the new rows but the checkpoint does not say so", p, after[p], before[p])
		}
	}

	// Repaired, the next crawl has nothing to extract and compacts; the
	// store holds each row once, as a one-shot crawl would have it.
	if err := os.WriteFile(segs[0], pristine, 0o644); err != nil {
		t.Fatal(err)
	}
	if res, err := crawl(); err != nil || res.Summary.Resumed != 0 || res.Summary.Unchanged != len(paths) {
		t.Fatalf("crawl after the repair: %+v, %v", res, err)
	}
	fresh := t.TempDir()
	if _, err := IndexDir(root, IndexOptions{StorePath: filepath.Join(fresh, "store"), Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if got, want := storeDump(t, opts.StorePath), storeDump(t, filepath.Join(fresh, "store")); got != want {
		t.Fatalf("store after the failed compaction differs from a one-shot crawl:\n%s\n--- vs ---\n%s", got, want)
	}
}
