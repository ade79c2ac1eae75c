package datamaran

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
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

// indexDigest renders everything observable about an IndexDir run with
// a store except timings: the summary, the formats, each file's outcome
// and counts, and the store's rows.
func indexDigest(t *testing.T, res *IndexResult, storePath string) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "summary %+v\n", res.Summary)
	for _, f := range res.Formats {
		fmt.Fprintf(&b, "format %s files=%d discovered=%v templates=%v\n",
			f.Fingerprint, f.Files, f.Discovered, f.Templates)
	}
	for _, f := range res.Files {
		fmt.Fprintf(&b, "file %s size=%d fp=%s disc=%v unstructured=%v err=%v resume=%s records=%d noise=%d\n",
			f.Path, f.Size, f.Fingerprint, f.Discovered, f.Unstructured, f.Err, f.Resume, f.TotalRecords, f.TotalNoise)
	}
	b.WriteString(storeDump(t, storePath))
	return b.String()
}

// profileApplies extracts every structured file of a crawl of root with
// ExtractReaderWithProfile and its format's profile — the crawl's
// independent oracle. It checks each file's whole-file counts against
// the extraction and returns the denormalized rows by store table name,
// each table's files in path order.
func profileApplies(t *testing.T, root string, res *IndexResult) map[string][][]string {
	t.Helper()
	profiles := map[string]*Profile{}
	for i := range res.Formats {
		profiles[res.Formats[i].Fingerprint] = res.Formats[i].Profile()
	}
	rows := map[string][][]string{}
	for _, f := range res.Files {
		p := profiles[f.Fingerprint]
		if p == nil {
			continue
		}
		in, err := os.Open(filepath.Join(root, f.Path))
		if err != nil {
			t.Fatal(err)
		}
		ex, err := ExtractReaderWithProfile(in, p, Options{})
		in.Close()
		if err != nil {
			t.Fatal(err)
		}
		if f.TotalRecords != len(ex.Records) || f.TotalNoise != len(ex.NoiseLines) {
			t.Fatalf("%s: crawl counts %d records / %d noise, profile apply %d / %d",
				f.Path, f.TotalRecords, f.TotalNoise, len(ex.Records), len(ex.NoiseLines))
		}
		for typeID, tb := range ex.TablesWith(TablesOptions{Denormalized: true}) {
			name := f.Fingerprint
			if typeID > 0 {
				name = fmt.Sprintf("%s_%d", name, typeID)
			}
			rows[name] = append(rows[name], tb.Rows...)
		}
	}
	return rows
}

// requireStoreMatchesProfileApply holds the record store at storePath,
// written by a crawl of root, to profileApplies: the same tables, each
// with the same rows in the same order.
func requireStoreMatchesProfileApply(t *testing.T, root string, res *IndexResult, storePath string) {
	t.Helper()
	want := profileApplies(t, root, res)
	store, err := lake.OpenSegmentStore(storePath)
	if err != nil {
		t.Fatal(err)
	}
	tables := store.Tables()
	if len(tables) != len(want) {
		t.Fatalf("store holds %d tables, the profile applies %d", len(tables), len(want))
	}
	for _, ti := range tables {
		sc, err := store.Scan(ti.Name)
		if err != nil {
			t.Fatal(err)
		}
		var got [][]string
		for {
			row, err := sc.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, slices.Clone(row))
		}
		sc.Close()
		if !slices.EqualFunc(got, want[ti.Name], slices.Equal) {
			t.Fatalf("table %s: the store's %d rows differ from the profile applies' %d", ti.Name, len(got), len(want[ti.Name]))
		}
	}
}

func TestIndexDirWorkerEquivalence(t *testing.T) {
	// workers=1 and workers=8 must agree byte-for-byte on every output,
	// including the persisted registry and the record store — the
	// single-CPU-safe form of the parallelism claim.
	var want, wantReg string
	for _, workers := range []int{1, 8} {
		dir := t.TempDir()
		regPath, storePath := filepath.Join(dir, "registry.json"), filepath.Join(dir, "store")
		res, err := IndexDir(fixtureLake, IndexOptions{RegistryPath: regPath, StorePath: storePath, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got := indexDigest(t, res, storePath)
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
	storePath := filepath.Join(t.TempDir(), "store")
	res, err := IndexDir(fixtureLake, IndexOptions{StorePath: storePath})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Formats {
		p := f.Profile()
		if p.Fingerprint() != f.Fingerprint {
			t.Fatalf("profile fingerprint %s != format %s", p.Fingerprint(), f.Fingerprint)
		}
	}
	// Applying each format's profile to its member files reproduces the
	// crawl's counts and the rows it stored.
	requireStoreMatchesProfileApply(t, fixtureLake, res, storePath)
}

// TestIndexDirTotalsWithoutCheckpoints: a crawl with no checkpoint file
// and no store is the checkpointed crawl from an empty store, so every
// structured file takes the full path as a new one, and its whole-file
// totals are those of a profile apply.
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
		if f.Resume != "new" {
			t.Fatalf("%s: resume %q", f.Path, f.Resume)
		}
	}
	if structured != res.Summary.Structured || structured == 0 {
		t.Fatalf("%d structured files checked, summary %+v", structured, res.Summary)
	}
	profileApplies(t, fixtureLake, res)
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
