package lake

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"datamaran/internal/core"
	"datamaran/internal/follow"
	"datamaran/internal/lake/laketest"
	"datamaran/internal/pipeline"
	"datamaran/internal/relational"
	"datamaran/internal/semtype"
)

// storeRows renders every table of the store — schema line plus each
// row — into one canonical string.
func storeRows(t *testing.T, s *SegmentStore) string {
	t.Helper()
	var b strings.Builder
	for _, ti := range s.Tables() {
		fmt.Fprintf(&b, "table %s cols=%v rows=%d segs=%d\n", ti.Name, ti.Columns, ti.Rows, ti.Segments)
		sc, err := s.Scan(ti.Name)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for {
			row, err := sc.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "  %q\n", row)
			n++
		}
		sc.Close()
		if n != ti.Rows {
			t.Fatalf("table %s: scanned %d rows, manifest says %d", ti.Name, n, ti.Rows)
		}
	}
	return b.String()
}

// extractFile extracts the file rel under root from byte 0 with the
// format e, outside any crawl: the oracle for what a crawl reports and
// stores about the file.
func extractFile(t *testing.T, root, rel string, e *Entry) *core.Result {
	t.Helper()
	f, err := os.Open(filepath.Join(root, filepath.FromSlash(rel)))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	res, err := pipeline.Run(f, pipeline.Config{Templates: e.Templates})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// requireStoreMatchesExtraction holds a crawl's record store and counts
// to extractFile: every table holds, in path order, the denormalized rows
// of each of its format's files, and each structured file's whole-file
// counts are the extraction's. Every format a structured file has has
// one table per record type.
func requireStoreMatchesExtraction(t *testing.T, root string, res *Result, reg *Registry, s *SegmentStore) {
	t.Helper()
	want := map[string][][]string{}
	for _, f := range res.Files {
		if f.Status != StatusDiscovered && f.Status != StatusMatched {
			continue
		}
		e := reg.Lookup(f.Fingerprint)
		ex := extractFile(t, root, f.Path, e)
		if f.Inc.TotalRecords != len(ex.Records) || f.Inc.TotalNoise != len(ex.NoiseLines) {
			t.Fatalf("%s: crawl counts %d records / %d noise, extraction %d / %d",
				f.Path, f.Inc.TotalRecords, f.Inc.TotalNoise, len(ex.Records), len(ex.NoiseLines))
		}
		for typeID, st := range e.Templates {
			name := tableName(f.Fingerprint, typeID)
			want[name] = append(want[name], relational.BuildDenormalized(st, ex.Records, typeID, "").Rows...)
		}
	}
	tables := s.Tables()
	if len(tables) != len(want) {
		t.Fatalf("store holds %d tables, the extractions %d", len(tables), len(want))
	}
	for _, ti := range tables {
		sc, err := s.Scan(ti.Name)
		if err != nil {
			t.Fatal(err)
		}
		rows := want[ti.Name]
		for i := 0; ; i++ {
			row, err := sc.Next()
			if err == io.EOF {
				if i != len(rows) {
					t.Fatalf("table %s: %d rows stored, %d extracted", ti.Name, i, len(rows))
				}
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if i >= len(rows) || !slices.Equal(row, rows[i]) {
				t.Fatalf("table %s row %d: stored %q, extracted %q", ti.Name, i, row, rows[min(i, len(rows)-1)])
			}
		}
		sc.Close()
	}
}

// crawlWithStore runs one crawl with a store transaction and commits
// it.
func crawlWithStore(t *testing.T, root string, reg *Registry, cps *follow.Store, s *SegmentStore) *Result {
	t.Helper()
	return crawlWithStoreWorkers(t, root, reg, cps, s, 2)
}

func crawlWithStoreWorkers(t *testing.T, root string, reg *Registry, cps *follow.Store, s *SegmentStore, workers int) *Result {
	t.Helper()
	txn := s.Begin()
	res, err := Index(root, reg, Config{Workers: workers, Checkpoints: cps, Segments: txn})
	if err != nil {
		txn.Abort()
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSegmentStoreRoundTrip(t *testing.T) {
	root := buildLake(t)
	reg := NewRegistry()
	dir := t.TempDir()
	s, err := OpenSegmentStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	res := crawlWithStore(t, root, reg, follow.NewStore(), s)

	tables := s.Tables()
	if len(tables) == 0 {
		t.Fatal("no tables after crawl")
	}
	// Every structured file contributes a segment; rows equal an
	// extraction of the file outside the crawl.
	requireStoreMatchesExtraction(t, root, res, reg, s)
	for _, ti := range tables {
		if len(ti.Columns) == 0 {
			t.Fatalf("table %s has no columns", ti.Name)
		}
		if len(ti.Kinds) != len(ti.Columns) {
			t.Fatalf("table %s: %d kinds for %d columns", ti.Name, len(ti.Kinds), len(ti.Columns))
		}
	}

	// A fresh handle over the same directory sees identical bytes.
	dump := storeRows(t, s)
	s2, err := OpenSegmentStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if dump2 := storeRows(t, s2); dump2 != dump {
		t.Fatalf("reopened store differs:\n%s\n--- vs ---\n%s", dump2, dump)
	}

	// The metrics format (metric|cpuN|X.YY|) must classify its numeric
	// column as numeric.
	numeric := false
	for _, ti := range tables {
		for _, k := range ti.Kinds {
			if k.Numeric() {
				numeric = true
			}
		}
	}
	if !numeric {
		t.Fatalf("no numeric column classified across %v", tables)
	}
}

// spanStats renders what the manifest records per span beyond its
// location: the statistics an incremental write must re-derive exactly.
func spanStats(s *SegmentStore) string {
	var b strings.Builder
	for _, tbl := range s.snapshot().Tables {
		for _, seg := range tbl.Segments {
			fmt.Fprintf(&b, "%s %s rows=%d provisional=%d kinds=%v distincts=%v\n",
				tableName(tbl.Fingerprint, tbl.Type), seg.Path, seg.Rows, seg.Provisional, seg.Kinds, seg.Distincts)
		}
	}
	return b.String()
}

// compactedBytes compacts every table to one file and returns the
// files' bytes by table name — segment bytes up to the filenames, which
// carry the revision history.
func compactedBytes(t *testing.T, s *SegmentStore) map[string][]byte {
	t.Helper()
	if _, err := s.Compact(1); err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, tbl := range s.snapshot().Tables {
		name := tableName(tbl.Fingerprint, tbl.Type)
		for _, seg := range tbl.Segments {
			if seg.File != tbl.Segments[0].File {
				t.Fatalf("table %s spans several files after Compact(1)", name)
			}
		}
		raw, err := os.ReadFile(filepath.Join(s.Dir(), tbl.Segments[0].File))
		if err != nil {
			t.Fatal(err)
		}
		out[name] = raw
	}
	return out
}

// requireStoreMatchesScratch holds an incrementally built store to a
// one-shot crawl of the same tree at every level: rendered rows, the
// per-span statistics of the manifest, and — once both are compacted —
// the segment bytes themselves.
func requireStoreMatchesScratch(t *testing.T, root string, s *SegmentStore) {
	t.Helper()
	scratch, err := OpenSegmentStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	crawlWithStore(t, root, NewRegistry(), follow.NewStore(), scratch)
	if got, want := storeRows(t, s), storeRows(t, scratch); got != want {
		t.Fatalf("incremental store differs from scratch:\n%s\n--- vs ---\n%s", got, want)
	}
	if got, want := spanStats(s), spanStats(scratch); got != want {
		t.Fatalf("incremental span statistics differ from scratch:\n%s\n--- vs ---\n%s", got, want)
	}
	got, want := compactedBytes(t, s), compactedBytes(t, scratch)
	if len(got) != len(want) {
		t.Fatalf("%d tables, scratch has %d", len(got), len(want))
	}
	for name := range want {
		if !bytes.Equal(got[name], want[name]) {
			t.Fatalf("table %s: compacted segment bytes differ from scratch (%d vs %d bytes)", name, len(got[name]), len(want[name]))
		}
	}
}

func TestSegmentStoreIncrementalMatchesScratch(t *testing.T) {
	root := buildLake(t)

	// Grow the store incrementally: crawl, append to one file, crawl
	// again (resume path), delete another file, crawl again (prune).
	reg := NewRegistry()
	cps := follow.NewStore()
	s, err := OpenSegmentStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	crawlWithStore(t, root, reg, cps, s)
	appendTo(t, root, "a/jobs-1.log", "JOB <123>\n  queue= q1;\n  state= DONE;\n")
	res := crawlWithStore(t, root, reg, cps, s)
	if res.Summary.Resumed != 1 {
		t.Fatalf("append run: %+v", res.Summary)
	}
	if err := os.Remove(filepath.Join(root, "b", "req-2.log")); err != nil {
		t.Fatal(err)
	}
	crawlWithStore(t, root, reg, cps, s)

	// A from-scratch crawl of the same tree must yield an identical
	// store.
	requireStoreMatchesScratch(t, root, s)
}

// TestAppendAcrossBlocksMatchesScratch grows files whose kept rows span
// several blocks, so one Append meets every case of the replay: whole
// kept blocks (passed through as the bytes and zone maps they arrived
// with), the partial block the provisional tail is cut from (buffered
// again), and the new rows that complete it — once out of a per-path
// file and, after a compaction, out of a span of the shared file. The
// result must be the store a one-shot crawl builds, at any worker count.
func TestAppendAcrossBlocksMatchesScratch(t *testing.T) {
	verbs := []string{"GET", "PUT", "POST"}
	codes := []int{200, 404, 500}
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			root := buildLake(t)
			writeFile(t, root, "b/req-big.log", laketest.RequestsLog(41, 2*segBlockRows+452, verbs, 10000, codes))
			writeFile(t, root, "c/metrics-big.log", laketest.MetricsLog(42, 3*segBlockRows))
			reg, cps := NewRegistry(), follow.NewStore()
			s, err := OpenSegmentStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			crawlWithStoreWorkers(t, root, reg, cps, s, workers)
			for _, tbl := range s.snapshot().Tables {
				for _, seg := range tbl.Segments {
					if strings.Contains(seg.Path, "-big") && (seg.Rows <= 2*segBlockRows || seg.Provisional == 0) {
						t.Fatalf("%s: %d rows, %d provisional; the case needs whole kept blocks and a provisional tail", seg.Path, seg.Rows, seg.Provisional)
					}
				}
			}
			// First growth: out of the per-path files.
			appendTo(t, root, "b/req-big.log", laketest.RequestsLog(43, 700, verbs, 10000, codes))
			appendTo(t, root, "c/metrics-big.log", laketest.MetricsLog(44, 5))
			if res := crawlWithStoreWorkers(t, root, reg, cps, s, workers); res.Summary.Resumed != 2 {
				t.Fatalf("first growth: %+v", res.Summary)
			}
			// Second growth: out of spans of the compacted files, at row
			// offsets above zero.
			if _, err := s.Compact(1); err != nil {
				t.Fatal(err)
			}
			appendTo(t, root, "b/req-big.log", laketest.RequestsLog(45, 30, verbs, 10000, codes))
			appendTo(t, root, "c/metrics-big.log", laketest.MetricsLog(46, 1500))
			if res := crawlWithStoreWorkers(t, root, reg, cps, s, workers); res.Summary.Resumed != 2 {
				t.Fatalf("second growth: %+v", res.Summary)
			}
			requireStoreMatchesScratch(t, root, s)
		})
	}
}

func TestSegmentStoreStoreEnabledAfterCheckpoints(t *testing.T) {
	// A lake checkpointed before the store existed: the next crawl must
	// take the full path once so every file's rows land in the store.
	root := buildLake(t)
	reg := NewRegistry()
	cps := follow.NewStore()
	if _, err := Index(root, reg, Config{Workers: 2, Checkpoints: cps}); err != nil {
		t.Fatal(err)
	}
	s, err := OpenSegmentStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res := crawlWithStore(t, root, reg, cps, s)
	// Unstructured files have no rows, so their checkpointed skip is
	// still sound; every structured file must take the full path.
	for _, f := range res.Files {
		if f.Fingerprint != "" && f.Inc != nil && f.Inc.Action == follow.ActionUnchanged {
			t.Fatalf("structured %s skipped despite empty store: %+v", f.Path, res.Summary)
		}
	}

	scratch, err := OpenSegmentStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	crawlWithStore(t, root, NewRegistry(), follow.NewStore(), scratch)
	if got, want := storeRows(t, s), storeRows(t, scratch); got != want {
		t.Fatalf("migrated store differs from scratch:\n%s\n--- vs ---\n%s", got, want)
	}
}

func TestSegmentStoreAbortLeavesStoreUntouched(t *testing.T) {
	root := buildLake(t)
	reg := NewRegistry()
	s, err := OpenSegmentStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	crawlWithStore(t, root, reg, follow.NewStore(), s)
	before := storeRows(t, s)

	// A second crawl whose transaction aborts must leave both the
	// directory contents and the open handle's view unchanged.
	txn := s.Begin()
	if _, err := Index(root, reg, Config{Workers: 2, Segments: txn}); err != nil {
		t.Fatal(err)
	}
	txn.Abort()
	if got := storeRows(t, s); got != before {
		t.Fatalf("abort changed the store:\n%s\n--- vs ---\n%s", got, before)
	}
	entries, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".stage-") {
			t.Fatalf("stage file %s survived abort", e.Name())
		}
	}
	reopened, err := OpenSegmentStore(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if got := storeRows(t, reopened); got != before {
		t.Fatal("abort changed the on-disk store")
	}
}

func TestSegmentStoreResolve(t *testing.T) {
	root := buildLake(t)
	s, err := OpenSegmentStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	crawlWithStore(t, root, NewRegistry(), follow.NewStore(), s)
	tables := s.Tables()
	for _, ti := range tables {
		got, err := s.Resolve(ti.Name)
		if err != nil {
			t.Fatal(err)
		}
		if got.Name != ti.Name {
			t.Fatalf("Resolve(%s) = %s", ti.Name, got.Name)
		}
		// A short unique prefix of the fingerprint also resolves.
		prefix := ti.Fingerprint[:6]
		unique := true
		for _, other := range tables {
			if other.Name != ti.Name && other.Type == ti.Type && strings.HasPrefix(other.Fingerprint, prefix) {
				unique = false
			}
		}
		if unique && ti.Type == 0 {
			got, err := s.Resolve(prefix)
			if err != nil {
				t.Fatalf("Resolve(%s): %v", prefix, err)
			}
			if got.Name != ti.Name {
				t.Fatalf("Resolve(%s) = %s, want %s", prefix, got.Name, ti.Name)
			}
		}
	}
	if _, err := s.Resolve("nope"); err == nil {
		t.Fatal("Resolve of unknown table succeeded")
	}

	// A type suffix is a whole number: nothing may follow it.
	dir := t.TempDir()
	const fp = "abcdef0123456789"
	man := &manifest{}
	for typeID := 0; typeID < 2; typeID++ {
		man.Tables = append(man.Tables, manTable{Fingerprint: fp, Type: typeID, Columns: columnNames(1),
			Segments: []manSeg{{Path: "a.log", File: segFileName("a.log", typeID, 0), Rows: 1}}})
	}
	if err := saveManifest(dir, man); err != nil {
		t.Fatal(err)
	}
	if s, err = OpenSegmentStore(dir); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{"abcd": fp, "abcd_1": fp + "_1", fp + "_1": fp + "_1"} {
		if got, err := s.Resolve(name); err != nil || got.Name != want {
			t.Fatalf("Resolve(%q) = %q, %v, want %q", name, got.Name, err, want)
		}
	}
	for _, name := range []string{"abcd_1x", "abcd_+1", "abcd_1 2", "abcd_-1", "abcd_2"} {
		if got, err := s.Resolve(name); err == nil {
			t.Fatalf("Resolve(%q) = %q, want no table", name, got.Name)
		}
	}
}

// TestStoreManifestNamesOnlyItsOwnFiles: a manifest that names a
// segment file by anything but a plain base name is refused when the
// store opens, naming the file — a commit that drops its path would
// otherwise unlink whatever the name reaches, outside the store directory
// included.
func TestStoreManifestNamesOnlyItsOwnFiles(t *testing.T) {
	for _, file := range []string{"../victim.txt", "sub/../../victim.txt", "sub/a.seg", "", ".", "..", "manifest.json"} {
		parent := t.TempDir()
		victim := filepath.Join(parent, "victim.txt")
		writeFile(t, parent, "victim.txt", "not the store's\n")
		dir := filepath.Join(parent, "store")
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		man := &manifest{Tables: []manTable{{Fingerprint: "abcdef0123456789", Columns: columnNames(1),
			Segments: []manSeg{{Path: "a.log", File: file, Rows: 1}}}}}
		if err := saveManifest(dir, man); err != nil {
			t.Fatal(err)
		}
		s, err := OpenSegmentStore(dir)
		if err == nil {
			txn := s.Begin()
			txn.Drop("a.log")
			err = txn.Commit()
			t.Errorf("file %q: the store opened (and its commit returned %v)", file, err)
		} else if !strings.Contains(err.Error(), strconv.Quote(file)) {
			t.Errorf("file %q: %v, want an error naming the file", file, err)
		}
		if _, err := os.Stat(victim); err != nil {
			t.Fatalf("file %q: the file outside the store is gone: %v", file, err)
		}
	}
}

func TestSegmentStoreUnstructuredFileDropped(t *testing.T) {
	// A file that loses its structure (rewritten as prose) loses its
	// rows on the next crawl.
	root := buildLake(t)
	reg := NewRegistry()
	cps := follow.NewStore()
	s, err := OpenSegmentStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	crawlWithStore(t, root, reg, cps, s)
	hasSeg := func(rel string) bool {
		for _, ti := range s.Tables() {
			sc, err := s.Scan(ti.Name)
			if err != nil {
				t.Fatal(err)
			}
			sc.Close()
		}
		man := s.snapshot()
		for _, tbl := range man.Tables {
			for _, seg := range tbl.Segments {
				if seg.Path == rel {
					return true
				}
			}
		}
		return false
	}
	if !hasSeg("c/metrics-1.log") {
		t.Fatal("metrics-1 has no segment after first crawl")
	}
	if err := os.WriteFile(filepath.Join(root, "c", "metrics-1.log"), []byte(noiseProse), 0o644); err != nil {
		t.Fatal(err)
	}
	crawlWithStore(t, root, reg, cps, s)
	if hasSeg("c/metrics-1.log") {
		t.Fatal("unstructured rewrite kept its rows")
	}
}

func TestMergeKindsAndClassify(t *testing.T) {
	if k := semtype.ClassifyValues([]string{"1", "2", "300"}); k != semtype.KindInt {
		t.Fatalf("ints classified as %s", k)
	}
	if k := semtype.ClassifyValues([]string{"1.5", "2", "3"}); k != semtype.KindFloat {
		t.Fatalf("mixed numbers classified as %s", k)
	}
	if k := semtype.ClassifyValues([]string{"a", "2"}); k != semtype.KindString {
		t.Fatalf("mixed text classified as %s", k)
	}
	if k := semtype.MergeKinds(semtype.KindInt, semtype.KindFloat); k != semtype.KindFloat {
		t.Fatalf("int+float merged to %s", k)
	}
	if k := semtype.MergeKinds(semtype.KindInt, semtype.KindString); k != semtype.KindString {
		t.Fatalf("int+string merged to %s", k)
	}
}

// TestZoneNumberIsParseFloat holds the zone maps' integer fast path to
// the parser it stands in for, bit for bit (the footer stores the bits):
// on the boundary cases of what the fast path accepts — signs, leading
// zeros, the 15- and 16-digit edge, negative zero — on what it must
// leave alone, and on random digit strings of every length around the
// edge.
func TestZoneNumberIsParseFloat(t *testing.T) {
	cases := []string{
		"", "0", "-0", "+0", "-00", "000", "7", "+7", "-7", "007", "-007", "42", "1700000000",
		"999999999999999", "-999999999999999", "+999999999999999", "1000000000000000",
		"9007199254740993", "99999999999999999999", "-", "+", "+-1", "--1", "1-", "1+1",
		"1.5", "-1.5", "1e3", "1E3", ".5", "5.", "0x10", "1_000", "１２", " 1", "1 ", "1\n",
		"NaN", "nan", "-nan", "Inf", "-inf", "+Inf", "infinity", "1e400", "-1e400", "4.9e-324",
		"12a", "a12", "٣", "1\x00",
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 5000; i++ {
		var b strings.Builder
		if s := rng.Intn(4); s < 2 {
			b.WriteByte("+-"[s])
		}
		for n := rng.Intn(19); n > 0; n-- {
			b.WriteByte("0000123456789.e"[rng.Intn(15)])
		}
		cases = append(cases, b.String())
	}
	for _, v := range cases {
		want, err := strconv.ParseFloat(v, 64)
		wantOK := err == nil && !math.IsNaN(want)
		got, ok := zoneNumber(v)
		if ok != wantOK || (ok && math.Float64bits(got) != math.Float64bits(want)) {
			t.Fatalf("zoneNumber(%q) = %v, %v; ParseFloat gives %v, %v", v, got, ok, want, err)
		}
	}
}

// TestSegWriterReuse puts three segments of different widths through one
// writer, as a crawl worker does: each must come out as the bytes, kinds
// and counts a writer of its own produces, and between segments the writer
// must hold none of the values it was fed — zone bounds, distinct values,
// views of its last block — which a pooled writer would otherwise carry.
func TestSegWriterReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	type segment struct {
		ncols int
		rows  [][]string
	}
	var segs []segment
	for _, ncols := range []int{5, 2, 7} {
		rows := make([][]string, 2*segBlockRows+37)
		for r := range rows {
			rows[r] = make([]string, ncols)
			for c := range rows[r] {
				rows[r][c] = fmt.Sprintf("%d-%d", c, rng.Intn(50+700*c))
			}
		}
		segs = append(segs, segment{ncols, rows})
	}
	write := func(sw *segWriter, seg segment) (string, string) {
		var buf bytes.Buffer
		sw.reset(&buf, seg.ncols)
		for _, row := range seg.rows {
			if err := addRow(sw, row); err != nil {
				t.Fatal(err)
			}
		}
		kinds, rows, dist, err := sw.finish()
		if err != nil {
			t.Fatal(err)
		}
		return buf.String(), fmt.Sprint(kinds, rows, dist)
	}
	fresh := func() *segWriter { return segWriterPool.New().(*segWriter) }
	shared := fresh()
	for i, seg := range segs {
		gotBytes, gotStats := write(shared, seg)
		wantBytes, wantStats := write(fresh(), seg)
		if gotBytes != wantBytes || gotStats != wantStats {
			t.Fatalf("segment %d (%d columns): a reused writer wrote %d bytes, %s; a fresh one %d bytes, %s",
				i, seg.ncols, len(gotBytes), gotStats, len(wantBytes), wantStats)
		}
		shared.forget()
		for c, col := range shared.views[:cap(shared.views)] {
			for _, v := range col[:cap(col)] {
				if v != "" {
					t.Fatalf("after segment %d the writer still holds cell %q of column %d", i, v, c)
				}
			}
		}
		for _, z := range shared.zones[:cap(shared.zones)] {
			if z.lexMin != "" || z.lexMax != "" {
				t.Fatalf("after segment %d the writer still holds zone bounds %q..%q", i, z.lexMin, z.lexMax)
			}
		}
		for _, fb := range shared.blocks[:cap(shared.blocks)] {
			if fb.cols != nil {
				t.Fatalf("after segment %d the writer still holds a block's zone map", i)
			}
		}
		for c, m := range shared.distinct[:cap(shared.distinct)] {
			if len(m) != 0 {
				t.Fatalf("after segment %d the writer still holds %d distinct values of column %d", i, len(m), c)
			}
		}
	}
}
