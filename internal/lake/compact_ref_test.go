package lake

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"datamaran/internal/follow"
)

// compactReplayReference is compaction as it was before blocks were
// relocated: every span of every target table is decoded cell by cell
// through the row view, transposed back into a block buffer and encoded
// again, with zone maps, kinds and distinct sets recomputed from the
// values. It is the oracle Compact is held to — do not optimise it.
func compactReplayReference(s *SegmentStore, maxFiles int) (int, error) {
	if maxFiles < 1 {
		maxFiles = 1
	}
	base := s.snapshot()
	var targets []int
	for i := range base.Tables {
		files := map[string]bool{}
		for _, seg := range base.Tables[i].Segments {
			files[seg.File] = true
		}
		if len(files) > maxFiles {
			targets = append(targets, i)
		}
	}
	if len(targets) == 0 {
		return 0, nil
	}
	next := base.clone()
	type stagedFile struct{ tmp, final string }
	var staged []stagedFile
	cleanup := func() {
		for _, sf := range staged {
			os.Remove(sf.tmp)
		}
	}
	for _, ti := range targets {
		tbl := &next.Tables[ti]
		gen := 0
		for _, seg := range tbl.Segments {
			if seg.Rev >= gen {
				gen = seg.Rev + 1
			}
		}
		final := compactFileName(tbl.Fingerprint, tbl.Type, gen)
		tmp, err := os.CreateTemp(s.dir, ".stage-*")
		if err != nil {
			cleanup()
			return 0, err
		}
		err = func() error {
			if _, err := tmp.Write(segMagicV2); err != nil {
				return err
			}
			sw := newSegWriter(tmp, len(tbl.Columns))
			rowOff := 0
			for si := range tbl.Segments {
				seg := &tbl.Segments[si]
				in, err := os.Open(filepath.Join(s.dir, seg.File))
				if err != nil {
					return err
				}
				err = copyRowsReference(sw, in, len(tbl.Columns), seg.RowOff, seg.Rows, seg.Rows)
				in.Close()
				if err != nil {
					return err
				}
				if err := sw.flushBlock(); err != nil {
					return err
				}
				seg.File, seg.Rev, seg.RowOff = final, gen, rowOff
				rowOff += seg.Rows
			}
			_, rows, _, err := sw.finish()
			if err != nil {
				return err
			}
			if rows != rowOff {
				return fmt.Errorf("lake: compaction wrote %d rows, manifest names %d", rows, rowOff)
			}
			st, err := tmp.Stat()
			if err != nil {
				return err
			}
			for si := range tbl.Segments {
				tbl.Segments[si].Size = st.Size()
			}
			return nil
		}()
		if cerr := tmp.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = os.Chmod(tmp.Name(), 0o644)
		}
		if err != nil {
			os.Remove(tmp.Name())
			cleanup()
			return 0, err
		}
		staged = append(staged, stagedFile{tmp: tmp.Name(), final: final})
	}
	next.normalize()
	s.mu.Lock()
	if s.man != base {
		s.mu.Unlock()
		cleanup()
		return 0, nil
	}
	for i, sf := range staged {
		if err := os.Rename(sf.tmp, filepath.Join(s.dir, sf.final)); err != nil {
			s.mu.Unlock()
			for _, rest := range staged[i:] {
				os.Remove(rest.tmp)
			}
			return 0, err
		}
	}
	err := saveManifest(s.dir, next)
	if err == nil {
		s.man = next
	}
	s.mu.Unlock()
	if err != nil {
		return 0, err
	}
	live := referencedFiles(next)
	for name := range referencedFiles(base) {
		if !live[name] {
			os.Remove(filepath.Join(s.dir, name))
		}
	}
	return len(targets), nil
}

// copyRowsReference is the row-at-a-time replay the reference
// compaction (and, before batches, Append) ran on: every row through the
// row view into add.
func copyRowsReference(sw *segWriter, in *os.File, ncols, skip, rows, limit int) error {
	plan, err := newScanPlan(ncols, ScanOptions{})
	if err != nil {
		return err
	}
	span := manSeg{File: in.Name(), RowOff: skip, Rows: rows}
	sc := newSegmentScan(make([]string, ncols), []manSeg{span}, map[string]*os.File{span.File: in}, plan)
	for copied := 0; copied < limit; copied++ {
		row, err := sc.Next()
		if err == io.EOF {
			return fmt.Errorf("segment %s: %d rows, expected at least %d", span.File, copied, limit)
		}
		if err != nil {
			return err
		}
		if err := addRow(sw, row); err != nil {
			return err
		}
	}
	return nil
}

// cutFooter cuts the bytes of a v2 segment into its block region (magic
// up to and including the end-of-blocks sentinel) and its decoded
// footer.
func cutFooter(raw []byte) ([]byte, *segFooter, error) {
	if len(raw) < 8 {
		return nil, nil, fmt.Errorf("%d bytes", len(raw))
	}
	flen := binary.LittleEndian.Uint64(raw[len(raw)-8:])
	if flen > uint64(len(raw)-8) {
		return nil, nil, fmt.Errorf("footer length %d in %d bytes", flen, len(raw))
	}
	body := raw[:len(raw)-8-int(flen)]
	foot, err := decodeFooter(raw[len(body) : len(raw)-8])
	return body, foot, err
}

// withFooter is cutFooter's inverse: the block region closed with foot.
func withFooter(body []byte, foot *segFooter) []byte {
	blob := appendFooter(nil, foot.blocks, foot.distincts)
	out := append(append([]byte(nil), body...), blob...)
	return binary.LittleEndian.AppendUint64(out, uint64(len(blob)))
}

// splitSegment is cutFooter of the segment file at path.
func splitSegment(t *testing.T, path string) ([]byte, *segFooter) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body, foot, err := cutFooter(raw)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return body, foot
}

// unsizedManifest holds every span of the store to the size of its file
// and renders the manifest with the sizes left out.
func unsizedManifest(t *testing.T, s *SegmentStore) []byte {
	t.Helper()
	man := s.snapshot().clone()
	for i := range man.Tables {
		for j := range man.Tables[i].Segments {
			seg := &man.Tables[i].Segments[j]
			if st, err := os.Stat(filepath.Join(s.Dir(), seg.File)); err != nil || st.Size() != seg.Size {
				t.Fatalf("span %s of %s records size %d; its file: %v, %v", seg.Path, seg.File, seg.Size, st, err)
			}
			seg.Size = 0
		}
	}
	raw, err := json.MarshalIndent(man.Tables, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// scanOutcome is everything one scan lets a caller observe.
type scanOutcome struct {
	rows                  [][]string
	decoded, pruned, seen int
}

func runScan(t *testing.T, s *SegmentStore, table string, opts ScanOptions) scanOutcome {
	t.Helper()
	sc := mustScan(t, s, table, opts)
	var out scanOutcome
	out.rows = drainScan(t, sc)
	out.decoded, out.pruned, out.seen = sc.BlockStats()
	return out
}

// requireSpliceMatchesReplay compacts the store in dir with Compact and
// a copy of it with the replaying reference, and holds the two results
// to each other: the manifests byte for byte (both name their files by
// the same rule) but for each span's size, which on each side must be its
// file's (the two footers' distincts lines may differ, below, and the
// sizes with them), every compacted file's block region byte for byte and
// its footer's zone maps entry for entry, the footer's distincts line to
// its definition on each side, and every scan — rows and block
// statistics — under the pushdown suite's random projections and
// predicates. It returns the store Compact produced.
func requireSpliceMatchesReplay(t *testing.T, dir string) *SegmentStore {
	t.Helper()
	refDir := t.TempDir()
	if err := os.CopyFS(refDir, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}
	s, err := OpenSegmentStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := OpenSegmentStore(refDir)
	if err != nil {
		t.Fatal(err)
	}
	before := storeRows(t, s)
	spans := map[string][]manSeg{}
	for _, tbl := range s.snapshot().Tables {
		spans[tableName(tbl.Fingerprint, tbl.Type)] = tbl.Segments
	}
	n, err := s.Compact(1)
	if err != nil {
		t.Fatal(err)
	}
	nref, err := compactReplayReference(ref, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n != nref || n == 0 {
		t.Fatalf("Compact rewrote %d tables, the reference %d; want the same, and some", n, nref)
	}
	if got, want := unsizedManifest(t, s), unsizedManifest(t, ref); !bytes.Equal(got, want) {
		t.Fatalf("manifests differ:\n%s\n--- reference ---\n%s", got, want)
	}
	if after := storeRows(t, s); after != before {
		t.Fatal("Compact changed the store's rows")
	}
	if after := storeRows(t, ref); after != before {
		t.Fatal("the reference changed the store's rows")
	}
	requireOnlyLiveFiles(t, s)

	rng := rand.New(rand.NewSource(11))
	for _, tbl := range s.snapshot().Tables {
		name := tableName(tbl.Fingerprint, tbl.Type)
		files := map[string]bool{}
		for _, seg := range tbl.Segments {
			files[seg.File] = true
		}
		if len(files) != 1 {
			t.Fatalf("table %s spans %d files after Compact(1)", name, len(files))
		}
		file := tbl.Segments[0].File
		body, foot := splitSegment(t, filepath.Join(dir, file))
		refBody, refFoot := splitSegment(t, filepath.Join(refDir, file))
		if !bytes.Equal(body, refBody) {
			t.Fatalf("table %s: block region differs from the replayed one (%d vs %d bytes)", name, len(body), len(refBody))
		}
		if !reflect.DeepEqual(foot.blocks, refFoot.blocks) {
			t.Fatalf("table %s: footer blocks differ from the replayed ones", name)
		}
		// The distincts line of a rewritten table: per-column max over the
		// spans' manifest counts for the splice, the capped count over all
		// values for the replay — which can only be larger. (A table that
		// was one file already is left alone by both.)
		before := map[string]bool{}
		wantDist := make([]int, len(tbl.Columns))
		for _, seg := range spans[name] {
			before[seg.File] = true
			for c, d := range seg.Distincts {
				wantDist[c] = max(wantDist[c], d)
			}
		}
		if len(before) > 1 {
			if !reflect.DeepEqual(foot.distincts, wantDist) {
				t.Fatalf("table %s: footer distincts %v, want the spans' max %v", name, foot.distincts, wantDist)
			}
			for c := range foot.distincts {
				if foot.distincts[c] > refFoot.distincts[c] {
					t.Fatalf("table %s column %d: footer distincts %d above the replay's count %d", name, c, foot.distincts[c], refFoot.distincts[c])
				}
			}
		}

		full := runScan(t, s, name, ScanOptions{})
		for trial := 0; trial < 30; trial++ {
			opts := randomScanOptions(rng, full.rows, len(tbl.Columns))
			a, b := runScan(t, s, name, opts), runScan(t, ref, name, opts)
			if !equalRows(a.rows, b.rows) || !equalRows(a.rows, refScan(full.rows, len(tbl.Columns), opts)) {
				t.Fatalf("table %s opts %+v: %d rows from the spliced file, %d from the replayed one", name, opts, len(a.rows), len(b.rows))
			}
			if a.decoded != b.decoded || a.pruned != b.pruned || a.seen != b.seen {
				t.Fatalf("table %s opts %+v: block stats (decoded, pruned, rows) %d/%d/%d, replayed %d/%d/%d",
					name, opts, a.decoded, a.pruned, a.seen, b.decoded, b.pruned, b.seen)
			}
		}
	}
	return s
}

// synthSpan describes one source file's contribution to a hand-built
// table.
type synthSpan struct {
	path        string
	rows        [][]string
	provisional int
}

// synthRows draws n rows of five columns that exercise every zone-map
// and kind case: a monotone integer, a low-cardinality string, a float,
// a column that is numeric except for the odd cell, and a mostly empty
// one.
func synthRows(rng *rand.Rand, n int) [][]string {
	rows := make([][]string, n)
	base := rng.Intn(1 << 20)
	for i := range rows {
		mixed := fmt.Sprint(rng.Intn(500))
		if rng.Intn(400) == 0 {
			mixed = "n/a"
		}
		sparse := ""
		if rng.Intn(10) == 0 {
			sparse = fmt.Sprintf("note-%d", rng.Intn(9000))
		}
		rows[i] = []string{
			fmt.Sprint(base + i),
			[]string{"east", "west", "north"}[rng.Intn(3)],
			fmt.Sprintf("%d.%02d", rng.Intn(1000), rng.Intn(100)),
			mixed,
			sparse,
		}
	}
	return rows
}

const synthCols = 5

// writeSynthSpan writes one span's rows, ncols wide, as a dedicated
// segment file of the given revision and returns its manifest entry.
func writeSynthSpan(t testing.TB, dir string, sp synthSpan, rev, ncols int) manSeg {
	t.Helper()
	name := segFileName(sp.path, 0, rev)
	seg := manSeg{Path: sp.path, File: name, Rev: rev, Rows: len(sp.rows), Provisional: sp.provisional}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(segMagicV2); err != nil {
		t.Fatal(err)
	}
	sw := newSegWriter(f, ncols)
	for _, row := range sp.rows {
		if err := addRow(sw, row); err != nil {
			t.Fatal(err)
		}
	}
	if seg.Kinds, _, seg.Distincts, err = sw.finish(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return seg
}

// writeSynthStore lays out one table, one dedicated file per span, and
// its manifest.
func writeSynthStore(t *testing.T, dir string, spans []synthSpan) {
	t.Helper()
	tbl := manTable{Fingerprint: "5ca1ab1e5ca1ab1e", Columns: columnNames(synthCols)}
	for _, sp := range spans {
		tbl.Segments = append(tbl.Segments, writeSynthSpan(t, dir, sp, 0, synthCols))
	}
	if err := saveManifest(dir, &manifest{Tables: []manTable{tbl}}); err != nil {
		t.Fatal(err)
	}
}

// TestCompactSpliceMatchesReplay holds the block-relocating Compact to
// the replaying reference on every span shape compaction meets.
func TestCompactSpliceMatchesReplay(t *testing.T) {
	t.Run("fixture lake, then a recrawl", func(t *testing.T) {
		root := buildLake(t)
		reg, cps := NewRegistry(), follow.NewStore()
		dir := t.TempDir()
		s, err := OpenSegmentStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		crawlWithStore(t, root, reg, cps, s)
		s = requireSpliceMatchesReplay(t, dir)
		// What every recrawl leaves: grown paths in fresh files of their
		// own beside the spans still sitting in the shared file.
		appendTo(t, root, "a/jobs-2.log", "JOB <5>\n  queue= q9;\n  state= DONE;\n")
		appendTo(t, root, "b/req-1.log", "GET /api/v1/item/7 200\n")
		appendTo(t, root, "b/req-3.log", "PUT /api/v2/item/8 404\n")
		if res := crawlWithStore(t, root, reg, cps, s); res.Summary.Resumed != 3 {
			t.Fatalf("recrawl: %+v", res.Summary)
		}
		requireSpliceMatchesReplay(t, dir)
	})

	t.Run("random tables, two generations", func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		dir := t.TempDir()
		spans := []synthSpan{
			{path: "a.log", rows: synthRows(rng, 2500), provisional: 7},
			{path: "b.log"}, // zero rows, between two spans
			{path: "c.log", rows: synthRows(rng, 2*segBlockRows)},
			{path: "d.log", rows: synthRows(rng, 1), provisional: 1},
			{path: "e.log", rows: synthRows(rng, segBlockRows+1)},
			{path: "f.log", rows: synthRows(rng, 700)},
			{path: "g.log"}, // zero rows, last
		}
		writeSynthStore(t, dir, spans)
		s := requireSpliceMatchesReplay(t, dir)

		// Second generation: c and f were rewritten into files of their
		// own; a, b, d, e and g are read back out of the shared file, at
		// row offsets above zero, around them.
		man := s.snapshot().clone()
		tbl := &man.Tables[0]
		rev := tbl.Segments[0].Rev + 1
		for i := range tbl.Segments {
			switch tbl.Segments[i].Path {
			case "c.log":
				tbl.Segments[i] = writeSynthSpan(t, dir, synthSpan{path: "c.log", rows: synthRows(rng, 3000), provisional: 2}, rev, synthCols)
			case "f.log":
				tbl.Segments[i] = writeSynthSpan(t, dir, synthSpan{path: "f.log", rows: synthRows(rng, 900)}, rev, synthCols)
			}
		}
		if err := saveManifest(dir, man); err != nil {
			t.Fatal(err)
		}
		requireSpliceMatchesReplay(t, dir)
	})
}
