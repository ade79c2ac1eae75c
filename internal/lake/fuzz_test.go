package lake

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// fuzzScan opens a three-column scan over one segment file whose
// manifest entry promises rows rows; given more than any input holds,
// the scan runs until the bytes do.
func fuzzScan(t *testing.T, path string, opts ScanOptions, rows int) *SegmentScan {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := newScanPlan(3, opts)
	if err != nil {
		t.Fatal(err)
	}
	span := manSeg{File: path, Rows: rows}
	return newSegmentScan(columnNames(3), []manSeg{span}, map[string]*os.File{path: f}, plan)
}

// spliceFile relocates the first rows rows of the v2 segment at src into
// a fresh segment file at dst, the way compaction moves a span: header
// walk, byte copy, zone maps from the source footer.
func spliceFile(src, dst string, ncols, rows int) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	sr, err := openSpliceReader(src, in, ncols, 0)
	if err != nil {
		return err
	}
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	defer out.Close()
	if _, err := out.Write(segMagicV2); err != nil {
		return err
	}
	sw := newSegWriter(out, ncols)
	if err := spliceSpan(sw, sr, &manSeg{Rows: rows}); err != nil {
		return err
	}
	return sw.writeFooter(make([]int, ncols))
}

// drainFuzzScan reads a scan to its end and returns the rows, the
// terminal error and how many rows' worth of block headers it consumed.
func drainFuzzScan(sc *SegmentScan) (rows [][]string, consumed int, err error) {
	defer sc.Close()
	for {
		var row []string
		if row, err = sc.Next(); err != nil {
			_, _, consumed = sc.BlockStats()
			return rows, consumed, err
		}
		rows = append(rows, row)
	}
}

// FuzzSegmentScan feeds the segment reader arbitrary bytes after the
// segment magic, with and without a pushed predicate (which also sends
// the file through the footer decoder). Whatever the bytes, a scan ends
// in rows then an error or EOF — never a panic, and never having
// allocated more than a constant factor over the input: a length prefix
// is believed only as far as the file could honour it. The row view and
// the batch view must agree on everything that decodes. The input is
// then relocated the way compaction relocates a span, under the same
// two bars: the splice either refuses the file or produces one whose
// scan yields the rows of the source span and ends the way it ends.
// Under the retired v1 magic (isV2 false) the same bytes are refused
// before any row, by both views, as a bad magic.
func FuzzSegmentScan(f *testing.F) {
	// Two blocks of short cells: a small seed keeps the fuzzer's
	// minimizer, which reruns every shrink of an interesting input, quick.
	rows := make([][]string, segBlockRows+40)
	for i := range rows {
		rows[i] = []string{fmt.Sprint(i % 97), fmt.Sprint(i % 13), fmt.Sprintf("h%d", i%7)}
	}
	encodeV2 := func(rows [][]string) []byte {
		var buf bytes.Buffer
		sw := newSegWriter(&buf, 3)
		for _, row := range rows {
			if err := addRow(sw, row); err != nil {
				f.Fatal(err)
			}
		}
		if _, _, _, err := sw.finish(); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	v2 := encodeV2(rows)
	// The same rows as v1 blocks — a row count, then each column's
	// length-prefixed cells, no header lengths and no footer — which the
	// reader no longer reads.
	var v1 []byte
	for _, block := range [][][]string{rows[:segBlockRows], rows[segBlockRows:]} {
		v1 = binary.AppendUvarint(v1, uint64(len(block)))
		for c := 0; c < 3; c++ {
			for _, row := range block {
				v1 = binary.AppendUvarint(v1, uint64(len(row[c])))
				v1 = append(v1, row[c]...)
			}
		}
	}
	f.Add(v2, true, true)
	f.Add(v2, true, false)
	f.Add(v1, false, true)
	// One three-row block, whole and with a footer that counts two: what
	// the splice relocates and what it must refuse.
	small := encodeV2(rows[:3])
	f.Add(small, true, false)
	body, foot, err := cutFooter(small)
	if err != nil {
		f.Fatal(err)
	}
	foot.blocks[0].rows--
	f.Add(withFooter(body, foot), true, true)
	// A header promising 2³¹-byte columns, and a v1 cell promising 2³⁰.
	f.Add([]byte{0x01, 0x80, 0x80, 0x80, 0x80, 0x08, 0x01, 0x01, 'a', 'b', 'c'}, true, false)
	f.Add([]byte{0x01, 0x80, 0x80, 0x80, 0x80, 0x04, 'a'}, false, false)

	path := filepath.Join(f.TempDir(), "fuzz.seg")
	spliced := filepath.Join(f.TempDir(), "spliced.seg")
	f.Fuzz(func(t *testing.T, body []byte, isV2, pushed bool) {
		magic := []byte("dmseg1\n")
		if isV2 {
			magic = segMagicV2
		}
		if err := os.WriteFile(path, append(append([]byte(nil), magic...), body...), 0o644); err != nil {
			t.Fatal(err)
		}
		var opts ScanOptions
		if pushed {
			opts = ScanOptions{Columns: []int{0, 2}, Preds: []ScanPred{{Col: 1, Op: ">", Lit: "5", Numeric: true}}}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)

		byRow := fuzzScan(t, path, opts, 1<<30)
		defer byRow.Close()
		var viaRows [][]string
		var rowErr error
		for {
			var row []string
			if row, rowErr = byRow.Next(); rowErr != nil {
				break
			}
			viaRows = append(viaRows, row)
		}
		byBatch := fuzzScan(t, path, opts, 1<<30)
		defer byBatch.Close()
		var viaBatches [][]string
		var batchErr error
		for {
			var b *Batch
			if b, batchErr = byBatch.NextBatch(); batchErr != nil {
				break
			}
			for i := 0; i < b.Rows; i++ {
				row := make([]string, len(b.Cols))
				for c, col := range b.Cols {
					if col != nil {
						row[c] = col[i]
					}
				}
				viaBatches = append(viaBatches, row)
			}
		}

		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(256*len(body)+8<<20); grew > limit {
			t.Fatalf("scanning %d bytes allocated %d (limit %d)", len(body), grew, limit)
		}
		if (rowErr == io.EOF) != (batchErr == io.EOF) || !equalRows(viaRows, viaBatches) {
			t.Fatalf("row view: %d rows then %v; batch view: %d rows then %v", len(viaRows), rowErr, len(viaBatches), batchErr)
		}
		if !isV2 {
			for _, err := range []error{rowErr, batchErr} {
				if len(viaRows) > 0 || err == nil || !strings.Contains(err.Error(), "bad magic") || !strings.Contains(err.Error(), path) {
					t.Fatalf("a v1 file: %d rows then %v, want no row and a bad magic naming %s", len(viaRows), err, path)
				}
			}
			return
		}

		// The span to relocate: every row whose block header an unpushed
		// scan gets through before the bytes stop making sense.
		_, spanRows, _ := drainFuzzScan(fuzzScan(t, path, ScanOptions{}, 1<<30))
		runtime.ReadMemStats(&before)
		spliceErr := spliceFile(path, spliced, 3, spanRows)
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(256*len(body)+8<<20); grew > limit {
			t.Fatalf("splicing %d bytes allocated %d (limit %d)", len(body), grew, limit)
		}
		if spliceErr != nil {
			return
		}
		want, _, wantErr := drainFuzzScan(fuzzScan(t, path, opts, spanRows))
		got, _, gotErr := drainFuzzScan(fuzzScan(t, spliced, opts, spanRows))
		if (wantErr == io.EOF) != (gotErr == io.EOF) || !equalRows(got, want) {
			t.Fatalf("source span: %d rows then %v; spliced: %d rows then %v", len(want), wantErr, len(got), gotErr)
		}
	})
}

// FuzzManifest opens a store over arbitrary manifest.json bytes, in a
// directory holding one good segment and one that is not a segment, with
// a file of its own beside the directory. Whatever the bytes,
// OpenSegmentStore refuses them or opens a store whose tables list,
// resolve and scan to rows or an error, never a panic. An accepted
// manifest saves to bytes that open again and save to the same bytes.
// Then a transaction drops every path and a compaction runs: neither —
// nor anything before them — may change what lies outside the directory.
func FuzzManifest(f *testing.F) {
	var good bytes.Buffer
	good.Write(segMagicV2)
	sw := newSegWriter(&good, 2)
	for i := 0; i < 5; i++ {
		if err := addRow(sw, []string{fmt.Sprint(i), "x"}); err != nil {
			f.Fatal(err)
		}
	}
	if _, _, _, err := sw.finish(); err != nil {
		f.Fatal(err)
	}
	sw.release()
	seg := func(path, file string, size, rows, rowOff int) string {
		return fmt.Sprintf(`{"path": %q, "file": %q, "size": %d, "rows": %d, "rowOff": %d, "kinds": ["int", "string"], "distincts": [5, 1]}`, path, file, size, rows, rowOff)
	}
	table := func(fp string, typeID int, segs ...string) string {
		return fmt.Sprintf(`{"fingerprint": %q, "type": %d, "columns": ["f0", "f1"], "segments": [%s]}`, fp, typeID, strings.Join(segs, ", "))
	}
	manifestOf := func(tables ...string) []byte {
		return []byte(fmt.Sprintf(`{"version": 1, "tables": [%s]}`, strings.Join(tables, ", ")))
	}
	f.Add(manifestOf(table("abcdef0123456789", 0, seg("a.log", "good.seg", good.Len(), 5, 0))))
	f.Add(manifestOf(
		table("abcdef0123456789", 0, seg("a.log", "good.seg", 0, 5, 0), seg("b.log", "bad.seg", 9, 1, 0)),
		table("abcdef0123456789", 1, seg("a.log", "good.seg", good.Len()+1, 3, 2)),
		table("abcd", 0, seg("c.log", "gone.seg", 100, 1, 0))))
	f.Add(manifestOf(table("abcdef0123456789", 0, seg("a.log", "../outside.txt", 16, 1, 0))))
	f.Add([]byte(`{"version": 2, "tables": []}`))
	f.Add([]byte(`{"tables": null}`))

	f.Fuzz(func(t *testing.T, raw []byte) {
		parent := t.TempDir()
		dir := filepath.Join(parent, "store")
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		const outside = "a file beside the store\n"
		for name, data := range map[string][]byte{
			filepath.Join(parent, "outside.txt"): []byte(outside),
			filepath.Join(dir, "good.seg"):       good.Bytes(),
			filepath.Join(dir, "bad.seg"):        []byte("not a segment"),
			filepath.Join(dir, "manifest.json"):  raw,
		} {
			if err := os.WriteFile(name, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		defer func() {
			entries, err := os.ReadDir(parent)
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(parent, "outside.txt"))
			if len(entries) != 2 || err != nil || string(got) != outside {
				t.Fatalf("the directory beside the store holds %d entries, and the file there reads %q, %v", len(entries), got, err)
			}
		}()

		s, err := OpenSegmentStore(dir)
		if err != nil {
			return
		}
		for _, ti := range s.Tables() {
			if _, err := s.Resolve(ti.Name); err != nil {
				continue
			}
			sc, err := s.ScanWith(ti.Name, ScanOptions{})
			if err != nil {
				continue
			}
			for err == nil {
				_, err = sc.NextBatch()
			}
			sc.Close()
		}

		// save writes st's manifest and returns the bytes written.
		save := func(st *SegmentStore) []byte {
			if err := saveManifest(dir, st.snapshot()); err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		once := save(s)
		reopened, err := OpenSegmentStore(dir)
		if err != nil {
			t.Fatalf("a saved manifest does not open again: %v\n%s", err, once)
		}
		if twice := save(reopened); !bytes.Equal(once, twice) {
			t.Fatalf("the manifest does not save byte-stable:\n%s\n--- then ---\n%s", once, twice)
		}

		_, _ = s.Compact(1)
		txn := s.Begin()
		txn.Retain(func(string) bool { return false })
		_ = txn.Commit()
	})
}

// FuzzRegistry feeds the registry loader arbitrary bytes: it never
// panics, and a registry it accepts holds only entries a crawl could
// have written — at least one template, a claim count of at least 0, a
// fingerprint its templates recompute to — and saves byte-stable: Save,
// then Load, then Save again writes the same bytes.
func FuzzRegistry(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", "lake_golden", "registry.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	const tpl = `{"kind":"struct","children":[{"kind":"field"},{"kind":"lit","text":","},{"kind":"array","sep":";","term":"\n","children":[{"kind":"field"}]}]}`
	f.Add([]byte(`{"version":1,"profiles":[{"files":3,"templates":[` + tpl + `,{"kind":"field"}]}]}`))
	f.Add([]byte(`{"version":1,"profiles":[{"fingerprint":"","files":-7,"templates":[]}]}`))
	f.Add([]byte(`{"version":1,"profiles":[{"files":1,"templates":[null]}]}`))
	f.Add([]byte(`{"version":1,"profiles":[{"files":1,"templates":[{"kind":"array","sep":",","term":"\n","children":[{"kind":"struct"}]}]}]}`))
	f.Add([]byte(`{"version":2,"profiles":[]}`))

	f.Fuzz(func(t *testing.T, raw []byte) {
		path := filepath.Join(t.TempDir(), "registry.json")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		reg, err := LoadRegistry(path)
		if err != nil {
			return
		}
		for _, e := range reg.Entries() {
			if len(e.Templates) == 0 || e.Files < 0 || e.Fingerprint != Fingerprint(e.Templates) || len(e.Matchers()) != len(e.Templates) {
				t.Fatalf("accepted entry %s: %d templates, %d matchers, %d files, templates fingerprint %s",
					e.Fingerprint, len(e.Templates), len(e.Matchers()), e.Files, Fingerprint(e.Templates))
			}
		}
		save := func(r *Registry) []byte {
			if err := r.Save(path); err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		once := save(reg)
		back, err := LoadRegistry(path)
		if err != nil {
			t.Fatalf("a saved registry does not load again: %v\n%s", err, once)
		}
		if twice := save(back); !bytes.Equal(once, twice) {
			t.Fatalf("the registry does not save byte-stable:\n%s\n--- then ---\n%s", once, twice)
		}
	})
}
