package lake

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"datamaran/internal/core"
	"datamaran/internal/pipeline"
	"datamaran/internal/template"
)

// The store's write side at the scale of the repo benchmark's 8 MiB lake
// (bench/: ≈90 files, ≈230 k rows): compaction of a freshly crawled
// table, and the resume of one grown file.

const benchCols = 10

// benchRow draws one ten-column access-log row: a monotone timestamp,
// low-cardinality strings, integers, a float.
func benchRow(rng *rand.Rand, ts *int64) []string {
	*ts += 1 + rng.Int63n(3)
	return []string{
		fmt.Sprint(*ts),
		fmt.Sprintf("host%02d", rng.Intn(16)),
		[]string{"GET", "PUT", "POST", "DELETE"}[rng.Intn(4)],
		fmt.Sprintf("/api/v%d/item/%d", 1+rng.Intn(3), rng.Intn(10000)),
		fmt.Sprint([]int{200, 201, 204, 404, 500}[rng.Intn(5)]),
		fmt.Sprint(1 + rng.Intn(900)),
		fmt.Sprint(100 + rng.Intn(50000)),
		[]string{"east", "west"}[rng.Intn(2)],
		fmt.Sprintf("%d.%02d", rng.Intn(100), rng.Intn(100)),
		fmt.Sprintf("req-%06x", rng.Intn(1<<24)),
	}
}

// writeBenchTable lays out one table of files per-path segment files of
// rowsPerFile rows each and returns the bytes they hold.
func writeBenchTable(tb testing.TB, dir string, files, rowsPerFile int) int64 {
	tb.Helper()
	rng, ts := rand.New(rand.NewSource(1)), int64(1_700_000_000)
	tbl := manTable{Fingerprint: "bench0bench0bench", Columns: columnNames(benchCols)}
	var total int64
	for i := 0; i < files; i++ {
		rows := make([][]string, rowsPerFile)
		for r := range rows {
			rows[r] = benchRow(rng, &ts)
		}
		seg := writeSynthSpan(tb, dir, synthSpan{path: fmt.Sprintf("web/requests-%03d.log", i), rows: rows, provisional: 1}, 0, benchCols)
		st, err := os.Stat(filepath.Join(dir, seg.File))
		if err != nil {
			tb.Fatal(err)
		}
		total += st.Size()
		tbl.Segments = append(tbl.Segments, seg)
	}
	if err := saveManifest(dir, &manifest{Tables: []manTable{tbl}}); err != nil {
		tb.Fatal(err)
	}
	return total
}

// costOf measures op the way a benchmark's -benchmem does: after one
// warm-up call, the heap objects and bytes a call allocates, averaged over
// runs calls. setup, if not nil, runs before each call and is not counted.
func costOf(runs int, setup, op func()) (allocs, bytes uint64) {
	var before, after runtime.MemStats
	for i := 0; i <= runs; i++ {
		if setup != nil {
			setup()
		}
		runtime.ReadMemStats(&before)
		op()
		runtime.ReadMemStats(&after)
		if i > 0 {
			allocs += after.Mallocs - before.Mallocs
			bytes += after.TotalAlloc - before.TotalAlloc
		}
	}
	return allocs / uint64(runs), bytes / uint64(runs)
}

// compactSizes are the two tables compaction is measured on: files
// per-path files of three blocks each.
var compactSizes = []int{30, 90}

// compactFixture writes a table of files per-path files and returns its
// bytes and a func that opens a store over a fresh copy of it, as hard
// links: compaction consumes its inputs. Each copy removes the one before.
func compactFixture(tb testing.TB, files int) (int64, func() *SegmentStore) {
	src, copies := tb.TempDir(), tb.TempDir()
	total := writeBenchTable(tb, src, files, 2*segBlockRows+segBlockRows/2)
	entries, err := os.ReadDir(src)
	if err != nil {
		tb.Fatal(err)
	}
	dir := ""
	return total, func() *SegmentStore {
		if dir != "" {
			if err := os.RemoveAll(dir); err != nil {
				tb.Fatal(err)
			}
		}
		if dir, err = os.MkdirTemp(copies, ""); err != nil {
			tb.Fatal(err)
		}
		for _, e := range entries {
			if err := os.Link(filepath.Join(src, e.Name()), filepath.Join(dir, e.Name())); err != nil {
				tb.Fatal(err)
			}
		}
		s, err := OpenSegmentStore(dir)
		if err != nil {
			tb.Fatal(err)
		}
		return s
	}
}

// compactAll folds the fixture's one table into one shared file.
func compactAll(tb testing.TB, s *SegmentStore) {
	if n, err := s.Compact(DefaultCompactFiles); n != 1 || err != nil {
		tb.Fatalf("Compact = (%d, %v), want the one table rewritten", n, err)
	}
}

// TestStoreCompactAllocs holds compaction at two table sizes to one
// ceiling of the form 150 + 60 per file + 2 per block. Compaction
// relocates encoded blocks — headers walked, bytes copied, zone maps
// carried over from the source footers — so it allocates per input file
// (descriptor, reader, decoded footer, copy buffer, the manifest's span)
// and per block only the footer entry it carries over. Replaying the rows
// instead — a string per column per block, a row slab per block, the
// distinct sets — is about four times either ceiling.
func TestStoreCompactAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, files := range compactSizes {
		_, fresh := compactFixture(t, files)
		var s *SegmentStore
		allocs, _ := costOf(5, func() { s = fresh() }, func() { compactAll(t, s) })
		ceiling := uint64(150 + 60*files + 2*3*files)
		if allocs > ceiling {
			t.Errorf("compacting %d files: %d allocations, ceiling %d", files, allocs, ceiling)
		}
	}
}

// BenchmarkStoreCompact folds a table of per-path files into one shared
// file, at the two sizes TestStoreCompactAllocs pins.
func BenchmarkStoreCompact(b *testing.B) {
	for _, files := range compactSizes {
		b.Run(fmt.Sprintf("files=%d/blocks=%d", files, 3*files), func(b *testing.B) {
			total, fresh := compactFixture(b, files)
			b.SetBytes(total)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := fresh()
				b.StartTimer()
				compactAll(b, s)
			}
		})
	}
}

// BenchmarkStoreAppendResume is the resume of one grown file: a 25 k-row
// segment with a provisional tail extended by a fifth. The kept rows are
// 24 whole blocks, decoded once for kinds and distinct counts and
// written back as they are, and one partial block that is re-encoded
// with the new rows.
func BenchmarkStoreAppendResume(b *testing.B) {
	fields := make([]*template.Node, 0, 2*benchCols)
	for c := 0; c < benchCols; c++ {
		sep := "|"
		if c == benchCols-1 {
			sep = "|\n"
		}
		fields = append(fields, template.Field(), template.Lit(sep))
	}
	templates := []*template.Node{template.Struct(fields...).Normalize()}
	const fp, rel = "bench0bench0bench", "web/requests-000.log"
	const baseRows, growRows = 25000, 5000
	rng, ts := rand.New(rand.NewSource(1)), int64(1_700_000_000)
	extract := func(rows int) []core.RecordOut {
		var text strings.Builder
		for r := 0; r < rows; r++ {
			text.WriteString(strings.Join(benchRow(rng, &ts), "|"))
			text.WriteString("|\n")
		}
		res, err := pipeline.Run(strings.NewReader(text.String()), pipeline.Config{Templates: templates, Workers: 1})
		if err != nil || len(res.Records) != rows {
			b.Fatalf("extracted %d of %d rows: %v", len(res.Records), rows, err)
		}
		return res.Records
	}
	s, err := OpenSegmentStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	txn := s.Begin()
	if err := txn.Rewrite(rel, fp, templates, extract(baseRows), 1); err != nil {
		b.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		b.Fatal(err)
	}
	st, err := os.Stat(filepath.Join(s.Dir(), segFileName(rel, 0, 0)))
	if err != nil {
		b.Fatal(err)
	}
	// The resume re-emits the provisional row, then the growth.
	grown := extract(1 + growRows)
	b.SetBytes(st.Size())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txn := s.Begin()
		w, err := txn.writePath(rel, fp, templates, true)
		if err == nil {
			err = w.addRecordOuts(grown)
		}
		if err == nil {
			err = w.commit(provisionalByType(grown, len(templates), 1))
		}
		if err != nil {
			b.Fatal(err)
		}
		txn.Abort()
	}
}
