package lake

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"datamaran/internal/follow"
	"datamaran/internal/semtype"
)

// refMatch is an independent reimplementation of the scan's predicate
// semantics (mirroring the executor's compareVals): equality is exact
// string match; ordering compares numerically only when the predicate
// is flagged numeric and both sides parse, lexicographically otherwise.
// Kept deliberately separate from predMatch so the property test pins
// the two against each other.
func refMatch(cell string, p ScanPred) bool {
	switch p.Op {
	case "=":
		return cell == p.Lit
	case "!=":
		return cell != p.Lit
	}
	c := 0
	lv, lerr := strconv.ParseFloat(p.Lit, 64)
	cv, cerr := strconv.ParseFloat(cell, 64)
	if p.Numeric && lerr == nil && cerr == nil {
		switch {
		case cv < lv:
			c = -1
		case cv > lv:
			c = 1
		}
	} else {
		c = strings.Compare(cell, p.Lit)
	}
	switch p.Op {
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	case ">=":
		return c >= 0
	}
	return false
}

// refScan applies opts above a full-decode reference: every predicate
// evaluated on fully materialized rows, then unprojected columns blanked
// — exactly what ScanWith must produce from inside the block decode.
func refScan(rows [][]string, width int, opts ScanOptions) [][]string {
	var out [][]string
	for _, row := range rows {
		ok := true
		for _, p := range opts.Preds {
			if !refMatch(row[p.Col], p) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		masked := make([]string, width)
		if opts.Columns == nil {
			copy(masked, row)
		} else {
			for _, c := range opts.Columns {
				masked[c] = row[c]
			}
		}
		out = append(out, masked)
	}
	return out
}

// drainScan collects every row of a scan.
func drainScan(t *testing.T, sc *SegmentScan) [][]string {
	t.Helper()
	defer sc.Close()
	var out [][]string
	for {
		row, err := sc.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, append([]string(nil), row...))
	}
}

// randomScanOptions draws a random projection and conjunctive predicate
// set, with literals mostly sampled from live cell values so selections
// hit every selectivity regime (and zone maps both prune and pass).
func randomScanOptions(rng *rand.Rand, rows [][]string, width int) ScanOptions {
	var opts ScanOptions
	if rng.Intn(3) > 0 {
		opts.Columns = []int{}
		for c := 0; c < width; c++ {
			if rng.Intn(2) == 0 {
				opts.Columns = append(opts.Columns, c)
			}
		}
	}
	ops := []string{"=", "!=", "<", "<=", ">", ">="}
	for n := rng.Intn(3); n > 0 && len(rows) > 0; n-- {
		p := ScanPred{
			Col:     rng.Intn(width),
			Op:      ops[rng.Intn(len(ops))],
			Numeric: rng.Intn(2) == 0,
		}
		switch rng.Intn(4) {
		case 0:
			p.Lit = fmt.Sprintf("%d.%02d", rng.Intn(100), rng.Intn(100))
		case 1:
			p.Lit = fmt.Sprintf("x%d", rng.Intn(50))
		default:
			p.Lit = rows[rng.Intn(len(rows))][p.Col]
		}
		opts.Preds = append(opts.Preds, p)
	}
	return opts
}

func equalRows(a, b [][]string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestScanPushdownMatchesReference: for every table of a crawled store,
// any combination of pushed projection and predicates yields exactly
// the rows a full-decode scan filtered above produces — before and
// after compaction folds the per-path segment files into shared spans.
func TestScanPushdownMatchesReference(t *testing.T) {
	root := buildLake(t)
	dir := t.TempDir()
	s, err := OpenSegmentStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	crawlWithStore(t, root, NewRegistry(), follow.NewStore(), s)

	check := func(label string) {
		t.Helper()
		rng := rand.New(rand.NewSource(7))
		for _, ti := range s.Tables() {
			full := drainScan(t, mustScan(t, s, ti.Name, ScanOptions{}))
			if len(full) != ti.Rows {
				t.Fatalf("%s/%s: full scan %d rows, manifest %d", label, ti.Name, len(full), ti.Rows)
			}
			for trial := 0; trial < 40; trial++ {
				opts := randomScanOptions(rng, full, len(ti.Columns))
				want := refScan(full, len(ti.Columns), opts)
				got := drainScan(t, mustScan(t, s, ti.Name, opts))
				if !equalRows(got, want) {
					t.Fatalf("%s/%s trial %d opts %+v: pushdown scan returned %d rows, reference %d\ngot:  %v\nwant: %v",
						label, ti.Name, trial, opts, len(got), len(want), got, want)
				}
				// The pinned-view path shares the scan machinery but
				// resolves against a snapshot; spot-check it too.
				if trial%8 == 0 {
					v := s.View()
					vsc, err := v.ScanWith(ti.Name, opts)
					if err != nil {
						t.Fatal(err)
					}
					if got := drainScan(t, vsc); !equalRows(got, want) {
						t.Fatalf("%s/%s trial %d: view scan diverges from reference", label, ti.Name, trial)
					}
				}
			}
		}
	}
	check("fresh")

	// Compact every multi-file table into one shared file and re-check:
	// the same reference rows must survive span-based scanning with the
	// rewritten zone maps.
	if _, err := s.Compact(1); err != nil {
		t.Fatal(err)
	}
	check("compacted")
}

func mustScan(t *testing.T, s *SegmentStore, name string, opts ScanOptions) *SegmentScan {
	t.Helper()
	sc, err := s.ScanWith(name, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// writeV1Segment hand-writes a pre-stats segment file: the v1 magic,
// then blocks of uvarint row count followed by each column's
// uvarint-length-prefixed cells, ending at EOF with no footer.
func writeV1Segment(t testing.TB, path string, blocks [][][]string, ncols int) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := bufio.NewWriter(f)
	if _, err := w.Write(segMagicV1); err != nil {
		t.Fatal(err)
	}
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		if _, err := w.Write(tmp[:n]); err != nil {
			t.Fatal(err)
		}
	}
	for _, rows := range blocks {
		put(uint64(len(rows)))
		for c := 0; c < ncols; c++ {
			for _, row := range rows {
				put(uint64(len(row[c])))
				if _, err := w.Write([]byte(row[c])); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestScanMixedV1V2Segments: a table spanning a hand-written v1 segment
// (no stats footer) and a v2 segment scans correctly — full, projected
// and predicated (zone maps prune only where they exist) — and
// compaction rewrites the mix into one v2 file without changing a row.
func TestScanMixedV1V2Segments(t *testing.T) {
	dir := t.TempDir()
	const fp = "feedfacecafebeef"
	const ncols = 3

	v1rows := [][][]string{
		{{"alpha", "1.50", "east"}, {"bravo", "2.25", "west"}, {"charlie", "9.75", "east"}},
		{{"delta", "0.10", "west"}, {"echo", "7.00", "east"}},
	}
	writeV1Segment(t, filepath.Join(dir, "v1.seg"), v1rows, ncols)

	v2rows := [][]string{
		{"foxtrot", "3.30", "west"},
		{"golf", "8.80", "east"},
		{"hotel", "0.05", "west"},
	}
	f, err := os.Create(filepath.Join(dir, "v2.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(segMagicV2); err != nil {
		t.Fatal(err)
	}
	sw := newSegWriter(f, ncols)
	for _, row := range v2rows {
		if err := addRow(sw, row); err != nil {
			t.Fatal(err)
		}
	}
	kinds, rows, dist, err := sw.finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	strKinds := make([]semtype.Kind, ncols)
	for i := range strKinds {
		strKinds[i] = semtype.KindString
	}
	man := &manifest{Tables: []manTable{{
		Fingerprint: fp,
		Type:        0,
		Columns:     []string{"f0", "f1", "f2"},
		Segments: []manSeg{
			{Path: "a.log", File: "v1.seg", Rows: 5, Kinds: strKinds},
			{Path: "b.log", File: "v2.seg", Rows: rows, Kinds: kinds, Distincts: dist},
		},
	}}}
	if err := saveManifest(dir, man); err != nil {
		t.Fatal(err)
	}

	s, err := OpenSegmentStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var all [][]string
	for _, b := range v1rows {
		all = append(all, b...)
	}
	all = append(all, v2rows...)

	suite := []ScanOptions{
		{},
		{Columns: []int{0, 2}},
		{Preds: []ScanPred{{Col: 1, Op: ">", Lit: "2", Numeric: true}}},
		{Columns: []int{1}, Preds: []ScanPred{{Col: 2, Op: "=", Lit: "east"}}},
		// Nothing matches: v2 blocks zone-prune, v1 blocks decode and
		// filter to empty.
		{Preds: []ScanPred{{Col: 1, Op: ">", Lit: "99", Numeric: true}}},
	}
	verify := func(label string) {
		t.Helper()
		for i, opts := range suite {
			want := refScan(all, ncols, opts)
			got := drainScan(t, mustScan(t, s, fp, opts))
			if !equalRows(got, want) {
				t.Fatalf("%s case %d (%+v):\ngot:  %v\nwant: %v", label, i, opts, got, want)
			}
		}
	}
	verify("mixed")

	// Compaction reads the v1 segment through the compat path and
	// rewrites the whole table as one shared v2 file.
	n, err := s.Compact(1)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("Compact rewrote %d tables, want 1", n)
	}
	ti, err := s.Resolve(fp)
	if err != nil {
		t.Fatal(err)
	}
	if ti.Segments != 2 || ti.Rows != len(all) {
		t.Fatalf("compacted table: %d spans %d rows, want 2 spans %d rows", ti.Segments, ti.Rows, len(all))
	}
	files := map[string]bool{}
	for _, seg := range s.snapshot().table(fp, 0).Segments {
		files[seg.File] = true
	}
	if len(files) != 1 {
		t.Fatalf("compacted table spans %d files, want 1", len(files))
	}
	verify("compacted")
}
