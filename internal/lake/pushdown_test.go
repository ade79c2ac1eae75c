package lake

import (
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"datamaran/internal/follow"
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
