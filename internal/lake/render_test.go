package lake

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"datamaran/internal/datagen"
	"datamaran/internal/template"
)

// The store's render property (ROADMAP 5(2)): a row is lossless. For a
// template without nested arrays, a file's rows of one record type,
// each filled back into the type's template — every array cell split on
// its array's separator — are that type's records' bytes, in order. It
// reads the store through a scan and the file through an extraction
// outside the crawl, so it holds whatever writes the segments to the
// bytes the records came from, not to another writer.

// nestedArrays reports whether an array sits inside another array's body.
func nestedArrays(n *template.Node, inArray bool) bool {
	if n.Kind == template.KArray && inArray {
		return true
	}
	for _, c := range n.Children {
		if nestedArrays(c, inArray || n.Kind == template.KArray) {
			return true
		}
	}
	return false
}

// renderRow fills one denormalized row back into tpl, which has no
// nested arrays: a field takes its column's cell; an array's cells are
// split on its separator, each piece being one repetition's value, and
// the body is written once per repetition, separated by Sep and closed
// by Term. An array whose body has no field, or whose columns disagree
// on the repetition count, cannot be rendered.
func renderRow(tpl *template.Node, row []string) (string, error) {
	var b strings.Builder
	col := 0
	// rep holds the values of the repetition being written, next the
	// first one not yet written.
	var rep []string
	next := 0
	var walk func(n *template.Node) error
	walk = func(n *template.Node) error {
		switch n.Kind {
		case template.KField:
			if rep != nil {
				b.WriteString(rep[next])
				next++
				return nil
			}
			b.WriteString(row[col])
			col++
		case template.KLiteral:
			b.WriteString(n.Lit)
		case template.KStruct:
			for _, c := range n.Children {
				if err := walk(c); err != nil {
					return err
				}
			}
		case template.KArray:
			k := n.NumFields()
			if k == 0 {
				return fmt.Errorf("array without a field: its repetitions are not in the row")
			}
			parts := make([][]string, k)
			for j := range parts {
				parts[j] = strings.Split(row[col+j], string(n.Sep))
				if len(parts[j]) != len(parts[0]) {
					return fmt.Errorf("array columns split into %d and %d repetitions", len(parts[0]), len(parts[j]))
				}
			}
			col += k
			for r := range parts[0] {
				rep, next = make([]string, k), 0
				for j := range rep {
					rep[j] = parts[j][r]
				}
				for _, c := range n.Children {
					if err := walk(c); err != nil {
						return err
					}
				}
				rep = nil
				if r < len(parts[0])-1 {
					b.WriteByte(n.Sep)
				} else {
					b.WriteByte(n.Term)
				}
			}
		}
		return nil
	}
	if err := walk(tpl); err != nil {
		return "", err
	}
	return b.String(), nil
}

// recordTexts returns, per record type, the bytes of each record of the
// file in order, from an extraction outside the crawl. A record of type
// t is matched on the residue of the types before it, so its bytes are
// the lines of [StartLine, EndLine) no earlier type's record took.
func recordTexts(t *testing.T, root, rel string, e *Entry) [][]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(rel)))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	takenBy := make([]int, len(lines))
	for i := range takenBy {
		takenBy[i] = -1
	}
	texts := make([][]string, len(e.Templates))
	for _, r := range extractFile(t, root, rel, e).Records {
		var b strings.Builder
		for l := r.StartLine; l < r.EndLine; l++ {
			if takenBy[l] < 0 {
				b.Write(lines[l])
				takenBy[l] = r.TypeID
			} else if takenBy[l] > r.TypeID {
				t.Fatalf("%s: line %d taken by type %d before type %d", rel, l, takenBy[l], r.TypeID)
			}
		}
		texts[r.TypeID] = append(texts[r.TypeID], b.String())
	}
	return texts
}

// requireStoreRendersRecords holds the rows in s of every file res
// extracted to their records' bytes (the render property above); a file
// the crawl left alone — outside its filter — may have changed since its
// rows were written. It returns how many rows it rendered; files of
// formats with nested arrays are skipped.
func requireStoreRendersRecords(t *testing.T, root string, res *Result, reg *Registry, s *SegmentStore) int {
	t.Helper()
	crawled := map[string]bool{}
	for _, f := range res.Files {
		crawled[f.Path] = f.Status == StatusDiscovered || f.Status == StatusMatched
	}
	rendered := 0
	man := s.snapshot()
	for _, ti := range s.Tables() {
		e := reg.Lookup(ti.Fingerprint)
		if e == nil {
			t.Fatalf("table %s: format not in the registry", ti.Name)
		}
		tpl := e.Templates[ti.Type]
		if nestedArrays(tpl, false) {
			continue
		}
		sc, err := s.Scan(ti.Name)
		if err != nil {
			t.Fatal(err)
		}
		// The table's rows are its files' spans in path order.
		for _, seg := range man.table(ti.Fingerprint, ti.Type).Segments {
			if !crawled[seg.Path] {
				for i := 0; i < seg.Rows; i++ {
					if _, err := sc.Next(); err != nil {
						t.Fatal(err)
					}
				}
				continue
			}
			want := recordTexts(t, root, seg.Path, e)[ti.Type]
			if len(want) != seg.Rows {
				t.Fatalf("%s type %d: %d rows stored, %d records extracted", seg.Path, ti.Type, seg.Rows, len(want))
			}
			for i := 0; i < seg.Rows; i++ {
				row, err := sc.Next()
				if err != nil {
					t.Fatalf("%s type %d row %d: %v", seg.Path, ti.Type, i, err)
				}
				got, err := renderRow(tpl, row)
				if err != nil {
					t.Fatalf("%s type %d row %d %q: %v", seg.Path, ti.Type, i, row, err)
				}
				if got != want[i] {
					t.Fatalf("%s type %d row %d renders\n  %q\nthe record's bytes are\n  %q", seg.Path, ti.Type, i, got, want[i])
				}
				rendered++
			}
		}
		if _, err := sc.Next(); err != io.EOF {
			t.Fatalf("table %s: rows past its spans (%v)", ti.Name, err)
		}
		sc.Close()
	}
	return rendered
}

// TestStoreRendersRecords: the store of the fixture lake, and of a lake
// whose formats have arrays (ls output, a multi-line log) and two record
// types (netstat), built by a crawl at one worker and at eight, renders
// back into its records' bytes.
func TestStoreRendersRecords(t *testing.T) {
	arrays := t.TempDir()
	writeFile(t, arrays, "ls/a.txt", string(datagen.LsOutput(150, 3).Data))
	writeFile(t, arrays, "ls/b.txt", string(datagen.LsOutput(90, 4).Data))
	writeFile(t, arrays, "app/app.log", string(datagen.LogFile1(80, 3).Data))
	writeFile(t, arrays, "net/netstat.txt", string(datagen.NetstatOutput(120, 3).Data))
	for _, root := range []string{filepath.Join("..", "..", "testdata", "lake"), arrays} {
		for _, workers := range []int{1, 8} {
			reg := NewRegistry()
			s, err := OpenSegmentStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			res := crawlWithStoreWorkers(t, root, reg, nil, s, workers)
			if n := requireStoreRendersRecords(t, root, res, reg, s); n == 0 {
				t.Fatal("test is vacuous: no row rendered")
			}
			if root == arrays && !slices.ContainsFunc(reg.Entries(), func(e *Entry) bool {
				return slices.ContainsFunc(e.Templates, func(tpl *template.Node) bool { return strings.Contains(tpl.String(), ")*") })
			}) {
				t.Fatal("test is vacuous: no format of the array lake has an array")
			}
		}
	}
}
