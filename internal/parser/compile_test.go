package parser_test

import (
	"slices"
	"testing"

	"datamaran/internal/parser"
	"datamaran/internal/parser/parsertest"
	"datamaran/internal/template"
	"datamaran/internal/textio"
)

// unnormalizedCases are templates as the constructors leave them, before
// Normalize: literals split across nested structs, an empty literal, a
// literal right after an array body that ends in one, an empty template.
// The compiler merges literals; these pin that it merges only what is
// adjacent in the match.
func unnormalizedCases() []struct {
	name string
	tm   *template.Node
	data string
} {
	return []struct {
		name string
		tm   *template.Node
		data string
	}{
		{"split-literals", template.Struct(lit("["), template.Struct(lit("a"), lit("")), fld(),
			template.Struct(lit("]"), lit(" ")), fld(), lit("\n")),
			"[ax] y\n[a] \n[b] z\n[ax]\n"},
		{"literal-after-body-literal", template.Struct(
			template.Array([]*template.Node{fld(), lit(":")}, ',', ';'), lit("!"), lit("\n")),
			"a:,b:;!\nx:;!\nx:;\n:;!"},
		{"empty", template.Struct(), "a\n\n"},
	}
}

// TestCompiledMatchesTreeWalker holds the compiled program to the tree
// walkers it replaced, at every offset of every case: MatchEnds'
// end/ok/truncated and AppendRecord's occurrences. The scan is held to the
// tree-building oracle on the unnormalized templates too.
func TestCompiledMatchesTreeWalker(t *testing.T) {
	cases := append(flatScanCases(), unnormalizedCases()...)
	for _, c := range cases {
		m, tree := parser.NewMatcher(c.tm), parser.NewTreeMatcher(c.tm)
		data := []byte(c.data)
		for pos := 0; pos <= len(data); pos++ {
			e1, ok1, t1 := m.MatchEnds(data, pos)
			e2, ok2, t2 := tree.MatchEnds(data, pos)
			if e1 != e2 || ok1 != ok2 || t1 != t2 {
				t.Fatalf("%s pos %d: MatchEnds = (%d,%v,%v), tree walk (%d,%v,%v)", c.name, pos, e1, ok1, t1, e2, ok2, t2)
			}
			f1, a1, ok1 := m.AppendRecord(data, pos, nil, nil)
			f2, a2, ok2 := tree.AppendRecord(data, pos, nil, nil)
			if ok1 != ok2 || !slices.Equal(f1, f2) || !slices.Equal(a1, a2) {
				t.Fatalf("%s pos %d: AppendRecord = %v %v %v, tree walk %v %v %v", c.name, pos, f1, a1, ok1, f2, a2, ok2)
			}
		}
		lines := textio.NewLines(data)
		parsertest.RequireScanEqual(t, c.name, parsertest.New(c.tm).Scan(lines), m.Scan(lines))
	}
}

// TestArraysNumberedByOccurrence pins ArrayOcc.Arr to the array's
// occurrence in the template, not to its node: a template holding one
// array node twice has two arrays, 0 and 1, each with its own column.
func TestArraysNumberedByOccurrence(t *testing.T) {
	a := template.Array([]*template.Node{fld()}, ',', ';')
	tm := template.Struct(a, lit(" "), a, lit("\n"))
	data := []byte("x,y; p,q,r;\n")
	wantFields := []parser.FieldOcc{
		{Col: 0, Rep: 0, Start: 0, End: 1}, {Col: 0, Rep: 1, Start: 2, End: 3},
		{Col: 1, Rep: 0, Start: 5, End: 6}, {Col: 1, Rep: 1, Start: 7, End: 8}, {Col: 1, Rep: 2, Start: 9, End: 10},
	}
	wantArrays := []parser.ArrayOcc{{Arr: 0, Reps: 2}, {Arr: 1, Reps: 3}}

	m := parser.NewMatcher(tm)
	if m.NumArrays() != 2 || m.Columns() != 2 || m.Len() != tm.Len() {
		t.Fatalf("NumArrays %d, Columns %d, Len %d; want 2 arrays, 2 columns and length %d", m.NumArrays(), m.Columns(), m.Len(), tm.Len())
	}
	occs, arrays, ok := m.AppendRecord(data, 0, nil, nil)
	if !ok || !slices.Equal(occs, wantFields) || !slices.Equal(arrays, wantArrays) {
		t.Fatalf("AppendRecord = %v %v %v, want %v %v", occs, arrays, ok, wantFields, wantArrays)
	}
	o := parsertest.New(tm)
	v, _, ok := o.Match(data, 0)
	if !ok || !slices.Equal(o.Flatten(v), wantFields) || !slices.Equal(o.Arrays(v), wantArrays) {
		t.Fatalf("oracle = %v %v %v, want %v %v", o.Flatten(v), o.Arrays(v), ok, wantFields, wantArrays)
	}
	lines := textio.NewLines(data)
	parsertest.RequireScanEqual(t, "shared array node", o.Scan(lines), m.Scan(lines))
}

// TestUnfoldedTreeConcurrent: a matcher Unfolded from another builds its
// tree on first use, and a Matcher is safe for concurrent use, so
// goroutines asking for the tree and the key at once all get the one
// tree, built once, the unfold of the parent's.
func TestUnfoldedTreeConcurrent(t *testing.T) {
	st := template.Struct(lit("["), template.Array([]*template.Node{fld(), lit("=")}, ',', ']'), lit("\n"))
	want := st.Unfold(0, 3, false)
	v := parser.NewMatcher(st).Unfolded(parser.Unfold{Arr: 0, K: 3})
	trees := make([]*template.Node, 8)
	keys := make([]string, len(trees))
	done := make(chan int)
	for g := range trees {
		go func() {
			trees[g], keys[g] = v.Template(), v.Key()
			done <- g
		}()
	}
	for range trees {
		<-done
	}
	for g := range trees {
		if trees[g] != trees[0] || !trees[g].Equal(want) || keys[g] != want.Key() {
			t.Fatalf("goroutine %d: tree %v (%p) key %q, want %v (%p) built once", g, trees[g], trees[g], keys[g], want, trees[0])
		}
	}
}
