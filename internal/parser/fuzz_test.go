package parser_test

import (
	"bytes"
	"slices"
	"testing"

	"datamaran/internal/chars"
	"datamaran/internal/parser"
	"datamaran/internal/parser/parsertest"
	"datamaran/internal/template"
	"datamaran/internal/template/templatetest"
	"datamaran/internal/textio"
)

// FuzzMatcher holds the compiled matcher to the tree-building oracle on
// the templates discovery works with: a fuzz record reduced under a fuzz
// charset (ExtractRecordTemplate + Reduce, as FuzzReduce builds them), plus
// every full and partial unfold of each of its arrays, run over fuzz data.
// At every line start MatchEnds ≡ Oracle.MatchTrunc (end, ok, truncated) ≡
// the tree walkers, AppendRecord ≡ Flatten/Arrays, and MatchLines'
// one-pass candidate carries MatchEnds' truncated flag and, for a record,
// AppendRecord's occurrences; the one-pass ScanInto ≡ Oracle.Scan;
// Residue(keep) ≡ the scan's noise lines concatenated. For each unfold,
// DeriveScan from the fuzz template's scan applies exactly when the unfold
// keeps the stop bytes (the RT-CharSet and the newline) and its array sits
// in no array, holds none and separates with a byte other than its
// terminator, and then ≡ the unfold's ScanInto.
func FuzzMatcher(f *testing.F) {
	for _, c := range flatScanCases() {
		data := []byte(c.data)
		record := textio.NewLines(data).Line(0)
		if scan := parsertest.New(c.tm).Scan(textio.NewLines(data)); len(scan.Records) > 0 {
			record = data[scan.Records[0].Start:scan.Records[0].End]
		}
		f.Add(record, string(c.tm.RTCharSet().Bytes()), data)
	}
	f.Fuzz(func(t *testing.T, record []byte, charset string, data []byte) {
		if len(record) > 512 || len(data) > 4096 {
			t.Skip("bounded so the quadratic reduction and the oracle's trees stay fast")
		}
		toks, _ := templatetest.ExtractRecordTemplate(record, chars.NewSet(charset))
		tm := templatetest.Reduce(toks)
		requireMatcher(t, tm, data)
		lines := textio.NewLines(data)
		parent := parser.NewMatcher(tm)
		from := parent.Scan(lines)
		for _, v := range unfolds(tm) {
			requireMatcher(t, v.tm, data)
			requireDerived(t, tm, parent, from, v, lines)
		}
	})
}

// requireDerived checks that DeriveScan applies to unfold v of tm exactly
// when its argument holds, and then reproduces v's own scan.
func requireDerived(t *testing.T, tm *template.Node, parent *parser.Matcher, from *parser.ScanResult, v unfold, lines *textio.Lines) {
	t.Helper()
	m := parser.NewMatcher(v.tm)
	var got parser.ScanResult
	_, ok := m.DeriveScan(parent, v.u, lines, from, &got)
	if want := v.derivable && stops(v.tm) == stops(tm); ok != want {
		t.Fatalf("%v from %v by %+v: derived %v, want %v", v.tm, tm, v.u, ok, want)
	}
	if ok {
		parsertest.RequireScanEqual(t, v.tm.String()+" derived", parsertest.RefOf(m.Scan(lines)), &got)
	}
}

// requireMatcher checks every property FuzzMatcher states for tm on data.
func requireMatcher(t *testing.T, tm *template.Node, data []byte) {
	t.Helper()
	m, o, tree := parser.NewMatcher(tm), parsertest.New(tm), parser.NewTreeMatcher(tm)
	lines := textio.NewLines(data)
	var cands parser.Candidates
	m.MatchLines(&cands, lines, 2)
	m.Restore(&cands, lines, recordStarts(cands.Ends()))
	for i := 0; i < lines.N(); i++ {
		pos := lines.Start(i)
		end, ok, trunc := m.MatchEnds(data, pos)
		v, wantEnd, wantOK, wantTrunc := o.MatchTrunc(data, pos)
		if end != wantEnd || ok != wantOK || trunc != wantTrunc {
			t.Fatalf("%v line %d: MatchEnds = (%d,%v,%v), oracle (%d,%v,%v)", tm, i, end, ok, trunc, wantEnd, wantOK, wantTrunc)
		}
		if e, ok, tr := tree.MatchEnds(data, pos); e != end || ok != wantOK || tr != trunc {
			t.Fatalf("%v line %d: MatchEnds = (%d,%v,%v), tree walk (%d,%v,%v)", tm, i, end, wantOK, trunc, e, ok, tr)
		}
		occs, arrays, ok := m.AppendRecord(data, pos, nil, nil)
		if ok != wantOK {
			t.Fatalf("%v line %d: AppendRecord ok = %v, MatchEnds %v", tm, i, ok, wantOK)
		}
		if ok && (!slices.Equal(occs, o.Flatten(v)) || !slices.Equal(arrays, o.Arrays(v))) {
			t.Fatalf("%v line %d: AppendRecord = %v %v, oracle %v %v", tm, i, occs, arrays, o.Flatten(v), o.Arrays(v))
		}
		// The one pass: extract's truncated flag is match's, and a record's
		// kept occurrences are AppendRecord's.
		c := cands.Ends()[i]
		if c.Truncated != trunc {
			t.Fatalf("%v line %d: one-pass truncated = %v, MatchEnds %v", tm, i, c.Truncated, trunc)
		}
		if c.EndLine > 0 && (c.End != end || !slices.Equal(cands.Fields(i), occs) || !slices.Equal(cands.Arrays(i), arrays)) {
			t.Fatalf("%v line %d: one pass %+v %v %v, MatchEnds end %d, AppendRecord %v %v", tm, i, c, cands.Fields(i), cands.Arrays(i), end, occs, arrays)
		}
	}
	want := o.Scan(lines)
	parsertest.RequireScanEqual(t, tm.String(), want, m.Scan(lines))
	var wantResidue []byte
	for _, li := range want.NoiseLines {
		wantResidue = append(wantResidue, lines.Line(li)...)
	}
	residue, uncovered, ok := m.Residue(lines, true, len(data))
	if !ok || uncovered != len(wantResidue) || !bytes.Equal(residue, wantResidue) {
		t.Fatalf("%v: Residue = %q, %d, %v; want %q", tm, residue, uncovered, ok, wantResidue)
	}
}

// stops returns the bytes a field value of tm cannot hold.
func stops(tm *template.Node) chars.Set {
	s := tm.RTCharSet()
	s.Add('\n')
	return s
}

// unfold is one variant unfolds builds: the template, the unfold that
// makes it from the fuzz template, and whether DeriveScan's argument holds
// for the array it unfolds, the stop bytes aside.
type unfold struct {
	tm        *template.Node
	u         parser.Unfold
	derivable bool
}

// unfolds returns tm with one array replaced by one of its unfoldings —
// full at one to three units, partial with a one- or two-unit prefix — for
// every array, built from the template constructors the way refinement
// builds them. The variants share nodes with tm and stay unnormalized: a
// full unfold of an array whose body holds an array holds that node once
// per unit, and the unit structs put literals side by side for the
// compiler to merge.
func unfolds(tm *template.Node) []unfold {
	var out []unfold
	arrays := 0 // array occurrences met so far, in the matcher's DFS order
	var walk func(n *template.Node, inArray bool, wrap func(*template.Node) *template.Node)
	walk = func(n *template.Node, inArray bool, wrap func(*template.Node) *template.Node) {
		if n.Kind == template.KArray {
			arr := arrays
			arrays++
			body := template.Struct(n.Children...)
			derivable := !inArray && !body.HasArray() && n.Sep != n.Term
			for k := 1; k <= 3; k++ {
				out = append(out, unfold{wrap(fullUnfold(n, k)), parser.Unfold{Arr: arr, K: k}, derivable})
			}
			for p := 1; p <= 2; p++ {
				out = append(out, unfold{wrap(partialUnfold(n, p)), parser.Unfold{Arr: arr, K: p, Partial: true}, derivable})
			}
		}
		for i := range n.Children {
			walk(n.Children[i], inArray || n.Kind == template.KArray, func(r *template.Node) *template.Node {
				children := slices.Clone(n.Children)
				children[i] = r
				if n.Kind == template.KArray {
					return wrap(template.Array(children, n.Sep, n.Term))
				}
				return wrap(template.Struct(children...))
			})
		}
	}
	walk(tm, false, func(r *template.Node) *template.Node { return r })
	return out
}

// fullUnfold is U sep U … sep U term with k units U.
func fullUnfold(arr *template.Node, k int) *template.Node {
	var children []*template.Node
	for i := 0; i < k; i++ {
		if i > 0 {
			children = append(children, template.Lit(string(arr.Sep)))
		}
		children = append(children, template.Struct(arr.Children...))
	}
	return template.Struct(append(children, template.Lit(string(arr.Term)))...)
}

// partialUnfold is U sep … U sep (U sep)*U term with a prefix of p units.
func partialUnfold(arr *template.Node, p int) *template.Node {
	var children []*template.Node
	for i := 0; i < p; i++ {
		children = append(children, template.Struct(arr.Children...), template.Lit(string(arr.Sep)))
	}
	return template.Struct(append(children, arr)...)
}
