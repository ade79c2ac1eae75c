// Package parsertest is the tests' oracle for the parser and for the
// extraction engine built on it: the tree-building template walker the
// arena matcher replaced, kept as an independent reference implementation,
// and Apply, the whole-input residue chain over that walker. It shares no
// code with the parser's compiled program or with the engine's staged
// windows — it works from the templates alone — so "arena scan ≡
// tree scan" and "engine ≡ Apply" each compare two implementations, not
// one with itself. Nothing outside _test.go files may import it.
package parsertest

import (
	"reflect"
	"slices"
	"testing"

	"datamaran/internal/chars"
	"datamaran/internal/core"
	"datamaran/internal/parser"
	"datamaran/internal/template"
	"datamaran/internal/textio"
)

// Value is the parse tree of one instantiated record against a template.
type Value struct {
	// Node is the template node this value instantiates.
	Node *template.Node
	// Start and End delimit the matched bytes (for all kinds).
	Start, End int
	// Children: for KStruct, one per template child; for KArray, one
	// group per repetition, each group being a KStruct-shaped Value
	// over the array body.
	Children []*Value
}

// Oracle matches one structure template by building parse trees.
type Oracle struct {
	st    *template.Node
	rtset chars.Set
	// body and fields are per array node: the KStruct wrapper over its
	// children and the field columns of one repetition. (Which array an
	// occurrence instantiates is a position in the template, not a node:
	// see Arrays.)
	body   map[*template.Node]*template.Node
	fields map[*template.Node]int
}

// New builds the oracle for st.
func New(st *template.Node) *Oracle {
	o := &Oracle{st: st, rtset: st.RTCharSet(),
		body:   map[*template.Node]*template.Node{},
		fields: map[*template.Node]int{}}
	var walk func(n *template.Node)
	walk = func(n *template.Node) {
		if n.Kind == template.KArray {
			body := &template.Node{Kind: template.KStruct, Children: n.Children}
			o.body[n] = body
			o.fields[n] = body.NumFields()
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(st)
	return o
}

// Match attempts to match the template starting at data[pos]. On success
// it returns the parse tree and the end offset (exclusive).
func (o *Oracle) Match(data []byte, pos int) (*Value, int, bool) {
	v, end, ok, _ := o.MatchTrunc(data, pos)
	return v, end, ok
}

// MatchTrunc is Match, additionally reporting whether a failed attempt ran
// off the end of data — i.e. whether appending more bytes could turn the
// failure into a match.
func (o *Oracle) MatchTrunc(data []byte, pos int) (v *Value, end int, ok, truncated bool) {
	v, end, ok, truncated = o.match(o.st, data, pos)
	if !ok {
		return nil, 0, false, truncated
	}
	return v, end, true, false
}

func (o *Oracle) match(n *template.Node, data []byte, pos int) (*Value, int, bool, bool) {
	switch n.Kind {
	case template.KField:
		end := pos
		for end < len(data) && data[end] != '\n' && !o.rtset.Contains(data[end]) {
			end++
		}
		return &Value{Node: n, Start: pos, End: end}, end, true, false

	case template.KLiteral:
		lit := n.Lit
		avail := len(lit)
		if pos+avail > len(data) {
			avail = len(data) - pos
		}
		for i := 0; i < avail; i++ {
			if data[pos+i] != lit[i] {
				return nil, 0, false, false
			}
		}
		if avail < len(lit) {
			return nil, 0, false, true
		}
		return &Value{Node: n, Start: pos, End: pos + len(lit)}, pos + len(lit), true, false

	case template.KStruct:
		v := &Value{Node: n, Start: pos, Children: make([]*Value, 0, len(n.Children))}
		cur := pos
		for _, c := range n.Children {
			cv, end, ok, trunc := o.match(c, data, cur)
			if !ok {
				return nil, 0, false, trunc
			}
			v.Children = append(v.Children, cv)
			cur = end
		}
		v.End = cur
		return v, cur, true, false

	case template.KArray:
		v := &Value{Node: n, Start: pos}
		cur := pos
		body := o.body[n]
		for {
			gv, end, ok, trunc := o.match(body, data, cur)
			if !ok {
				return nil, 0, false, trunc
			}
			v.Children = append(v.Children, gv)
			cur = end
			if cur >= len(data) {
				return nil, 0, false, true
			}
			switch data[cur] {
			case n.Sep:
				cur++
			case n.Term:
				cur++
				v.End = cur
				return v, cur, true, false
			default:
				return nil, 0, false, false
			}
		}
	}
	return nil, 0, false, false
}

// Flatten lists every field occurrence of a parsed record in left-to-right
// order, with template column indices.
func (o *Oracle) Flatten(v *Value) []parser.FieldOcc {
	var out []parser.FieldOcc
	var walk func(n *template.Node, v *Value, col int, rep int) int
	walk = func(n *template.Node, v *Value, col int, rep int) int {
		switch n.Kind {
		case template.KField:
			out = append(out, parser.FieldOcc{Col: col, Rep: rep, Start: v.Start, End: v.End})
			return col + 1
		case template.KStruct:
			c := col
			for i, ch := range n.Children {
				c = walk(ch, v.Children[i], c, rep)
			}
			return c
		case template.KArray:
			for r, group := range v.Children {
				c := col
				for i, ch := range n.Children {
					c = walk(ch, group.Children[i], c, r)
				}
			}
			return col + o.fields[n]
		}
		return col
	}
	walk(o.st, v, 0, 0)
	return out
}

// Arrays lists every array instantiation of a parse tree in the order the
// matcher emits them: each array as it terminates, inner before outer.
// An array is numbered by its occurrence in a DFS of the template, so a
// node the template holds twice is two arrays: the walk follows the
// template beside the tree, idx being the number of the first array at or
// under n, and returns the number after n's subtree.
func (o *Oracle) Arrays(v *Value) []parser.ArrayOcc {
	var out []parser.ArrayOcc
	var walk func(n *template.Node, v *Value, idx int) int
	walk = func(n *template.Node, v *Value, idx int) int {
		switch n.Kind {
		case template.KStruct:
			for i, c := range n.Children {
				idx = walk(c, v.Children[i], idx)
			}
		case template.KArray:
			next := idx + 1
			for _, group := range v.Children { // a match has one or more
				next = idx + 1
				for i, c := range n.Children {
					next = walk(c, group.Children[i], next)
				}
			}
			out = append(out, parser.ArrayOcc{Arr: idx, Reps: len(v.Children)})
			return next
		}
		return idx
	}
	walk(o.st, v, 0)
	return out
}

// ScanRef is the tree-path partition of a dataset: what parser.Scan must
// reproduce.
type ScanRef struct {
	Records    []parser.Record
	Fields     [][]parser.FieldOcc
	Arrays     [][]parser.ArrayOcc
	NoiseLines []int
	Coverage   int
	FieldBytes int
}

// Scan is the pre-arena greedy scan (offset map, tree Match, Flatten).
func (o *Oracle) Scan(lines *textio.Lines) *ScanRef {
	res := &ScanRef{}
	data := lines.Data()
	n := lines.N()
	lineOf := make(map[int]int, n) // byte offset -> line index
	for i := 0; i <= n; i++ {
		lineOf[lines.Start(i)] = i
	}
	i := 0
	for i < n {
		pos := lines.Start(i)
		v, end, ok := o.Match(data, pos)
		if ok {
			if endLine, aligned := lineOf[end]; aligned && endLine > i {
				res.Records = append(res.Records, parser.Record{
					StartLine: i, EndLine: endLine, Start: pos, End: end,
				})
				res.Coverage += end - pos
				occs := o.Flatten(v)
				for _, f := range occs {
					res.FieldBytes += f.End - f.Start
				}
				res.Fields = append(res.Fields, occs)
				res.Arrays = append(res.Arrays, o.Arrays(v))
				i = endLine
				continue
			}
		}
		res.NoiseLines = append(res.NoiseLines, i)
		i++
	}
	return res
}

// RefOf returns an arena scan as a ScanRef, so that RequireScanEqual can
// hold one arena scan to another.
func RefOf(scan *parser.ScanResult) *ScanRef {
	ref := &ScanRef{NoiseLines: scan.NoiseLines, Coverage: scan.Coverage, FieldBytes: scan.FieldBytes}
	for i, r := range scan.Records {
		ref.Records = append(ref.Records, parser.Record{StartLine: r.StartLine, EndLine: r.EndLine, Start: r.Start, End: r.End})
		ref.Fields = append(ref.Fields, scan.Fields(i))
		ref.Arrays = append(ref.Arrays, scan.Arrays(i))
	}
	return ref
}

// RequireScanEqual fails t unless got — an arena scan — equals the tree
// reference: record spans, field occurrences, array occurrences in
// emission order, noise lines, coverage and field bytes, and the
// AllFields/AllArrays views.
func RequireScanEqual(t testing.TB, label string, want *ScanRef, got *parser.ScanResult) {
	t.Helper()
	if len(got.Records) != len(want.Records) {
		t.Fatalf("%s: records = %d, want %d", label, len(got.Records), len(want.Records))
	}
	for i := range want.Records {
		g, w := got.Records[i], want.Records[i]
		if g.StartLine != w.StartLine || g.EndLine != w.EndLine || g.Start != w.Start || g.End != w.End {
			t.Fatalf("%s: record %d = [%d,%d)@[%d,%d), want [%d,%d)@[%d,%d)", label, i,
				g.StartLine, g.EndLine, g.Start, g.End, w.StartLine, w.EndLine, w.Start, w.End)
		}
		gf, wf := got.Fields(i), want.Fields[i]
		if len(gf) != len(wf) {
			t.Fatalf("%s: record %d fields = %d, want %d", label, i, len(gf), len(wf))
		}
		for j := range wf {
			if gf[j] != wf[j] {
				t.Fatalf("%s: record %d field %d = %+v, want %+v", label, i, j, gf[j], wf[j])
			}
		}
		ga, wa := got.Arrays(i), want.Arrays[i]
		if len(ga) != len(wa) {
			t.Fatalf("%s: record %d arrays = %d, want %d", label, i, len(ga), len(wa))
		}
		for j := range wa {
			if ga[j] != wa[j] {
				t.Fatalf("%s: record %d array %d = %+v, want %+v", label, i, j, ga[j], wa[j])
			}
		}
	}
	if len(got.NoiseLines) != len(want.NoiseLines) {
		t.Fatalf("%s: noise = %v, want %v", label, got.NoiseLines, want.NoiseLines)
	}
	for i := range want.NoiseLines {
		if got.NoiseLines[i] != want.NoiseLines[i] {
			t.Fatalf("%s: noise = %v, want %v", label, got.NoiseLines, want.NoiseLines)
		}
	}
	if got.Coverage != want.Coverage || got.FieldBytes != want.FieldBytes {
		t.Fatalf("%s: coverage/fieldBytes = %d/%d, want %d/%d", label,
			got.Coverage, got.FieldBytes, want.Coverage, want.FieldBytes)
	}
	// The whole-scan views the scorer reads hold the records' occurrences
	// and nothing else: no line that failed to match leaves any behind.
	var allFields []parser.FieldOcc
	var allArrays []parser.ArrayOcc
	for i := range want.Records {
		allFields = append(allFields, want.Fields[i]...)
		allArrays = append(allArrays, want.Arrays[i]...)
	}
	if !slices.Equal(got.AllFields(), allFields) || !slices.Equal(got.AllArrays(), allArrays) {
		t.Fatalf("%s: AllFields/AllArrays hold %d/%d occurrences, the records %d/%d", label,
			len(got.AllFields()), len(got.AllArrays()), len(allFields), len(allArrays))
	}
}

// Apply is the reference for the extraction engine: the residue chain of
// §9.1 over the tree-walking Scan, on the whole input at once. Template k
// scans the lines templates 0..k−1 left uncovered, concatenated; its
// records come back in the coordinates of data, and the lines the last
// template leaves are the noise. The result carries one Structure per
// template (records and coverage filled), the records grouped by type in
// template order, and no timing.
func Apply(templates []*template.Node, data []byte) *core.Result {
	res := &core.Result{}
	orig := textio.NewLines(data)
	// origLine[i] is where line i of the current residue sits in data.
	origLine := make([]int, orig.N())
	for i := range origLine {
		origLine[i] = i
	}
	resid := data
	for typeID, tpl := range templates {
		o := New(tpl)
		lines := textio.NewLines(resid)
		scan := o.Scan(lines)
		res.Structures = append(res.Structures, core.Structure{
			TypeID: typeID, Template: tpl, Records: len(scan.Records), Coverage: scan.Coverage,
		})
		for i, rec := range scan.Records {
			out := core.RecordOut{
				TypeID:    typeID,
				StartLine: origLine[rec.StartLine],
				EndLine:   origLine[rec.EndLine-1] + 1,
				Fields:    make([]core.FieldValue, 0, len(scan.Fields[i])),
			}
			for _, f := range scan.Fields[i] {
				// A field lies within one line: the last line of the record
				// that starts at or before it.
				li := rec.EndLine - 1
				for li > rec.StartLine && lines.Start(li) > f.Start {
					li--
				}
				shift := orig.Start(origLine[li]) - lines.Start(li)
				out.Fields = append(out.Fields, core.FieldValue{
					Column: f.Col, Repetition: f.Rep,
					Start: f.Start + shift, End: f.End + shift,
					Value: string(resid[f.Start:f.End]),
				})
			}
			if len(scan.Arrays[i]) > 0 {
				out.Arrays = scan.Arrays[i]
			}
			res.Records = append(res.Records, out)
		}
		var nextLine []int
		var next []byte
		for _, li := range scan.NoiseLines {
			nextLine = append(nextLine, origLine[li])
			next = append(next, lines.Line(li)...)
		}
		origLine, resid = nextLine, next
	}
	res.NoiseLines = origLine
	return res
}

// RequireResultEqual fails t unless got equals want on everything an
// extraction decides: per structure the template, record count and
// coverage; every record (lines, field spans and values, array
// occurrences); the noise lines. Timing and discovery's scores are not
// compared.
func RequireResultEqual(t testing.TB, label string, want, got *core.Result) {
	t.Helper()
	if len(got.Structures) != len(want.Structures) {
		t.Fatalf("%s: structures = %d, want %d", label, len(got.Structures), len(want.Structures))
	}
	for i := range want.Structures {
		w, g := want.Structures[i], got.Structures[i]
		if w.Template.Key() != g.Template.Key() {
			t.Fatalf("%s: type %d template = %s, want %s", label, i, g.Template, w.Template)
		}
		if w.TypeID != g.TypeID || w.Records != g.Records || w.Coverage != g.Coverage {
			t.Fatalf("%s: type %d id/records/coverage = %d/%d/%d, want %d/%d/%d",
				label, i, g.TypeID, g.Records, g.Coverage, w.TypeID, w.Records, w.Coverage)
		}
	}
	if len(got.Records) != len(want.Records) {
		t.Fatalf("%s: records = %d, want %d", label, len(got.Records), len(want.Records))
	}
	for i := range want.Records {
		if !reflect.DeepEqual(got.Records[i], want.Records[i]) {
			t.Fatalf("%s: record %d = %+v, want %+v", label, i, got.Records[i], want.Records[i])
		}
	}
	if len(got.NoiseLines) != len(want.NoiseLines) {
		t.Fatalf("%s: noise lines = %v, want %v", label, got.NoiseLines, want.NoiseLines)
	}
	for i := range want.NoiseLines {
		if got.NoiseLines[i] != want.NoiseLines[i] {
			t.Fatalf("%s: noise lines = %v, want %v", label, got.NoiseLines, want.NoiseLines)
		}
	}
}
