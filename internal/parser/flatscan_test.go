package parser_test

import (
	"bytes"
	"testing"

	"datamaran/internal/parser"
	"datamaran/internal/parser/parsertest"
	"datamaran/internal/template"
	"datamaran/internal/textio"
)

func fld() *template.Node         { return template.Field() }
func lit(s string) *template.Node { return template.Lit(s) }
func st(c ...*template.Node) *template.Node {
	return template.Struct(c...).Normalize()
}

// flatScanCases pairs templates with inputs exercising every template
// shape: flat structs, single and nested arrays, multi-line records,
// truncation-prone tails, noise interleavings, empty field values.
func flatScanCases() []struct {
	name string
	tm   *template.Node
	data string
} {
	arr := func(body []*template.Node, sep, term byte) *template.Node {
		return template.Array(body, sep, term)
	}
	return []struct {
		name string
		tm   *template.Node
		data string
	}{
		{"csv", st(fld(), lit(","), fld(), lit(","), fld(), lit("\n")),
			"a,b,c\nnoise line here\n1,2,3\n,,\nx,y,z\n"},
		{"array-line", arr([]*template.Node{fld()}, ',', '\n'),
			"a,b,c\nd\n,,,\n1,2\n"},
		{"array-mid", st(lit("["), arr([]*template.Node{fld()}, ' ', ']'), lit("\n")),
			"[a b c]\n[x]\njunk\n[1 2]\n"},
		{"nested-array", arr([]*template.Node{arr([]*template.Node{fld()}, ',', ';')}, ' ', '\n'),
			"a,b; c;\nx; y,z,w;\nnoise\n"},
		{"sibling-arrays-in-array", arr([]*template.Node{
			arr([]*template.Node{fld()}, ',', ';'), arr([]*template.Node{fld()}, '+', '|')}, ' ', '\n'),
			"a,b;x+y| c;z|\nnoise\nd;e+f+g|\n"},
		{"three-level", arr([]*template.Node{arr([]*template.Node{arr([]*template.Node{fld()}, ',', ';')}, '+', '|')}, ' ', '\n'),
			"a,b;+c;| d;|\ne;+f,g;+h;|\n"},
		{"fieldless-body", st(fld(), lit(":"), arr([]*template.Node{lit("x")}, ',', ';'), lit("\n")),
			"a:x,x,x;\nb:x;\nc:y;\n"},
		{"multi-line", st(lit("BEGIN "), fld(), lit("\nv="), fld(), lit("\nEND\n")),
			"BEGIN a\nv=1\nEND\nnoise\nBEGIN b\nv=2\nEND\nBEGIN c\nv=3\n"},
		{"kv-pairs", st(arr([]*template.Node{fld(), lit("="), fld()}, ';', '.'), lit("\n")),
			"k=v;k2=v2.\nnope\na=1.\n"},
		{"empty-fields", st(fld(), lit(":"), fld(), lit("\n")),
			":\na:\n:b\nplain\n"},
		{"unterminated-tail", st(fld(), lit(","), fld(), lit("\n")),
			"a,b\nc,d"},
		{"all-noise", st(lit("ZZZ"), fld(), lit("\n")),
			"a\nb\nc\n"},
	}
}

// TestScanMatchesTreeReference pins the two-phase arena scan, and the
// coverage-only Residue walk beside it, to the tree-building oracle across
// every template shape.
func TestScanMatchesTreeReference(t *testing.T) {
	for _, c := range flatScanCases() {
		tm := c.tm.Normalize()
		m := parser.NewMatcher(tm)
		lines := textio.NewLines([]byte(c.data))
		want := parsertest.New(tm).Scan(lines)
		if c.name != "all-noise" && len(want.Records) == 0 {
			t.Fatalf("%s: case matches no record", c.name)
		}
		parsertest.RequireScanEqual(t, c.name+"/seq", want, m.Scan(lines))
		requireResidue(t, c.name, want, m, lines)
	}
}

// requireResidue checks Residue against the oracle's scan: the uncovered
// byte total, the kept lines, and giving up exactly past the allowance.
func requireResidue(t *testing.T, label string, want *parsertest.ScanRef, m *parser.Matcher, lines *textio.Lines) {
	t.Helper()
	total := len(lines.Data())
	var wantResidue []byte
	for _, li := range want.NoiseLines {
		wantResidue = append(wantResidue, lines.Line(li)...)
	}
	uncovered := total - want.Coverage
	if len(wantResidue) != uncovered {
		t.Fatalf("%s: oracle's noise lines hold %d bytes, its coverage leaves %d", label, len(wantResidue), uncovered)
	}
	residue, got, ok := m.Residue(lines, true, total)
	if !ok || got != uncovered || !bytes.Equal(residue, wantResidue) {
		t.Fatalf("%s: Residue = %q, %d, %v; want %q, %d", label, residue, got, ok, wantResidue, uncovered)
	}
	if residue, got, ok := m.Residue(lines, false, uncovered); !ok || got != uncovered || residue != nil {
		t.Fatalf("%s: Residue without keep, allowance %d = %q, %d, %v", label, uncovered, residue, got, ok)
	}
	if _, _, ok := m.Residue(lines, true, uncovered-1); ok {
		t.Fatalf("%s: Residue did not give up with %d uncovered and %d allowed", label, uncovered, uncovered-1)
	}
}

// TestScanIntoReuseIsClean pins that a reused ScanResult carries no state
// between datasets: scanning A, then B, must equal scanning B fresh.
func TestScanIntoReuseIsClean(t *testing.T) {
	cases := flatScanCases()
	res := &parser.ScanResult{}
	for _, c := range cases {
		tm := c.tm.Normalize()
		lines := textio.NewLines([]byte(c.data))
		parser.NewMatcher(tm).ScanInto(lines, res)
		parsertest.RequireScanEqual(t, c.name+"/reused", parsertest.New(tm).Scan(lines), res)
	}
}

// TestMatchCandidatesTwoPhase pins the validate pass's per-line candidates
// to the oracle's tree match at every line.
func TestMatchCandidatesTwoPhase(t *testing.T) {
	for _, c := range flatScanCases() {
		tm := c.tm.Normalize()
		o := parsertest.New(tm)
		lines := textio.NewLines([]byte(c.data))
		n := lines.N()
		ends := parser.NewMatcher(tm).MatchCandidateEnds(lines, 0, n, 2)
		for i := 0; i < n; i++ {
			_, end, ok, trunc := o.MatchTrunc(lines.Data(), lines.Start(i))
			endLine, aligned := lines.AlignedLine(end)
			want := parser.CandEnd{Truncated: trunc}
			if ok && aligned && endLine > i {
				want = parser.CandEnd{EndLine: endLine, End: end}
			}
			if ends[i] != want {
				t.Fatalf("%s: line %d: cand %+v, oracle %+v", c.name, i, ends[i], want)
			}
		}
	}
}

// TestMatchTruncAgreesWithMatch: at every offset of a buffer, the validate
// pass's ok/end/truncated must be exactly the oracle's.
func TestMatchTruncAgreesWithMatch(t *testing.T) {
	for _, c := range flatScanCases() {
		tm := c.tm.Normalize()
		m, o := parser.NewMatcher(tm), parsertest.New(tm)
		data := []byte(c.data)
		for pos := 0; pos <= len(data); pos++ {
			e1, ok1, t1 := m.MatchEnds(data, pos)
			_, e2, ok2, t2 := o.MatchTrunc(data, pos)
			if ok1 != ok2 || e1 != e2 || t1 != t2 {
				t.Errorf("%s pos %d: MatchEnds=(%v,%d,%v) oracle=(%v,%d,%v)", c.name, pos, ok1, e1, t1, ok2, e2, t2)
			}
		}
	}
}
