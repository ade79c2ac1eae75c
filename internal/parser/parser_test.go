package parser

import (
	"strings"
	"testing"

	"datamaran/internal/chars"
	"datamaran/internal/template"
	"datamaran/internal/template/templatetest"
	"datamaran/internal/textio"
)

func fld() *template.Node         { return template.Field() }
func lit(s string) *template.Node { return template.Lit(s) }
func st(c ...*template.Node) *template.Node {
	return template.Struct(c...).Normalize()
}

// matchRecord runs the two template walks on the record at data[0]: the
// validate pass for ok/end, the extract pass for its occurrences.
func matchRecord(m *Matcher, data []byte) (occs []FieldOcc, arrays []ArrayOcc, end int, ok bool) {
	if end, ok, _ = m.MatchEnds(data, 0); ok {
		occs, arrays, ok = m.AppendRecord(data, 0, nil, nil)
	}
	return occs, arrays, end, ok
}

func TestMatchSimpleLine(t *testing.T) {
	// [F:F:F] F\n
	tm := st(lit("["), fld(), lit(":"), fld(), lit(":"), fld(), lit("] "), fld(), lit("\n"))
	m := NewMatcher(tm)
	data := []byte("[01:05:02] 192.168.0.1\n")
	occs, _, end, ok := matchRecord(m, data)
	if !ok {
		t.Fatal("expected match")
	}
	if end != len(data) {
		t.Fatalf("end = %d, want %d", end, len(data))
	}
	if len(occs) != 4 {
		t.Fatalf("got %d field occurrences, want 4", len(occs))
	}
	vals := make([]string, len(occs))
	for i, o := range occs {
		vals[i] = string(data[o.Start:o.End])
	}
	want := []string{"01", "05", "02", "192.168.0.1"}
	for i := range want {
		if vals[i] != want[i] {
			t.Errorf("field %d = %q, want %q", i, vals[i], want[i])
		}
	}
}

func TestMatchRejectsWrongLiteral(t *testing.T) {
	tm := st(lit("["), fld(), lit("]\n"))
	m := NewMatcher(tm)
	if _, ok, _ := m.MatchEnds([]byte("(x)\n"), 0); ok {
		t.Fatal("should not match wrong bracket")
	}
}

func TestMatchFieldStopsAtRTChar(t *testing.T) {
	// F,F\n over "a,b\n": first field must stop at ','.
	tm := st(fld(), lit(","), fld(), lit("\n"))
	m := NewMatcher(tm)
	data := []byte("a,b\n")
	occs, _, _, ok := matchRecord(m, data)
	if !ok {
		t.Fatal("expected match")
	}
	if got := string(data[occs[0].Start:occs[0].End]); got != "a" {
		t.Fatalf("field 0 = %q, want \"a\"", got)
	}
}

func TestMatchEmptyField(t *testing.T) {
	tm := st(fld(), lit(","), fld(), lit("\n"))
	m := NewMatcher(tm)
	data := []byte(",b\n")
	occs, _, _, ok := matchRecord(m, data)
	if !ok {
		t.Fatal("empty leading field should match")
	}
	if occs[0].Start != occs[0].End {
		t.Fatal("first field should be empty")
	}
}

func TestMatchArray(t *testing.T) {
	// (F,)*F\n over varying field counts.
	tm := template.Array([]*template.Node{fld()}, ',', '\n')
	m := NewMatcher(tm)
	for _, n := range []int{1, 2, 5} {
		line := strings.Repeat("x,", n-1) + "y\n"
		occs, arrays, end, ok := matchRecord(m, []byte(line))
		if !ok {
			t.Fatalf("n=%d: expected match", n)
		}
		if end != len(line) {
			t.Fatalf("n=%d: end=%d want %d", n, end, len(line))
		}
		if len(arrays) != 1 || arrays[0] != (ArrayOcc{Arr: 0, Reps: n}) {
			t.Fatalf("n=%d: arrays = %+v, want one array of %d repetitions", n, arrays, n)
		}
		for _, o := range occs {
			if o.Col != 0 {
				t.Fatalf("array field column = %d, want 0", o.Col)
			}
		}
		if occs[len(occs)-1].Rep != n-1 {
			t.Fatalf("last rep = %d, want %d", occs[len(occs)-1].Rep, n-1)
		}
	}
}

func TestMatchArrayForeignCharStaysInField(t *testing.T) {
	// ';' is not in the template's RT-CharSet, so under Assumption 2 it
	// is an ordinary field byte: "b;c" is one field value.
	tm := template.Array([]*template.Node{fld()}, ',', '\n')
	m := NewMatcher(tm)
	data := []byte("a,b;c\n")
	occs, _, _, ok := matchRecord(m, data)
	if !ok {
		t.Fatal("expected match")
	}
	if len(occs) != 2 {
		t.Fatalf("fields = %d, want 2", len(occs))
	}
	if got := string(data[occs[1].Start:occs[1].End]); got != "b;c" {
		t.Fatalf("field 1 = %q, want \"b;c\"", got)
	}
}

func TestMatchFigure6Template(t *testing.T) {
	// F,F,"(F,)*F",F\n — quoted inner list.
	inner := template.Array([]*template.Node{fld()}, ',', '"')
	tm := st(fld(), lit(","), fld(), lit(`,"`), inner, lit(","), fld(), lit("\n"))
	m := NewMatcher(tm)
	data := []byte(`a,b,"1,2,3",z` + "\n")
	occs, _, end, ok := matchRecord(m, data)
	if !ok {
		t.Fatal("expected match")
	}
	if end != len(data) {
		t.Fatalf("end = %d, want %d", end, len(data))
	}
	var got []string
	for _, o := range occs {
		got = append(got, string(data[o.Start:o.End]))
	}
	want := []string{"a", "b", "1", "2", "3", "z"}
	if len(got) != len(want) {
		t.Fatalf("fields = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("field %d = %q want %q", i, got[i], want[i])
		}
	}
	// Columns: a=0, b=1, inner list col=2 (shared), z=3.
	wantCols := []int{0, 1, 2, 2, 2, 3}
	for i, o := range occs {
		if o.Col != wantCols[i] {
			t.Errorf("occ %d col = %d, want %d", i, o.Col, wantCols[i])
		}
	}
}

func TestColumnsAfterArray(t *testing.T) {
	// F,(F;)*F:F\n — field after an array gets the next column id.
	arr := template.Array([]*template.Node{fld()}, ';', ':')
	tm := st(fld(), lit(","), arr, fld(), lit("\n"))
	m := NewMatcher(tm)
	if m.Columns() != 3 {
		t.Fatalf("Columns = %d, want 3", m.Columns())
	}
	data := []byte("a,x;y:z\n")
	occs, _, _, ok := matchRecord(m, data)
	if !ok {
		t.Fatal("expected match")
	}
	wantCols := []int{0, 1, 1, 2}
	for i, o := range occs {
		if o.Col != wantCols[i] {
			t.Errorf("occ %d col = %d, want %d", i, o.Col, wantCols[i])
		}
	}
}

func TestMatchMultiLineRecord(t *testing.T) {
	// Name: F\nAge: F\n
	tm := st(lit("Name: "), fld(), lit("\nAge: "), fld(), lit("\n"))
	m := NewMatcher(tm)
	data := []byte("Name: bob\nAge: 42\n")
	end, ok, _ := m.MatchEnds(data, 0)
	if !ok || end != len(data) {
		t.Fatalf("multi-line match failed: ok=%v end=%d", ok, end)
	}
}

func TestScanPartitionsRecordsAndNoise(t *testing.T) {
	tm := st(fld(), lit(","), fld(), lit("\n"))
	data := []byte("a,b\n# comment line\nc,d\ne,f\njunk junk junk\n")
	lines := textio.NewLines(data)
	res := NewMatcher(tm).Scan(lines)
	if len(res.Records) != 3 {
		t.Fatalf("records = %d, want 3", len(res.Records))
	}
	if len(res.NoiseLines) != 2 {
		t.Fatalf("noise lines = %v, want 2 lines", res.NoiseLines)
	}
	if res.NoiseLines[0] != 1 || res.NoiseLines[1] != 4 {
		t.Fatalf("noise lines = %v, want [1 4]", res.NoiseLines)
	}
	if res.Coverage != len("a,b\n")+len("c,d\n")+len("e,f\n") {
		t.Fatalf("coverage = %d", res.Coverage)
	}
}

func TestScanMultiLineRecords(t *testing.T) {
	tm := st(lit("BEGIN "), fld(), lit("\nv="), fld(), lit("\nEND\n"))
	data := []byte("BEGIN a\nv=1\nEND\nnoise\nBEGIN b\nv=2\nEND\n")
	res := NewMatcher(tm).Scan(textio.NewLines(data))
	if len(res.Records) != 2 {
		t.Fatalf("records = %d, want 2", len(res.Records))
	}
	r0 := res.Records[0]
	if r0.StartLine != 0 || r0.EndLine != 3 {
		t.Fatalf("record 0 lines [%d,%d), want [0,3)", r0.StartLine, r0.EndLine)
	}
	if len(res.NoiseLines) != 1 || res.NoiseLines[0] != 3 {
		t.Fatalf("noise = %v, want [3]", res.NoiseLines)
	}
}

func TestScanFieldBytes(t *testing.T) {
	tm := st(fld(), lit(","), fld(), lit("\n"))
	data := []byte("aa,bbb\nc,d\n")
	res := NewMatcher(tm).Scan(textio.NewLines(data))
	if res.FieldBytes != 5+2 {
		t.Fatalf("FieldBytes = %d, want 7", res.FieldBytes)
	}
	nonField := res.Coverage - res.FieldBytes
	if nonField != 4 { // two commas + two newlines
		t.Fatalf("non-field coverage = %d, want 4", nonField)
	}
}

func TestScanNoMatchAllNoise(t *testing.T) {
	tm := st(lit("ZZZ "), fld(), lit("\n"))
	data := []byte("a\nb\nc\n")
	res := NewMatcher(tm).Scan(textio.NewLines(data))
	if len(res.Records) != 0 {
		t.Fatal("expected no records")
	}
	if len(res.NoiseLines) != 3 {
		t.Fatalf("noise = %v, want 3 lines", res.NoiseLines)
	}
}

func TestScanGreedyDoesNotOverlap(t *testing.T) {
	// Template matches any single line; every line becomes exactly one
	// record, never overlapping.
	tm := st(fld(), lit("\n"))
	data := []byte("a\nb\nc\n")
	res := NewMatcher(tm).Scan(textio.NewLines(data))
	if len(res.Records) != 3 {
		t.Fatalf("records = %d, want 3", len(res.Records))
	}
	for i := 1; i < len(res.Records); i++ {
		if res.Records[i].Start < res.Records[i-1].End {
			t.Fatal("records overlap")
		}
	}
}

func TestEndsWithNewline(t *testing.T) {
	cases := []struct {
		tm   *template.Node
		want bool
	}{
		{st(fld(), lit("\n")), true},
		{st(fld(), lit(",")), false},
		{template.Array([]*template.Node{fld()}, ',', '\n'), true},
		{template.Array([]*template.Node{fld()}, ',', ']'), false},
		{st(fld(), template.Array([]*template.Node{fld()}, ',', '\n')), true},
		{fld(), false},
	}
	for i, c := range cases {
		if got := EndsWithNewline(c.tm); got != c.want {
			t.Errorf("case %d (%v): EndsWithNewline = %v, want %v", i, c.tm, got, c.want)
		}
	}
}

func TestScanAlignedEndRequired(t *testing.T) {
	// Template without trailing newline can match mid-line; Scan must
	// not accept a record that ends mid-line.
	tm := st(fld(), lit(":"))
	data := []byte("a:b\n")
	res := NewMatcher(tm).Scan(textio.NewLines(data))
	if len(res.Records) != 0 {
		t.Fatal("mid-line match must not become a record")
	}
}

func TestRoundTripExtractMatch(t *testing.T) {
	// A template extracted from a record must match that record.
	recs := []string{
		"10-20-30 POST /x 200\n",
		"[a] [b] [c]\n",
		"k=v;k2=v2;k3=v3.\n",
	}
	for _, r := range recs {
		min, _ := templatetest.MinimalFromRecord([]byte(r), chars.NewSet(" -=;[]./"))
		m := NewMatcher(min)
		end, ok, _ := m.MatchEnds([]byte(r), 0)
		if !ok || end != len(r) {
			t.Errorf("template %v does not re-match its source %q (ok=%v end=%d)", min, r, ok, end)
		}
	}
}
