package datamaran

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"datamaran/internal/core"
)

func sampleCSV(rows int) []byte {
	rng := rand.New(rand.NewSource(2))
	var b strings.Builder
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&b, "%d,%s,%d\n", i, []string{"ok", "bad", "slow"}[rng.Intn(3)], rng.Intn(1000))
	}
	return []byte(b.String())
}

func TestExtractPublicAPI(t *testing.T) {
	res, err := Extract(sampleCSV(120), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Structures) != 1 {
		t.Fatalf("structures = %d, want 1", len(res.Structures))
	}
	s := res.Structures[0]
	if s.Records != 120 {
		t.Fatalf("records = %d, want 120", s.Records)
	}
	if s.Columns != 3 {
		t.Fatalf("columns = %d, want 3", s.Columns)
	}
	if s.MultiLine {
		t.Fatal("single-line structure flagged multi-line")
	}
	if s.Template == "" || !strings.Contains(s.Template, "F") {
		t.Fatalf("template = %q", s.Template)
	}
	if len(res.Records) != 120 {
		t.Fatalf("record list = %d", len(res.Records))
	}
	if res.Timing.Total() <= 0 {
		t.Fatal("timing not recorded")
	}
}

func TestExtractEmptyInputError(t *testing.T) {
	if _, err := Extract(nil, Options{}); err == nil {
		t.Fatal("expected error for empty input")
	}
}

func TestExtractReaderAndFile(t *testing.T) {
	data := sampleCSV(60)
	res, err := ExtractReader(bytes.NewReader(data), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 60 {
		t.Fatalf("reader records = %d", len(res.Records))
	}
	path := t.TempDir() + "/x.log"
	if err := writeFile(path, data); err != nil {
		t.Fatal(err)
	}
	res2, err := ExtractFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Records) != 60 {
		t.Fatalf("file records = %d", len(res2.Records))
	}
	if _, err := ExtractFile(path+".missing", Options{}); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestFieldSpansMatchValues(t *testing.T) {
	data := sampleCSV(80)
	res, err := Extract(data, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Records {
		for _, f := range r.Fields {
			if string(data[f.Start:f.End]) != f.Value {
				t.Fatalf("span/value mismatch: %q vs %q", data[f.Start:f.End], f.Value)
			}
		}
	}
}

func TestTablesNormalized(t *testing.T) {
	res, err := Extract(sampleCSV(50), Options{})
	if err != nil {
		t.Fatal(err)
	}
	tables := res.TablesWith(TablesOptions{})
	if len(tables) == 0 {
		t.Fatal("no tables")
	}
	root := tables[0]
	if root.Columns[0] != "id" {
		t.Fatalf("first column = %q, want id", root.Columns[0])
	}
	if len(root.Rows) != 50 {
		t.Fatalf("rows = %d, want 50", len(root.Rows))
	}
}

func TestTablesWithLists(t *testing.T) {
	// Variable-length lists: normalized form must produce a child table.
	rng := rand.New(rand.NewSource(3))
	var b strings.Builder
	for i := 0; i < 100; i++ {
		n := 1 + rng.Intn(5)
		parts := make([]string, n)
		for j := range parts {
			parts[j] = fmt.Sprintf("%d", rng.Intn(100))
		}
		fmt.Fprintf(&b, "row %s;\n", strings.Join(parts, ","))
	}
	res, err := Extract([]byte(b.String()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Structures) == 0 {
		t.Fatal("no structure")
	}
	if !strings.Contains(res.Structures[0].Template, ")*") {
		t.Skipf("no array survived refinement: %s", res.Structures[0].Template)
	}
	tables := res.TablesWith(TablesOptions{})
	if len(tables) < 2 {
		t.Fatalf("tables = %d, want root + child", len(tables))
	}
	child := tables[1]
	if child.Parent == "" {
		t.Fatal("child table lacks parent reference")
	}
}

func TestDenormalizedTables(t *testing.T) {
	res, err := Extract(sampleCSV(40), Options{})
	if err != nil {
		t.Fatal(err)
	}
	tabs := res.TablesWith(TablesOptions{Denormalized: true})
	if len(tabs) != 1 {
		t.Fatalf("tables = %d", len(tabs))
	}
	if len(tabs[0].Rows) != 40 {
		t.Fatalf("rows = %d", len(tabs[0].Rows))
	}
}

func TestTableWriteCSV(t *testing.T) {
	res, err := Extract(sampleCSV(10), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.TablesWith(TablesOptions{})[0].WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(buf.String(), "\n")
	if lines != 11 { // header + 10 rows
		t.Fatalf("CSV lines = %d, want 11", lines)
	}
}

func TestMultiLinePublic(t *testing.T) {
	var b strings.Builder
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 60; i++ {
		fmt.Fprintf(&b, "BEGIN %d\nval= %d;\nEND.\n", i, rng.Intn(1000))
	}
	res, err := Extract([]byte(b.String()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Structures) != 1 || !res.Structures[0].MultiLine {
		t.Fatalf("expected one multi-line structure: %+v", res.Structures)
	}
	if res.Records[0].EndLine-res.Records[0].StartLine != 3 {
		t.Fatalf("record spans %d lines, want 3", res.Records[0].EndLine-res.Records[0].StartLine)
	}
}

// TestExtractMaxSpanExtremes: MaxSpan <= 0 means the default, and a span
// far past the input's line count is bounded by the lines there are —
// neither sizes anything by the span itself.
func TestExtractMaxSpanExtremes(t *testing.T) {
	for _, span := range []int{-1, 1 << 20, 1 << 40} {
		res, err := Extract([]byte("1,ok,2\n"), Options{MaxSpan: span})
		if err != nil {
			t.Fatalf("MaxSpan %d: %v", span, err)
		}
		if len(res.Structures) != 1 || res.Structures[0].Template != `F,F,F\n` {
			t.Fatalf("MaxSpan %d: structures = %+v, want one F,F,F\\n", span, res.Structures)
		}
	}
}

func TestGreedyOption(t *testing.T) {
	res, err := Extract(sampleCSV(80), Options{Search: Greedy})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Structures) == 0 {
		t.Fatal("greedy found nothing")
	}
}

func TestTypedTablesMergeIP(t *testing.T) {
	// Web-log style lines: the fine-grained IP octet columns must come
	// back as one ip column.
	rng := rand.New(rand.NewSource(8))
	var b strings.Builder
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&b, "%d.%d.%d.%d GET %d\n",
			1+rng.Intn(250), rng.Intn(256), rng.Intn(256), 1+rng.Intn(250), rng.Intn(1000))
	}
	res, err := Extract([]byte(b.String()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	tabs := res.TablesWith(TablesOptions{Typed: true})
	if len(tabs) != 1 {
		t.Fatalf("tables = %d", len(tabs))
	}
	hasIP := false
	for _, c := range tabs[0].Columns {
		if c == "ip" {
			hasIP = true
		}
	}
	if !hasIP {
		t.Fatalf("no ip column after typing: %v", tabs[0].Columns)
	}
	// First cell of the ip column must be a dotted quad.
	ipIdx := -1
	for i, c := range tabs[0].Columns {
		if c == "ip" {
			ipIdx = i
		}
	}
	if !strings.Contains(tabs[0].Rows[0][ipIdx], ".") {
		t.Fatalf("ip cell = %q", tabs[0].Rows[0][ipIdx])
	}
}

func TestTypedTablesNoSpuriousMerges(t *testing.T) {
	res, err := Extract(sampleCSV(60), Options{})
	if err != nil {
		t.Fatal(err)
	}
	tabs := res.TablesWith(TablesOptions{Typed: true})
	if len(tabs) != 1 {
		t.Fatalf("tables = %d", len(tabs))
	}
	if len(tabs[0].Columns) == 0 || len(tabs[0].Rows) != 60 {
		t.Fatalf("typed table malformed: %v rows=%d", tabs[0].Columns, len(tabs[0].Rows))
	}
}

// TestWrapResultExactSizing: the public result holds exactly what the
// per-record conversion yields — nil where there is nothing, no spare
// capacity where there is — as views of the engine's own fields, not a
// second copy of them; and the records' Fields, runs of one backing array,
// cannot be appended into each other.
func TestWrapResultExactSizing(t *testing.T) {
	res, err := Extract(sampleCSV(50), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 50 || len(res.res.Records) != 50 {
		t.Fatalf("%d public records of %d", len(res.Records), len(res.res.Records))
	}
	for i, r := range res.Records {
		want := publicRecord(res.res.Records[i])
		if !reflect.DeepEqual(r, want) {
			t.Fatalf("record %d = %+v, publicRecord gives %+v", i, r, want)
		}
		if cap(r.Fields) != len(r.Fields) || cap(want.Fields) != len(want.Fields) {
			t.Fatalf("record %d: Fields cap %d/%d for len %d", i, cap(r.Fields), cap(want.Fields), len(r.Fields))
		}
		if len(r.Fields) == 0 || &r.Fields[0] != &res.res.Records[i].Fields[0] {
			t.Fatalf("record %d: public Fields are not a view of the engine's", i)
		}
	}
	next := res.Records[1].Fields[0]
	_ = append(res.Records[0].Fields, Field{Value: "intruder"})
	if res.Records[1].Fields[0] != next {
		t.Fatal("appending to one record's Fields overwrote the next record's")
	}

	empty := wrapResult(&core.Result{})
	if empty.Records != nil || empty.Structures != nil {
		t.Fatalf("empty result wraps to %+v", empty)
	}
	if rec := publicRecord(core.RecordOut{TypeID: 3}); rec.Fields != nil || rec.Type != 3 {
		t.Fatalf("fieldless record wraps to %+v", rec)
	}
}
