package relational

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"datamaran/internal/core"
	"datamaran/internal/parser/parsertest"
	"datamaran/internal/pipeline"
	"datamaran/internal/template"
)

func fld() *template.Node         { return template.Field() }
func lit(s string) *template.Node { return template.Lit(s) }
func stc(c ...*template.Node) *template.Node {
	return template.Struct(c...).Normalize()
}

// recordsOf extracts data with tm the way production does — through the
// extraction engine, checked here against the tree-walking reference — and
// returns the records (all of type 0).
func recordsOf(t *testing.T, tm *template.Node, data string) []core.RecordOut {
	t.Helper()
	tpls := []*template.Node{tm}
	res, err := pipeline.RunBytes(context.Background(), []byte(data), pipeline.Config{Templates: tpls})
	if err != nil {
		t.Fatal(err)
	}
	parsertest.RequireResultEqual(t, "records", parsertest.Apply(tpls, []byte(data)), res)
	return res.Records
}

// render prints a database as "name(parent): row; row; ..." lines, cells
// joined by commas, so a test can state whole expected tables literally.
func render(db *Database) string {
	var b strings.Builder
	for _, t := range db.Tables {
		b.WriteString(t.Name + "(" + t.Parent + "):")
		for _, row := range t.Rows {
			b.WriteString(" " + strings.Join(row, ",") + ";")
		}
		b.WriteString("\n")
	}
	return b.String()
}

func TestBuildFlatTemplate(t *testing.T) {
	tm := stc(fld(), lit(","), fld(), lit("\n"))
	db := Build(tm, recordsOf(t, tm, "a,b\nc,d\n"), 0, "recs")
	if len(db.Tables) != 1 {
		t.Fatalf("tables = %d, want 1", len(db.Tables))
	}
	root := db.Tables[0]
	if root.Name != "recs" {
		t.Fatalf("root name = %q", root.Name)
	}
	wantCols := []string{"id", "f0", "f1"}
	if strings.Join(root.Columns, "|") != strings.Join(wantCols, "|") {
		t.Fatalf("columns = %v, want %v", root.Columns, wantCols)
	}
	if root.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2", root.NumRows())
	}
	if root.Rows[0][1] != "a" || root.Rows[1][2] != "d" {
		t.Fatalf("cell values wrong: %v", root.Rows)
	}
}

func TestBuildNormalizedArrayChildTable(t *testing.T) {
	// Figure 7: F,F,"(F,)*F",F\n → root + one child list table with FK.
	inner := template.Array([]*template.Node{fld()}, ',', '"')
	tm := stc(fld(), lit(","), fld(), lit(`,"`), inner, lit(","), fld(), lit("\n"))
	db := Build(tm, recordsOf(t, tm, "a,b,\"1,2,3\",z\nc,d,\"4\",w\n"), 0, "recs")
	if len(db.Tables) != 2 {
		t.Fatalf("tables = %d, want 2", len(db.Tables))
	}
	root, child := db.Tables[0], db.Tables[1]
	if root.NumRows() != 2 {
		t.Fatalf("root rows = %d, want 2", root.NumRows())
	}
	if child.NumRows() != 4 {
		t.Fatalf("child rows = %d, want 4 (3 + 1)", child.NumRows())
	}
	if child.Parent != "recs" {
		t.Fatalf("child parent = %q", child.Parent)
	}
	// First three child rows reference record 1, last references 2.
	for i := 0; i < 3; i++ {
		if child.Rows[i][1] != "1" {
			t.Errorf("child row %d parent_id = %q, want 1", i, child.Rows[i][1])
		}
	}
	if child.Rows[3][1] != "2" {
		t.Errorf("child row 3 parent_id = %q, want 2", child.Rows[3][1])
	}
	if child.Rows[0][2] != "1" || child.Rows[2][2] != "3" || child.Rows[3][2] != "4" {
		t.Fatalf("child values wrong: %v", child.Rows)
	}
}

func TestBuildNestedArrays(t *testing.T) {
	// (F,F|)*F,F;\n over groups: outer array → child table of pairs.
	outer := template.Array([]*template.Node{fld(), lit(","), fld()}, '|', ';')
	tm := stc(outer, lit("\n"))
	db := Build(tm, recordsOf(t, tm, "1,2|3,4;\n5,6;\n"), 0, "recs")
	if len(db.Tables) != 2 {
		t.Fatalf("tables = %d, want 2", len(db.Tables))
	}
	child := db.Tables[1]
	if child.NumRows() != 3 {
		t.Fatalf("child rows = %d, want 3", child.NumRows())
	}
	if child.Rows[0][2] != "1" || child.Rows[0][3] != "2" || child.Rows[2][2] != "5" {
		t.Fatalf("child cells wrong: %v", child.Rows)
	}
}

func TestBuildDenormalized(t *testing.T) {
	inner := template.Array([]*template.Node{fld()}, ',', '"')
	tm := stc(fld(), lit(`,"`), inner, lit("\n"))
	tab := BuildDenormalized(tm, recordsOf(t, tm, "a,\"1,2,3\"\nb,\"4,5\"\n"), 0, "recs")
	if tab.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2", tab.NumRows())
	}
	if tab.Rows[0][0] != "a" || tab.Rows[0][1] != "1,2,3" {
		t.Fatalf("row 0 = %v", tab.Rows[0])
	}
	if tab.Rows[1][1] != "4,5" {
		t.Fatalf("row 1 = %v", tab.Rows[1])
	}
}

func TestWriteCSV(t *testing.T) {
	tab := &Table{
		Name:    "t",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"x", "y,z"}, {"q\"r", "s"}},
	}
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "a,b\nx,\"y,z\"\n\"q\"\"r\",s\n"
	if buf.String() != want {
		t.Fatalf("CSV = %q, want %q", buf.String(), want)
	}
}

func TestDatabaseTableLookup(t *testing.T) {
	db := &Database{Tables: []*Table{{Name: "x"}, {Name: "y"}}}
	if db.Table("y") == nil || db.Table("z") != nil {
		t.Fatal("Table lookup broken")
	}
}

// Property: the normalized and denormalized forms contain the same field
// values for flat templates.
func TestQuickFormsAgreeOnFlatTemplates(t *testing.T) {
	tm := stc(fld(), lit("|"), fld(), lit("\n"))
	data := "a|b\nc|d\ne|f\n"
	recs := recordsOf(t, tm, data)
	db := Build(tm, recs, 0, "r")
	den := BuildDenormalized(tm, recs, 0, "r")
	root := db.Tables[0]
	if root.NumRows() != den.NumRows() {
		t.Fatalf("row counts differ: %d vs %d", root.NumRows(), den.NumRows())
	}
	for r := range den.Rows {
		for c := range den.Rows[r] {
			if den.Rows[r][c] != root.Rows[r][c+1] { // +1 skips id
				t.Fatalf("cell (%d,%d) differs: %q vs %q", r, c, den.Rows[r][c], root.Rows[r][c+1])
			}
		}
	}
}

// Property: every child row's parent_id references an existing parent id.
func TestChildForeignKeysValid(t *testing.T) {
	inner := template.Array([]*template.Node{fld()}, ';', '"')
	tm := stc(fld(), lit(` "`), inner, lit("\n"))
	db := Build(tm, recordsOf(t, tm, "a \"1;2\"\nb \"3\"\nc \"4;5;6\"\n"), 0, "r")
	parents := map[string]bool{}
	for _, row := range db.Tables[0].Rows {
		parents[row[0]] = true
	}
	for _, row := range db.Tables[1].Rows {
		if !parents[row[1]] {
			t.Fatalf("dangling parent_id %q", row[1])
		}
	}
}

// TestBuildChildTableHoldsEachList: §9.3 rebuilds a list by
// concatenating the child rows that reference its record, so the child
// table keeps every element, in order, under its record's id.
func TestBuildChildTableHoldsEachList(t *testing.T) {
	inner := template.Array([]*template.Node{fld()}, ',', ';')
	tm := stc(lit("x "), inner, lit("\n"))
	db := Build(tm, recordsOf(t, tm, "x 1,2,3;\nx 9;\n"), 0, "r")
	if got, want := render(&Database{Tables: db.Tables[1:]}), "r_list1(r): 1,1,1; 2,1,2; 3,1,3; 4,2,9;\n"; got != want {
		t.Fatalf("child table = %q, want %q", got, want)
	}
}

func TestBuildEmptyScan(t *testing.T) {
	tm := stc(fld(), lit("\n"))
	db := Build(tm, nil, 0, "empty")
	if len(db.Tables) != 1 || db.Tables[0].NumRows() != 0 {
		t.Fatalf("empty build = %+v", db.Tables)
	}
}

func TestDenormalizedEmptyFieldCells(t *testing.T) {
	tm := stc(fld(), lit(","), fld(), lit("\n"))
	den := BuildDenormalized(tm, recordsOf(t, tm, ",x\ny,\n"), 0, "r")
	if den.Rows[0][0] != "" || den.Rows[0][1] != "x" {
		t.Fatalf("row 0 = %v", den.Rows[0])
	}
	if den.Rows[1][0] != "y" || den.Rows[1][1] != "" {
		t.Fatalf("row 1 = %v", den.Rows[1])
	}
}

// TestBuildFlatNestedArrayEqualReps pins nesting the innermost Rep
// ordinals alone cannot express — they repeat across outer groups, sibling
// arrays share a parent group, a body may carry no field at all — against
// literal expected tables: every row lands under the parent row it was
// parsed inside.
func TestBuildFlatNestedArrayEqualReps(t *testing.T) {
	arr := func(sep, term byte, body ...*template.Node) *template.Node {
		return template.Array(body, sep, term)
	}
	cases := []struct {
		name string
		tm   *template.Node
		data string
		want string
	}{
		{"equal-reps", arr(' ', '\n', arr(',', ';', fld())), "a; b;\n",
			"t():" + " 1;\n" +
				"t_list1(t): 1,1; 2,1;\n" +
				"t_list2(t_list1): 1,1,a; 2,2,b;\n"},
		{"sibling-arrays-in-array", arr(' ', '\n', arr(',', ';', fld()), arr('+', '|', fld())),
			"a,b;x+y| c;z|\nd;e+f+g|\n",
			"t(): 1; 2;\n" +
				"t_list1(t): 1,1; 2,1; 3,2;\n" +
				"t_list2(t_list1): 1,1,a; 2,1,b; 3,2,c; 4,3,d;\n" +
				"t_list3(t_list1): 1,1,x; 2,1,y; 3,2,z; 4,3,e; 5,3,f; 6,3,g;\n"},
		{"three-level", arr(' ', '\n', arr('+', '|', arr(',', ';', fld()))),
			"a,b;+c;| d;|\ne;|\n",
			"t(): 1; 2;\n" +
				"t_list1(t): 1,1; 2,1; 3,2;\n" +
				"t_list2(t_list1): 1,1; 2,1; 3,2; 4,3;\n" +
				"t_list3(t_list2): 1,1,a; 2,1,b; 3,2,c; 4,3,d; 5,4,e;\n"},
		{"fieldless-body", stc(fld(), lit(":"), arr(',', ';', lit("x")), lit("\n")),
			"a:x,x,x;\nb:x;\n",
			"t(): 1,a; 2,b;\n" +
				"t_list1(t): 1,1; 2,1; 3,1; 4,2;\n"},
	}
	for _, c := range cases {
		tm := c.tm.Normalize()
		if got := render(Build(tm, recordsOf(t, tm, c.data), 0, "t")); got != c.want {
			t.Errorf("%s:\n got %q\nwant %q", c.name, got, c.want)
		}
	}
}

// TestBuildSkipsOtherTypes: the builders take a mixed-type record slice
// and lay out only the requested type.
func TestBuildSkipsOtherTypes(t *testing.T) {
	tm := stc(fld(), lit(","), fld(), lit("\n"))
	recs := recordsOf(t, tm, "a,b\nc,d\n")
	recs[0].TypeID = 1
	if got, want := render(Build(tm, recs, 0, "t")), "t(): 1,c,d;\n"; got != want {
		t.Errorf("normalized = %q, want %q", got, want)
	}
	if den := BuildDenormalized(tm, recs, 1, "t"); len(den.Rows) != 1 || den.Rows[0][0] != "a" {
		t.Errorf("denormalized rows = %v, want the one type-1 record", den.Rows)
	}
}
