package datamaran

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"datamaran/internal/datagen"
	"datamaran/internal/lake"
	"datamaran/internal/parser/parsertest"
	"datamaran/internal/template"
)

// reference is the expected extraction of data under p: the tree-walking
// oracle's residue chain (parsertest.Apply) in the public form — what
// every Extract* door of the one engine must return.
func reference(p *Profile, data []byte) *Result {
	return wrapResult(parsertest.Apply(p.templates, data))
}

// requireSameExtraction fails t unless got has want's structures, records
// and noise lines.
func requireSameExtraction(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Structures, want.Structures) {
		t.Fatalf("%s: structures differ:\n got %+v\nwant %+v", label, got.Structures, want.Structures)
	}
	if len(got.Records) != len(want.Records) {
		t.Fatalf("%s: %d records, want %d", label, len(got.Records), len(want.Records))
	}
	for i := range want.Records {
		if !reflect.DeepEqual(got.Records[i], want.Records[i]) {
			t.Fatalf("%s: record %d = %+v, want %+v", label, i, got.Records[i], want.Records[i])
		}
	}
	if len(got.NoiseLines) != len(want.NoiseLines) || (len(want.NoiseLines) > 0 && !reflect.DeepEqual(got.NoiseLines, want.NoiseLines)) {
		t.Fatalf("%s: noise lines = %v, want %v", label, got.NoiseLines, want.NoiseLines)
	}
}

// TestExtractReaderMatchesExtract checks both discovering doors — the
// slice and the reader, the latter forced through many small shards —
// against the oracle, and that they discover the same templates.
func TestExtractReaderMatchesExtract(t *testing.T) {
	datasets := []*datagen.Dataset{
		datagen.WebServerLog(400, 7),
		datagen.InterleavedTypes(2, 120, 9),
		datagen.ThailandDistricts(40, 3),
	}
	for _, d := range datasets {
		want, err := Extract(d.Data, Options{})
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		requireSameExtraction(t, d.Name+"/slice", reference(want.Profile(), d.Data), want)
		got, err := ExtractReader(bytes.NewReader(d.Data), Options{ShardSize: 512, Workers: 2})
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		requireSameExtraction(t, d.Name+"/reader", want, got)
	}
}

// tablesCSV renders tables as one comparable string.
func tablesCSV(t *testing.T, tables []*Table) string {
	t.Helper()
	var b bytes.Buffer
	for _, tab := range tables {
		fmt.Fprintf(&b, "# table %s parent %q\n", tab.Name, tab.Parent)
		if err := tab.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

// firstDiff names the first line on which two renderings disagree.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d: got %q, want %q", i, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}

// checkTableLinks asserts the normalized form's invariants: one root-table
// row per record of the type, and every child row's parent_id naming an
// existing row of its parent table.
func checkTableLinks(t *testing.T, label string, res *Result) {
	t.Helper()
	byName := map[string]*Table{}
	for _, tab := range res.TablesWith(TablesOptions{}) {
		byName[tab.Name] = tab
	}
	for _, s := range res.Structures {
		records := 0
		for _, r := range res.Records {
			if r.Type == s.Type {
				records++
			}
		}
		if root := byName[fmt.Sprintf("type%d", s.Type)]; len(root.Rows) != records {
			t.Errorf("%s: table %s has %d rows for %d records", label, root.Name, len(root.Rows), records)
		}
	}
	for _, tab := range byName {
		if tab.Parent == "" {
			continue
		}
		ids := map[string]bool{}
		for _, row := range byName[tab.Parent].Rows {
			ids[row[0]] = true
		}
		for _, row := range tab.Rows {
			if !ids[row[1]] {
				t.Errorf("%s: table %s row %s: parent_id %s names no row of %s", label, tab.Name, row[0], row[1], tab.Parent)
			}
		}
	}
}

// TestStreamedTablesMatchInMemory pins "in-memory ≡ streamed" for tables:
// applying one profile through ExtractWithProfile and through the sharded
// ExtractReaderWithProfile must give the oracle's records and
// byte-identical normalized, denormalized and typed tables at every worker
// count — on the shapes where record nesting and record contiguity are
// hardest.
func TestStreamedTablesMatchInMemory(t *testing.T) {
	fld, lit := template.Field, template.Lit
	arr := func(sep, term byte, body ...*template.Node) *template.Node {
		return template.Array(body, sep, term)
	}
	profile := func(tpls ...*template.Node) *Profile {
		for i, tpl := range tpls {
			tpls[i] = tpl.Normalize()
		}
		return newProfile(tpls)
	}
	interleaved := datagen.InterleavedTypes(2, 120, 9)
	learned, err := Extract(interleaved.Data, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		p    *Profile
		data []byte
	}{
		// A type-0 line sits between the two lines of a type-1 record, so
		// the record is contiguous only in type 0's residue.
		{"two-line type split by another type's line",
			profile(template.Struct(fld(), lit(","), fld(), lit("\n")),
				template.Struct(lit("BEGIN "), fld(), lit("\nEND "), fld(), lit("\n"))),
			bytes.Repeat([]byte("BEGIN a\nEND b\n1,2\nBEGIN c\n3,4\nEND d\nBEGIN e\nEND f\n"), 20)},
		{"sibling arrays inside an array",
			profile(arr(' ', '\n', arr(',', ';', fld()), arr('+', '|', fld()))),
			bytes.Repeat([]byte("a,b;x+y| c;z|\nd;e+f+g|\nnoise\n"), 20)},
		{"3-level nesting",
			profile(arr(' ', '\n', arr('+', '|', arr(',', ';', fld())))),
			bytes.Repeat([]byte("a,b;+c;| d;|\ne;+f,g;+h;|\n"), 20)},
		{"field-less array body",
			profile(template.Struct(fld(), lit(":"), arr(',', ';', lit("x")), lit("\n"))),
			bytes.Repeat([]byte("a:x,x,x;\nb:x;\nc:y;\n"), 20)},
		{"interleaved types", learned.Profile(), interleaved.Data},
	}
	forms := []TablesOptions{{}, {Denormalized: true}, {Typed: true}}
	for _, c := range cases {
		want, err := ExtractWithProfile(c.data, c.p)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(want.Records) == 0 {
			t.Fatalf("%s: case extracts no record", c.name)
		}
		requireSameExtraction(t, c.name+"/in-memory", reference(c.p, c.data), want)
		checkTableLinks(t, c.name+"/in-memory", want)
		for _, workers := range []int{1, 2, 8} {
			label := fmt.Sprintf("%s/workers%d", c.name, workers)
			got, err := ExtractReaderWithProfile(bytes.NewReader(c.data), c.p, Options{Workers: workers, ShardSize: 64})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			requireSameExtraction(t, label, want, got)
			checkTableLinks(t, label, got)
			for _, form := range forms {
				if w, g := tablesCSV(t, want.TablesWith(form)), tablesCSV(t, got.TablesWith(form)); w != g {
					t.Errorf("%s: %+v tables differ: %s", label, form, firstDiff(g, w))
				}
			}
		}
	}
}

// TestExtractStreamYieldsRecords checks the constant-memory public mode.
func TestExtractStreamYieldsRecords(t *testing.T) {
	d := datagen.CommaSepRecords(300, 3)
	want, err := Extract(d.Data, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var got []Record
	res, err := ExtractStream(bytes.NewReader(d.Data), Options{ShardSize: 512}, func(r Record) error {
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 0 {
		t.Errorf("Result.Records = %d, want 0", len(res.Records))
	}
	if !reflect.DeepEqual(got, want.Records) {
		t.Fatalf("streamed records differ (%d vs %d)", len(got), len(want.Records))
	}
	if !reflect.DeepEqual(res.Structures, want.Structures) {
		t.Errorf("structures differ")
	}
}

// TestExtractReaderWithProfileMatches checks single-pass profile
// application, over a slice and over a stream, against the oracle.
func TestExtractReaderWithProfileMatches(t *testing.T) {
	d := datagen.WebServerLog(500, 7)
	learned, err := Extract(d.Data, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := learned.Profile()
	sibling := datagen.WebServerLog(700, 13)
	want, err := ExtractWithProfile(sibling.Data, p)
	if err != nil {
		t.Fatal(err)
	}
	requireSameExtraction(t, "slice", reference(p, sibling.Data), want)
	got, err := ExtractReaderWithProfile(bytes.NewReader(sibling.Data), p, Options{ShardSize: 2048, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	requireSameExtraction(t, "reader", want, got)

	if _, err := ExtractReaderWithProfile(bytes.NewReader(sibling.Data), nil, Options{}); err == nil {
		t.Error("nil profile: expected error")
	}
}

// TestExtractStreamMultiLineFlag pins the callback-mode MultiLine
// reconstruction: with Records not materialized, the flag must still be
// derived from the records streaming past.
func TestExtractStreamMultiLineFlag(t *testing.T) {
	var b bytes.Buffer
	for i := 0; i < 120; i++ {
		fmt.Fprintf(&b, "BEGIN %d\nvalue= %d\nEND;\n", i, i*3)
	}
	res, err := ExtractStream(bytes.NewReader(b.Bytes()), Options{ShardSize: 256},
		func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Structures) == 0 {
		t.Fatal("no structures")
	}
	if !res.Structures[0].MultiLine {
		t.Errorf("MultiLine = false for a multi-line record type: %+v", res.Structures[0])
	}
}

// lakeCorpus returns every file of testdata/lake and one profile chaining
// the templates of all its golden-registry formats (single- and multi-line;
// each template sees the residue of those before it) — a corpus that needs
// no discovery.
func lakeCorpus(t *testing.T) (*Profile, map[string][]byte) {
	t.Helper()
	reg, err := lake.LoadRegistry(filepath.Join("testdata", "lake_golden", "registry.json"))
	if err != nil || reg.Len() == 0 {
		t.Fatalf("golden registry: %d entries, %v", reg.Len(), err)
	}
	var templates []*template.Node
	for _, e := range reg.Entries() {
		templates = append(templates, e.Templates...)
	}
	p := newProfile(templates)
	files := map[string][]byte{}
	paths, err := filepath.Glob(filepath.Join(fixtureLake, "*", "*"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("fixture lake: %d files, %v", len(paths), err)
	}
	for _, path := range paths {
		if files[path], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	return p, files
}

// TestStreamedRecordsOutliveTheRun pins the retention contract of the
// callback door: every Record handed to fn may be kept. All of them are,
// and only after the run — when each batch's scratch has been overwritten
// by every batch after it — are they compared to the oracle's; and a
// record's Fields cannot be appended into its neighbour's, though both are
// runs of one slice.
func TestStreamedRecordsOutliveTheRun(t *testing.T) {
	type input struct {
		name string
		p    *Profile
		data []byte
	}
	var inputs []input
	lakeProfile, files := lakeCorpus(t)
	for path, data := range files {
		inputs = append(inputs, input{path, lakeProfile, data})
	}
	interleaved := datagen.InterleavedTypes(2, 120, 9)
	learned, err := Extract(interleaved.Data, Options{})
	if err != nil {
		t.Fatal(err)
	}
	inputs = append(inputs, input{"interleaved types", learned.Profile(), interleaved.Data})
	nested := template.Array([]*template.Node{
		template.Array([]*template.Node{template.Array([]*template.Node{template.Field()}, ',', ';')}, '+', '|'),
	}, ' ', '\n').Normalize()
	inputs = append(inputs, input{"nested arrays", newProfile([]*template.Node{nested}),
		bytes.Repeat([]byte("a,b;+c;| d;|\ne;+f,g;+h;|\nnoise line\nk;|\n"), 100)})

	records := 0
	for _, in := range inputs {
		want := reference(in.p, in.data)
		for _, opts := range []Options{{ShardSize: 64, Workers: 8}, {}} {
			label := fmt.Sprintf("%s/shard%d", in.name, opts.ShardSize)
			byType := make([][]Record, len(in.p.templates))
			res, err := ExtractStreamWithProfile(bytes.NewReader(in.data), in.p, opts, func(r Record) error {
				byType[r.Type] = append(byType[r.Type], r)
				return nil
			})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			var kept []Record
			for _, recs := range byType {
				kept = append(kept, recs...)
			}
			res.Records = kept
			requireSameExtraction(t, label, want, res)
			for i, r := range kept {
				if cap(r.Fields) != len(r.Fields) {
					t.Fatalf("%s: record %d: Fields cap %d for len %d", label, i, cap(r.Fields), len(r.Fields))
				}
				if i+1 < len(kept) {
					_ = append(r.Fields, Field{Value: "intruder"})
					if !reflect.DeepEqual(kept[i+1], want.Records[i+1]) {
						t.Fatalf("%s: appending to record %d's Fields changed record %d", label, i, i+1)
					}
				}
			}
			records += len(kept)
		}
	}
	if records < 1000 {
		t.Fatalf("only %d records retained over all inputs: the corpus no longer exercises the contract", records)
	}
}
