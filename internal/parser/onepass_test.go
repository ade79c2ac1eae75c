package parser_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"datamaran/internal/chars"
	"datamaran/internal/datagen"
	"datamaran/internal/parser"
	"datamaran/internal/template"
	"datamaran/internal/template/templatetest"
	"datamaran/internal/textio"
)

// onePassCase is one template over one input of the one-pass oracle test.
type onePassCase struct {
	name string
	tm   *template.Node
	data []byte
}

// onePassCases gathers the one-pass oracle test's inputs: every shape of
// flatScanCases, tiled so eight workers get ranges of their own; every
// format of the fixture lake's registry over every fixture file (formats
// meet each other's files, so noise and near-misses abound); and a datagen
// sweep — the 25 Table-5 analogs, each under a template reduced from the
// first true record of every record type, as generation builds them.
func onePassCases(t *testing.T) []onePassCase {
	t.Helper()
	var out []onePassCase
	for _, c := range flatScanCases() {
		out = append(out, onePassCase{c.name, c.tm, bytes.Repeat([]byte(c.data), 12)})
	}
	out = append(out, overlappingCases()...)

	raw, err := os.ReadFile("../../testdata/lake_golden/registry.json")
	if err != nil {
		t.Fatal(err)
	}
	var reg struct {
		Profiles []struct {
			Fingerprint string
			Templates   []json.RawMessage
		}
	}
	if err := json.Unmarshal(raw, &reg); err != nil {
		t.Fatal(err)
	}
	var formats []onePassCase
	for _, p := range reg.Profiles {
		for k, r := range p.Templates {
			n, err := template.UnmarshalNode(r)
			if err != nil {
				t.Fatal(err)
			}
			formats = append(formats, onePassCase{name: fmt.Sprintf("%s.t%d", p.Fingerprint, k), tm: n.Normalize()})
		}
	}
	err = filepath.Walk("../../testdata/lake", func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		for _, f := range formats {
			out = append(out, onePassCase{f.name + "/" + filepath.Base(path), f.tm, data})
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, d := range datagen.ManualDatasets(0.02) {
		seen := map[int]bool{}
		lines := textio.NewLines(d.Data)
		for _, r := range d.Truth {
			if seen[r.Type] {
				continue
			}
			seen[r.Type] = true
			record := lines.Slice(r.StartLine, r.EndLine)
			var rt []byte
			for _, b := range record {
				if b != '\n' && !('a' <= b && b <= 'z' || 'A' <= b && b <= 'Z' || '0' <= b && b <= '9') {
					rt = append(rt, b)
				}
			}
			toks, _ := templatetest.ExtractRecordTemplate(record, chars.NewSet(string(rt)))
			out = append(out, onePassCase{fmt.Sprintf("%s/type%d", d.Name, r.Type), templatetest.Reduce(toks), d.Data})
		}
	}
	return out
}

// overlappingCases are formats whose records start inside one another, as
// only a hand-written profile's can: three-line records every line of
// which starts one, broken by a line that starts none every eleventh line;
// and records running to the end of their group, from every line of it.
func overlappingCases() []onePassCase {
	fld, lit := template.Field, template.Lit
	var threeLines, groups bytes.Buffer
	for i := range 400 {
		if i%11 == 10 {
			threeLines.WriteString("noise\n")
		} else {
			fmt.Fprintf(&threeLines, "%d,%d\n", i, i*7)
		}
	}
	for g := range 6 {
		for i := range 40 {
			fmt.Fprintf(&groups, "g%dv%d\n", g, i)
		}
		groups.WriteString("end;\n")
	}
	return []onePassCase{
		{"overlapping/three-line records", template.Struct(
			fld(), lit(","), fld(), lit("\n"), fld(), lit(","), fld(), lit("\n"), fld(), lit(","), fld(), lit("\n")).Normalize(),
			threeLines.Bytes()},
		{"overlapping/to the group end", template.Struct(
			template.Array([]*template.Node{fld()}, '\n', ';'), lit("\n")).Normalize(), groups.Bytes()},
	}
}

// TestMatchLinesMatchesTwoPass holds the one-pass candidate form to the two
// passes it replaced: at one, two and eight workers, over windows cut at
// the end of the input and mid-line (so mid-record, with truncated
// attempts), every line's candidate equals the validate pass's
// (MatchCandidateEnds), and the occurrences read back for every line that
// starts a record — kept, or restored when shadowed — equal AppendRecord's
// for it; a line that starts none has none. One Candidates is reused
// throughout, as the engine reuses it batch after batch.
func TestMatchLinesMatchesTwoPass(t *testing.T) {
	var c parser.Candidates
	matched := 0
	cases := onePassCases(t)
	for _, oc := range cases {
		m := parser.NewMatcher(oc.tm)
		for _, cut := range []int{len(oc.data), len(oc.data)*2/3 + 1, len(oc.data) / 3} {
			lines := textio.NewLines(oc.data[:cut])
			want := m.MatchCandidateEnds(lines, 0, lines.N(), 1)
			for _, workers := range []int{1, 2, 8} {
				label := fmt.Sprintf("%s/cut%d/workers%d", oc.name, cut, workers)
				m.MatchLines(&c, lines, workers)
				ends := c.Ends()
				m.Restore(&c, lines, recordStarts(ends))
				if len(ends) != len(want) {
					t.Fatalf("%s: %d candidates, want %d", label, len(ends), len(want))
				}
				for i, w := range want {
					got := ends[i]
					if got.EndLine != w.EndLine || got.End != w.End || got.Truncated != w.Truncated {
						t.Fatalf("%s: line %d: candidate %+v, validate pass %+v", label, i, got, w)
					}
					var wantFields []parser.FieldOcc
					var wantArrays []parser.ArrayOcc
					if w.EndLine > 0 {
						matched++
						var ok bool
						wantFields, wantArrays, ok = m.AppendRecord(lines.Data(), lines.Start(i), nil, nil)
						if !ok {
							t.Fatalf("%s: line %d: AppendRecord refuses a validated record", label, i)
						}
					}
					if !slices.Equal(c.Fields(i), wantFields) || !slices.Equal(c.Arrays(i), wantArrays) {
						t.Fatalf("%s: line %d: kept %v %v, AppendRecord %v %v", label, i, c.Fields(i), c.Arrays(i), wantFields, wantArrays)
					}
				}
			}
		}
	}
	if matched == 0 {
		t.Fatal("test is vacuous: no line started a record")
	}
	t.Logf("%d cases, %d line matches checked", len(cases), matched)
}

// recordStarts lists the lines that start records, so a test can restore
// the occurrences of every shadowed one.
func recordStarts(ends []parser.CandEnd) []int {
	var out []int
	for i, e := range ends {
		if e.EndLine > 0 {
			out = append(out, i)
		}
	}
	return out
}
