package pipeline

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"datamaran/internal/core"
	"datamaran/internal/datagen"
	"datamaran/internal/parser/parsertest"
	"datamaran/internal/template"
	"datamaran/internal/textio"
)

// discoverTemplates learns the template set of data once for the resume
// tests.
func discoverTemplates(t *testing.T, data []byte) []*template.Node {
	t.Helper()
	structures, _, err := core.Discover(context.Background(), data, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(structures) == 0 {
		t.Fatal("test is vacuous: no structures")
	}
	var tpls []*template.Node
	for _, s := range structures {
		tpls = append(tpls, s.Template)
	}
	return tpls
}

// TestRunContextCancelled verifies a cancelled context aborts the run
// instead of extracting to EOF.
func TestRunContextCancelled(t *testing.T) {
	d := datagen.CommaSepRecords(500, 1)
	tpls := discoverTemplates(t, d.Data)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, bytes.NewReader(d.Data), Config{
		ShardSize: 64,
		Templates: tpls,
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestBaseOffsetsShiftCoordinates checks the resume-at-offset entry
// point: extracting a suffix with BaseLine/BaseByte set reproduces the
// whole-file reference's records and noise for that suffix, in whole-file
// coordinates.
func TestBaseOffsetsShiftCoordinates(t *testing.T) {
	d := datagen.CommaSepRecords(200, 7)
	tpls := discoverTemplates(t, d.Data)
	full := parsertest.Apply(tpls, d.Data)
	lines := textio.NewLines(d.Data)
	cutLine := lines.N() / 3
	cutByte := lines.Start(cutLine)
	got, err := Run(bytes.NewReader(d.Data[cutByte:]), Config{
		ShardSize: 256,
		Templates: tpls,
		BaseLine:  cutLine,
		BaseByte:  cutByte,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wantRecs []core.RecordOut
	for _, r := range full.Records {
		if r.StartLine >= cutLine {
			wantRecs = append(wantRecs, r)
		}
	}
	if !reflect.DeepEqual(got.Records, wantRecs) {
		t.Fatalf("resumed records = %d, want %d (first diff: %+v)",
			len(got.Records), len(wantRecs), firstDiff(got.Records, wantRecs))
	}
	var wantNoise []int
	for _, n := range full.NoiseLines {
		if n >= cutLine {
			wantNoise = append(wantNoise, n)
		}
	}
	if !reflect.DeepEqual(got.NoiseLines, wantNoise) {
		t.Fatalf("resumed noise = %v, want %v", got.NoiseLines, wantNoise)
	}
}

func firstDiff(got, want []core.RecordOut) string {
	for i := range want {
		if i >= len(got) {
			return fmt.Sprintf("missing record %d: %+v", i, want[i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			return fmt.Sprintf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
	return "extra records"
}

// TestBoundarySnapshotInvariance: requesting the stable boundary must not
// change the extraction result, and the boundary must land on a line
// start with no record of any type straddling it.
func TestBoundarySnapshotInvariance(t *testing.T) {
	inputs := map[string][]byte{
		"interleaved": datagen.InterleavedTypes(2, 120, 3).Data,
		"noisy":       noisyCommaData(300),
		"unterminated": append(datagen.CommaSepRecords(50, 2).Data,
			[]byte("7,8")...), // no trailing newline
	}
	for name, data := range inputs {
		tpls := discoverTemplates(t, data)
		want := parsertest.Apply(tpls, data)
		var b Boundary
		got, err := Run(bytes.NewReader(data), Config{
			ShardSize: 512,
			Templates: tpls,
			Boundary:  &b,
		})
		if err != nil {
			t.Fatal(err)
		}
		parsertest.RequireResultEqual(t, name+"/with-boundary", want, got)

		lines := textio.NewLines(data)
		if b.Line < 0 || b.Line > lines.N() {
			t.Fatalf("%s: boundary line %d out of range [0,%d]", name, b.Line, lines.N())
		}
		if lines.Start(b.Line) != b.Byte {
			t.Fatalf("%s: boundary byte %d != start of line %d (%d)",
				name, b.Byte, b.Line, lines.Start(b.Line))
		}
		for _, r := range got.Records {
			if r.StartLine < b.Line && r.EndLine > b.Line {
				t.Fatalf("%s: record %+v straddles boundary line %d", name, r, b.Line)
			}
		}
	}
}

func noisyCommaData(rows int) []byte {
	var sb strings.Builder
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&sb, "%d,%d,%d\n", i, i*3, i*7)
		if i%4 == 0 {
			fmt.Fprintf(&sb, "### garbage %d\n", i)
		}
	}
	return []byte(sb.String())
}

// TestBoundaryBookkeepingIsWindowBounded holds a checkpointed run's
// storage to its windows when a later record type is sparse: one type-1
// line near the top sits alone in stage 1's window, undecided until the
// input ends (a match against a window's end is deferred), while stage 0
// accepts every row after it. What the run keeps to count the records
// below the boundary must not grow with those rows: the scratch of an 8×
// longer input weighs what the 1× input's does, and the boundary still
// falls at the type-1 line with exactly the rows before it below.
func TestBoundaryBookkeepingIsWindowBounded(t *testing.T) {
	tpls := []*template.Node{
		template.Struct(template.Field(), template.Lit(","), template.Field(), template.Lit(","), template.Field(), template.Lit("\n")).Normalize(),
		template.Struct(template.Lit("# header "), template.Field(), template.Lit("\n")).Normalize(),
	}
	const before, shard = 5, 16 << 10
	input := func(rows int) []byte {
		var sb strings.Builder
		for i := 0; i < rows; i++ {
			if i == before {
				sb.WriteString("# header top\n")
			}
			fmt.Fprintf(&sb, "%d,%d,%d\n", i, i*3, i*7)
		}
		return []byte(sb.String())
	}
	footprint := func(rows int) int {
		sc := new(scratch)
		var b Boundary
		records := 0
		runIn(t, sc, input(rows), Config{Templates: tpls, ShardSize: shard, Workers: 1, Boundary: &b,
			OnBatch: func(b *Batch) error { records += b.Len(); return nil }})
		if records != rows+1 {
			t.Fatalf("%d rows: %d records, want %d", rows, records, rows+1)
		}
		if want := (Boundary{Line: before, Byte: len(input(before)), Records: []int{before, 0}}); !reflect.DeepEqual(b, want) {
			t.Fatalf("%d rows: boundary %+v, want %+v", rows, b, want)
		}
		return sc.footprint()
	}
	small, large := footprint(20000), footprint(8*20000)
	t.Logf("scratch: %d bytes at 1×, %d at 8×", small, large)
	if large > small+small/4 {
		t.Fatalf("the scratch of a checkpointed run grew from %d to %d bytes with 8× the rows", small, large)
	}
}
