package refine

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"datamaran/internal/parser"
	"datamaran/internal/score"
	"datamaran/internal/template"
	"datamaran/internal/textio"
)

func fld() *template.Node         { return template.Field() }
func lit(s string) *template.Node { return template.Lit(s) }
func stc(c ...*template.Node) *template.Node {
	return template.Struct(c...).Normalize()
}
func linesOf(s string) *textio.Lines { return textio.NewLines([]byte(s)) }

func TestFullUnfold(t *testing.T) {
	arr := template.Array([]*template.Node{fld()}, ',', '\n')
	got := fullUnfold(arr, 3)
	want := stc(fld(), lit(","), fld(), lit(","), fld(), lit("\n"))
	if !got.Equal(want) {
		t.Fatalf("fullUnfold = %v, want %v", got, want)
	}
}

func TestFullUnfoldSingle(t *testing.T) {
	arr := template.Array([]*template.Node{fld()}, ',', '\n')
	got := fullUnfold(arr, 1)
	want := stc(fld(), lit("\n"))
	if !got.Equal(want) {
		t.Fatalf("fullUnfold(1) = %v, want %v", got, want)
	}
}

func TestPartialUnfold(t *testing.T) {
	arr := template.Array([]*template.Node{fld()}, ' ', '\n')
	got := partialUnfold(arr, 4)
	// F F F F (F )*F\n
	want := stc(fld(), lit(" "), fld(), lit(" "), fld(), lit(" "), fld(), lit(" "),
		template.Array([]*template.Node{fld()}, ' ', '\n'))
	if !got.Equal(want) {
		t.Fatalf("partialUnfold = %v, want %v", got, want)
	}
}

func TestArrayPathsAndReplace(t *testing.T) {
	inner := template.Array([]*template.Node{fld()}, ',', '"')
	tm := stc(fld(), lit(`,"`), inner, lit(","), fld(), lit("\n"))
	paths := arrayPaths(tm)
	if len(paths) != 1 {
		t.Fatalf("arrayPaths = %v, want 1 path", paths)
	}
	if nodeAt(tm, paths[0]).Kind != template.KArray {
		t.Fatal("path does not lead to the array")
	}
	repl := replaceAt(tm, paths[0], stc(fld(), lit(","), fld(), lit(`"`)))
	if repl.HasArray() {
		t.Fatalf("replaceAt left an array: %v", repl)
	}
	if !tm.HasArray() {
		t.Fatal("replaceAt mutated the original")
	}
}

func TestRefineCSVUnfoldsToStruct(t *testing.T) {
	// §4.3.1: CSV with typed columns — (F,)*F\n should unfold to
	// F,F,F\n because the struct form scores better.
	var b strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&b, "%d,%d.%d,name%d\n", i, i%9, i%7, i%4)
	}
	lines := linesOf(b.String())
	min := template.Array([]*template.Node{fld()}, ',', '\n')
	got, res := Refine(min, lines, score.MDL{})
	want := stc(fld(), lit(","), fld(), lit(","), fld(), lit("\n"))
	if !got.Equal(want) {
		t.Fatalf("Refine = %v, want %v", got, want)
	}
	if res.Records != 200 {
		t.Fatalf("refined template matches %d records, want 200", res.Records)
	}
}

func TestRefinePartialUnfoldForSyslog(t *testing.T) {
	// §4.3.1's example: fixed fields followed by free text. The ideal
	// template is F F F F (F )*F\n obtained by partial unfolding.
	data := "" +
		"Apr 24 04:02:24 srv7 snort shutdown succeeded\n" +
		"Apr 24 04:02:24 srv7 snort startup succeeded\n" +
		"Apr 24 14:44:28 srv7 Disabling nightly yum update check\n"
	var b strings.Builder
	for i := 0; i < 50; i++ {
		b.WriteString(data)
	}
	lines := linesOf(b.String())
	min := template.Array([]*template.Node{fld()}, ' ', '\n')
	got, _ := Refine(min, lines, score.MDL{})
	// The refined template must keep an array suffix (free text length
	// varies) but may unfold a fixed prefix.
	if !got.HasArray() {
		t.Fatalf("Refine removed the array entirely: %v", got)
	}
	if got.Equal(min) {
		t.Logf("note: no partial unfold accepted; template stayed %v", got)
	}
	// Whatever the outcome, it must still match every line.
	res := score.MDL{}.Score(parser.NewMatcher(got), lines)
	if res.NoiseLines != 0 {
		t.Fatalf("refined template loses %d lines as noise", res.NoiseLines)
	}
}

func TestRefineKeepsArrayForUniformUntypedList(t *testing.T) {
	// All-identical string fields with varying counts: the array form
	// must survive (full unfold impossible, counts vary).
	var b strings.Builder
	for i := 0; i < 100; i++ {
		n := 2 + i%5
		parts := make([]string, n)
		for j := range parts {
			parts[j] = fmt.Sprintf("w%d", j)
		}
		fmt.Fprintf(&b, "%s\n", strings.Join(parts, ","))
	}
	lines := linesOf(b.String())
	min := template.Array([]*template.Node{fld()}, ',', '\n')
	got, _ := Refine(min, lines, score.MDL{})
	if !got.HasArray() {
		t.Fatalf("Refine dropped the array for variable-length lists: %v", got)
	}
}

func TestLineSegments(t *testing.T) {
	tm := stc(lit("A "), fld(), lit("\nB "), fld(), lit("\n"))
	segs := lineSegments(tm)
	if len(segs) != 2 {
		t.Fatalf("lineSegments = %d segments, want 2", len(segs))
	}
}

func TestLineSegmentsArrayTerminatedLine(t *testing.T) {
	// (F,)*F\nF;\n — the array ends line 1.
	tm := stc(template.Array([]*template.Node{fld()}, ',', '\n'), fld(), lit(";\n"))
	segs := lineSegments(tm)
	if len(segs) != 2 {
		t.Fatalf("lineSegments = %d segments, want 2", len(segs))
	}
}

func TestShiftRecoversTruePhase(t *testing.T) {
	// Records are (header, value) line pairs. The shifted template
	// (value, header) matches starting at line 1; the true phase
	// matches at line 0 and must win.
	var b strings.Builder
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&b, "H: %d\nV= %d\n", i, i*3)
	}
	lines := linesOf(b.String())
	trueTpl := stc(fld(), lit(": "), fld(), lit("\n"), fld(), lit("= "), fld(), lit("\n"))
	shifted := stc(fld(), lit("= "), fld(), lit("\n"), fld(), lit(": "), fld(), lit("\n"))
	if got := Shift(shifted, lines); !got.Equal(trueTpl) {
		t.Fatalf("Shift = %v, want %v", got, trueTpl)
	}
	// The true phase is a fixpoint.
	if got := Shift(trueTpl, lines); !got.Equal(trueTpl) {
		t.Fatalf("Shift moved the true template to %v", got)
	}
}

func TestShiftSingleLineNoop(t *testing.T) {
	tm := stc(fld(), lit(","), fld(), lit("\n"))
	lines := linesOf("a,b\nc,d\n")
	if got := Shift(tm, lines); !got.Equal(tm) {
		t.Fatalf("Shift changed a single-line template: %v", got)
	}
}

func TestShiftNoMatchAnywhere(t *testing.T) {
	tm := stc(lit("@@"), fld(), lit("\n@@"), fld(), lit("\n"))
	lines := linesOf("x\ny\nz\n")
	if got := Shift(tm, lines); !got.Equal(tm) {
		t.Fatalf("Shift changed an unmatched template: %v", got)
	}
}

func TestShiftedVariantsScoreApproxEqual(t *testing.T) {
	// §4.3.2's premise: cyclic shifts have nearly equal regularity
	// scores, so a score-based rule cannot distinguish them.
	var b strings.Builder
	for i := 0; i < 60; i++ {
		fmt.Fprintf(&b, "H: %d\nV= %d\n", i, i*3)
	}
	lines := linesOf(b.String())
	trueTpl := stc(fld(), lit(": "), fld(), lit("\n"), fld(), lit("= "), fld(), lit("\n"))
	shifted := stc(fld(), lit("= "), fld(), lit("\n"), fld(), lit(": "), fld(), lit("\n"))
	a := score.MDL{}.Score(parser.NewMatcher(trueTpl), lines)
	bRes := score.MDL{}.Score(parser.NewMatcher(shifted), lines)
	ratio := a.Bits / bRes.Bits
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("shift score ratio %v outside [0.9,1.1]: %v vs %v", ratio, a.Bits, bRes.Bits)
	}
}

func TestUnfoldVariantsForNestedArray(t *testing.T) {
	// Nested arrays: variants must be generated for the inner array
	// without panicking on value-tree navigation.
	data := strings.Repeat("1,2|3,4|5,6;\n", 50)
	lines := linesOf(data)
	inner := template.Array([]*template.Node{fld()}, ',', '|')
	// ((F,)*F|)*(F,)*F;\n is hard to build exactly; use outer over
	// groups: (F,F|)*F,F;\n via struct body.
	outer := template.Array([]*template.Node{fld(), lit(","), fld()}, '|', ';')
	tm := stc(outer, lit("\n"))
	_ = inner
	paths := arrayPaths(tm)
	if len(paths) == 0 {
		t.Fatal("no array paths found")
	}
	for _, p := range paths {
		UnfoldVariants(tm, p, lines) // must not panic
	}
}

// UnfoldVariants builds the unfolding candidates for the array node at
// path from a fresh scan of st over lines.
func UnfoldVariants(st *template.Node, path []int, lines *textio.Lines) []*template.Node {
	var out []*template.Node
	for arr, p := range arrayPaths(st) {
		if slices.Equal(p, path) {
			for _, v := range unfoldVariants(st, path, arr, repStats(st, lines)[arr]) {
				out = append(out, v.tpl)
			}
		}
	}
	return out
}

// repStats summarizes the repetition counts of st's arrays in a fresh scan
// over lines.
func repStats(st *template.Node, lines *textio.Lines) []repStat {
	m := parser.NewMatcher(st)
	return allRepStats(m, m.Scan(lines))
}

func TestRefineImprovesOrKeepsScore(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 120; i++ {
		fmt.Fprintf(&b, "%d,%d,%d,%d\n", i, i+1, i+2, i+3)
	}
	lines := linesOf(b.String())
	min := template.Array([]*template.Node{fld()}, ',', '\n')
	before := score.MDL{}.Score(parser.NewMatcher(min), lines)
	_, after := Refine(min, lines, score.MDL{})
	if after.Bits > before.Bits {
		t.Fatalf("Refine worsened the score: %v -> %v", before.Bits, after.Bits)
	}
}
