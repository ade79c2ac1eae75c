package refine

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"datamaran/internal/chars"
	"datamaran/internal/parser"
	"datamaran/internal/score"
	"datamaran/internal/template"
	"datamaran/internal/textio"
)

// trajectory is an MDL scorer that remembers everything it scored.
type trajectory struct {
	mdl    score.MDL
	scored []scoredTemplate
}

type scoredTemplate struct {
	tpl *template.Node
	res score.Result
}

func (tr *trajectory) Score(m *parser.Matcher, lines *textio.Lines) score.Result {
	r := tr.mdl.Score(m, lines)
	tr.scored = append(tr.scored, scoredTemplate{m.Template(), r})
	return r
}

func (tr *trajectory) ScanCache() *score.ScanCache { return tr.mdl.Cache }

// newlineInArray reports whether some array of st holds a newline in its
// body or as separator.
func newlineInArray(st *template.Node) bool {
	if st.Kind == template.KArray {
		if st.Sep == '\n' {
			return true
		}
		for _, c := range st.Children {
			if c.RTCharSet().Contains('\n') {
				return true
			}
		}
	}
	for _, c := range st.Children {
		if newlineInArray(c) {
			return true
		}
	}
	return false
}

// checkBound refines st over lines and holds CertainNoise to its claim:
// every template Refine scored on the way, and the one it returned, leaves
// at least the certain noise uncovered and so scores at least its floor.
func checkBound(t *testing.T, st *template.Node, lines *textio.Lines) {
	t.Helper()
	noise, ok := CertainNoise(st, lines, math.MaxInt)
	if newlineInArray(st) && ok {
		t.Fatalf("%v: bounded with a newline inside an array", st)
	}
	if !ok {
		return
	}
	for _, limit := range []int{0, noise / 2, noise} {
		if got, _ := CertainNoise(st, lines, limit); got != min(noise, limit) {
			t.Fatalf("%v: CertainNoise at limit %d = %d, want %d", st, limit, got, min(noise, limit))
		}
	}
	tr := &trajectory{mdl: score.MDL{Cache: score.NewScanCache()}}
	got, res := Refine(st, lines, tr)
	tr.scored = append(tr.scored, scoredTemplate{got, res})
	floor := 32 + 8*float64(noise)
	for _, s := range tr.scored {
		if left := len(lines.Data()) - s.res.Coverage; left < noise || s.res.Bits < floor {
			t.Fatalf("candidate %v: certain noise %d B (floor %v bits), but %v leaves %d B and scores %v",
				st, noise, floor, s.tpl, left, s.res.Bits)
		}
	}
}

// FuzzRefineLowerBound draws a candidate the way generation does — the
// minimal template of a span of lines under an RT-CharSet — or, with span's
// top bit set, as an array over one line's unreduced record template (a
// body with literals of its own, which reduction rarely leaves), and checks
// the bound CertainNoise computes for it against what Refine then does.
func FuzzRefineLowerBound(f *testing.F) {
	f.Add([]byte("1,2,3\n4,5,6\n7,8,9\nx\n"), ",", uint8(0), uint8(1))
	f.Add([]byte("a=b\na=b\na=b\n"+strings.Repeat("a=b,c\n", 20)), ",=", uint8(0), uint8(0x80))
	f.Add([]byte("id: 1\nval= 2\n###\nid: 3\nval= 4\nid: 5\nval= 6\n"), ":= ", uint8(1), uint8(2))
	f.Add([]byte("Apr 24 srv7 snort up\nApr 24 srv7 yum update check off\n-- mark --\n"), " ", uint8(0), uint8(1))
	f.Add([]byte("[a] 1;2;3\n[b] 4;5\n[c] 6\njunk\n[d] 7;8;9\n"), "[]; ", uint8(0), uint8(1))
	f.Add([]byte("k=1,2\nk=3,4\nk=5,6\n\nk=7,8\n"), "=,", uint8(0), uint8(3))

	f.Fuzz(func(t *testing.T, data []byte, charset string, start, span uint8) {
		if len(data) == 0 || len(data) > 2048 {
			t.Skip("refinement rescans the data per variant")
		}
		lines := textio.NewLines(data)
		from := int(start) % lines.N()
		to := min(from+1+int(span)%4, lines.N())
		rtset := chars.NewSet(charset).Intersect(chars.DefaultCandidates())
		st, _ := template.MinimalFromRecord(lines.Slice(from, to), rtset)
		if sep := strings.IndexFunc(charset, func(r rune) bool { return r < 0x80 && rtset.Contains(byte(r)) }); span&0x80 != 0 && sep >= 0 {
			body, _ := template.ExtractRecordTemplate(bytes.TrimSuffix(lines.Line(from), []byte("\n")), rtset)
			st = template.Array(body, charset[sep], '\n').Normalize()
		}
		if st == nil || st.NumFields() == 0 {
			t.Skip("no template")
		}
		checkBound(t, st, lines)
	})
}

// TestCertainNoiseRefusesDroppableSeparator is the case the bound must not
// be applied to. Unfolding (F=F,)*F=F\n at one repetition removes ',' from
// the RT-CharSet, so F=F\n matches "a=b,c" — a line no aligned match of the
// array form covers. The one-repetition records that let Refine get there
// are what CertainNoise looks for.
func TestCertainNoiseRefusesDroppableSeparator(t *testing.T) {
	lines := linesOf(strings.Repeat("a=b\n", 10) + strings.Repeat("a=b,c\n", 100))
	st := template.Array([]*template.Node{fld(), lit("="), fld()}, ',', '\n')
	if noise, ok := CertainNoise(st, lines, math.MaxInt); ok {
		t.Fatalf("bounded at %d B although ',' can drop out of the RT-CharSet", noise)
	}
	got, res := Refine(st, lines, score.MDL{})
	if want := stc(fld(), lit("="), fld(), lit("\n")); !got.Equal(want) || res.NoiseLines != 0 {
		t.Fatalf("Refine = %v with %d noise lines, want %v covering every line", got, res.NoiseLines, want)
	}
	// With the separator held by a literal as well, nothing can drop and
	// the 100 uncoverable lines are certain noise.
	held := stc(lit(","), st)
	lines = linesOf(strings.Repeat(",a=b\n", 10) + strings.Repeat(",a=b,c\n", 100))
	if noise, ok := CertainNoise(held, lines, math.MaxInt); !ok || noise != 700 {
		t.Fatalf("CertainNoise(%v) = %d, %v, want 700 B", held, noise, ok)
	}
	checkBound(t, held, lines)
}

// TestCertainNoiseCoversRotations: the stack that starts on the records'
// second line leaves the first and the last line of the run uncovered, but
// Shift may turn it into the stack that starts on their first line, which
// covers both. Only the junk line is certain.
func TestCertainNoiseCoversRotations(t *testing.T) {
	lines := linesOf("### junk\n" + strings.Repeat("id: 1\nval= 2\n", 20))
	st := stc(fld(), lit("= "), fld(), lit("\n"), fld(), lit(": "), fld(), lit("\n"))
	if own := uncoveredBytes(parser.NewMatcher(st), lines, math.MaxInt); own != len("### junk\nid: 1\nval= 2\n") {
		t.Fatalf("%v alone leaves %d B uncovered, want the junk line and the run's two ends", st, own)
	}
	if noise, ok := CertainNoise(st, lines, math.MaxInt); !ok || noise != len("### junk\n") {
		t.Fatalf("CertainNoise = %d, %v, want the junk line only", noise, ok)
	}
	checkBound(t, st, lines)
	for _, bad := range []*template.Node{
		template.Array([]*template.Node{fld(), lit("\n"), fld()}, ',', ';'),
		template.Array([]*template.Node{fld()}, '\n', ';'),
		template.Array([]*template.Node{fld()}, ',', ','),
	} {
		if _, ok := CertainNoise(bad, lines, math.MaxInt); ok {
			t.Errorf("%v: bounded", bad)
		}
	}
}

// refineInputs are candidates with the data they are refined over: CSV,
// syslog with a free-text tail, a nested array, a multi-line stack.
func refineInputs() map[string]struct {
	st    *template.Node
	lines *textio.Lines
} {
	var csv, syslog, nested, multi strings.Builder
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&csv, "%d,%d.%d,name%d\n", i, i%9, i%7, i%4)
		fmt.Fprintf(&syslog, "Apr %d 04:02:%02d srv%d snort%s\n", i%28, i%60, i%3, strings.Repeat(" word", 1+i%4))
		fmt.Fprintf(&nested, "k%d:%d,%d| k%d:%d,%d| k%d:%d|\n", i, i, i+1, i%5, i%3, i%2, i%7, i)
		fmt.Fprintf(&multi, "id: %d\nval= %d.%d\n", i, i%5, i%9)
		if i%10 == 0 {
			multi.WriteString("### noise noise noise\n")
		}
	}
	inner := template.Array([]*template.Node{fld()}, ',', '|')
	return map[string]struct {
		st    *template.Node
		lines *textio.Lines
	}{
		"csv":    {template.Array([]*template.Node{fld()}, ',', '\n'), linesOf(csv.String())},
		"syslog": {template.Array([]*template.Node{fld()}, ' ', '\n'), linesOf(syslog.String())},
		"nested": {template.Array([]*template.Node{fld(), lit(":"), inner}, ' ', '\n'), linesOf(nested.String())},
		"multi-line": {stc(template.Array([]*template.Node{fld()}, ' ', '\n'), template.Array([]*template.Node{fld()}, ' ', '\n')),
			linesOf(multi.String())},
	}
}

// BenchmarkRefineVariantScore is the unit of refinement's cost: compile one
// unfold variant, derive its scan from the kept scan of its parent and
// score it. What it allocates is the matcher and the column types the score
// keeps — nothing that grows with the data (scripts/bench_allocs.sh pins
// the ceiling).
func BenchmarkRefineVariantScore(b *testing.B) {
	in := refineInputs()["syslog"]
	scorer := score.MDL{Cache: score.NewScanCache()}
	parent, cur, _ := scorer.Cache.Lineage()
	pm := parser.NewMatcher(in.st)
	pm.ScanInto(in.lines, &parent.ScanResult)
	scorer.ScoreScan(pm, in.lines, parent, nil, parser.Derivation{})
	variants := unfoldVariants(in.st, nil, 0, allRepStats(pm, &parent.ScanResult)[0])
	if len(variants) < 2 {
		b.Fatalf("%d variants of %v", len(variants), in.st)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := variants[i%len(variants)]
		m := parser.NewMatcher(v.tpl)
		d, ok := m.DeriveScan(pm, v.unfold, in.lines, &parent.ScanResult, &cur.ScanResult)
		if !ok {
			b.Fatalf("%v: not derived", v.tpl)
		}
		if scorer.ScoreScan(m, in.lines, cur, parent, d).Records == 0 {
			b.Fatalf("%v matched nothing", v.tpl)
		}
	}
}
