package generation

import (
	"fmt"
	"strings"
	"testing"

	"datamaran/internal/template"
	"datamaran/internal/textio"
)

func linesOf(s string) *textio.Lines { return textio.NewLines([]byte(s)) }

// findTemplate reports whether cands contains a template equal to want.
func findTemplate(cands []Candidate, want *template.Node) bool {
	for _, c := range cands {
		if c.Template.Equal(want) {
			return true
		}
	}
	return false
}

func csvData(rows int) string {
	var b strings.Builder
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&b, "%d,%d,%d\n", i, i*2, i*3)
	}
	return b.String()
}

func TestGenerateFindsCSVTemplate(t *testing.T) {
	cands := Generate(linesOf(csvData(100)), Config{})
	if len(cands) == 0 {
		t.Fatal("no candidates generated")
	}
	want := template.Array([]*template.Node{template.Field()}, ',', '\n')
	if !findTemplate(cands, want) {
		t.Fatalf("minimal CSV template (F,)*F\\n not among %d candidates; first: %v",
			len(cands), cands[0].Template)
	}
}

func TestGenerateCoverageThreshold(t *testing.T) {
	// A template type covering only 2% of the data must be dropped at
	// α=10%.
	var b strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&b, "%d,%d\n", i, i)
	}
	b.WriteString("rare|line\nrare|x\n")
	cands := Generate(linesOf(b.String()), Config{Alpha: 0.10})
	rare := template.Struct(template.Field(), template.Lit("|"), template.Field(), template.Lit("\n")).Normalize()
	if findTemplate(cands, rare) {
		t.Fatal("sub-threshold template survived generation")
	}
}

func TestGenerateMultiLineTemplate(t *testing.T) {
	// Three-line records: the full multi-line template must appear.
	var b strings.Builder
	for i := 0; i < 60; i++ {
		fmt.Fprintf(&b, "BEGIN %d\nvalue=%d\nEND\n", i, i*7)
	}
	cands := Generate(linesOf(b.String()), Config{})
	// Only special characters can be literals (Assumption 2), so the
	// 3-line record template shape is: a spaced line, an '='-keyed
	// line, and a bare line — three newlines, containing '='.
	found := false
	for _, c := range cands {
		s := c.Template.String()
		if strings.Count(s, `\n`) == 3 && strings.Contains(s, "=") {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("multi-line template not generated; top candidate: %v", cands[0].Template)
	}
}

func TestGenerateSubTemplatesAlsoAppear(t *testing.T) {
	// Figure 11 source 1: subsets of a multi-line template are also
	// generated (to be pruned later by assimilation).
	var b strings.Builder
	for i := 0; i < 60; i++ {
		fmt.Fprintf(&b, "BEGIN %d\nvalue=%d\nEND\n", i, i*7)
	}
	cands := Generate(linesOf(b.String()), Config{MaxCandidates: 100000})
	sub := 0
	for _, c := range cands {
		if !strings.Contains(c.Template.String(), "BEGIN") {
			sub++
		}
	}
	if sub == 0 {
		t.Fatal("expected redundant sub-templates among candidates")
	}
}

func TestGenerateAssimilationRanksTrueTemplateFirst(t *testing.T) {
	// For a clean multi-line dataset the full template has the highest
	// assimilation score (condition (a) of Theorem 4.1).
	var b strings.Builder
	for i := 0; i < 80; i++ {
		fmt.Fprintf(&b, "[%02d:%02d] addr=%d.%d\nstatus: %s\n", i%24, i%60, i%256, i%256,
			[]string{"ok", "fail"}[i%2])
	}
	cands := Generate(linesOf(b.String()), Config{})
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	top := cands[0].Template.String()
	if strings.Count(top, `\n`) != 2 || !strings.Contains(top, "=") || !strings.Contains(top, ":") {
		t.Fatalf("top candidate %q is not the full two-line template", top)
	}
}

func TestGenerateRespectsMaxSpan(t *testing.T) {
	// Records span 4 lines; with MaxSpan=2 the full template cannot be
	// generated (the paper's "long records" failure cause).
	var b strings.Builder
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&b, "A %d\nB %d\nC %d\nD %d\n", i, i, i, i)
	}
	cands := Generate(linesOf(b.String()), Config{MaxSpan: 2, MaxCandidates: 100000})
	for _, c := range cands {
		s := c.Template.String()
		if strings.Contains(s, "A ") && strings.Contains(s, "C ") {
			t.Fatalf("template %q spans more than MaxSpan lines", s)
		}
	}
}

func TestGenerateEmptyData(t *testing.T) {
	if got := Generate(linesOf(""), Config{}); len(got) != 0 {
		t.Fatalf("empty data produced %d candidates", len(got))
	}
}

func TestGenerateNoFieldTemplatesExcluded(t *testing.T) {
	// Lines made purely of special characters yield templates with no
	// fields, which are not valid record templates (Definition 2.1).
	data := strings.Repeat("----\n", 100)
	cands := Generate(linesOf(data), Config{})
	for _, c := range cands {
		if c.Template.NumFields() == 0 {
			t.Fatalf("zero-field template %v generated", c.Template)
		}
	}
}

func TestGreedyFindsCSVTemplate(t *testing.T) {
	cands := Generate(linesOf(csvData(100)), Config{Search: Greedy})
	want := template.Array([]*template.Node{template.Field()}, ',', '\n')
	if !findTemplate(cands, want) {
		t.Fatal("greedy search missed the CSV template")
	}
}

func TestGreedyTriesFewerCharsets(t *testing.T) {
	// With c present special characters, exhaustive tries 2^c charsets
	// and greedy at most ~c²+1.
	var b strings.Builder
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&b, "[%d:%d] (%d,%d) a=%d\n", i, i, i, i, i)
	}
	lines := linesOf(b.String())
	ex := CharsetsTried(lines, Config{Search: Exhaustive})
	gr := CharsetsTried(lines, Config{Search: Greedy})
	// Present specials: [ ] : ( ) , = space → 8 chars → 256 subsets.
	if ex != 256 {
		t.Fatalf("exhaustive tried %d charsets, want 256", ex)
	}
	if gr >= ex {
		t.Fatalf("greedy tried %d charsets, not fewer than exhaustive %d", gr, ex)
	}
}

func TestPruneKeepsTopM(t *testing.T) {
	cands := []Candidate{
		{Template: template.Field(), Coverage: 100, FieldBytes: 90},
		{Template: template.Field(), Coverage: 1000, FieldBytes: 500},
		{Template: template.Field(), Coverage: 500, FieldBytes: 100},
	}
	out := Prune(cands, 2)
	if len(out) != 2 {
		t.Fatalf("Prune kept %d, want 2", len(out))
	}
	if out[0].Coverage != 1000 && out[0].Coverage != 500 {
		t.Fatalf("wrong order after prune: %+v", out)
	}
	if out[0].Assimilation() < out[1].Assimilation() {
		t.Fatal("Prune output not sorted by assimilation")
	}
}

func TestPruneZeroMeansAll(t *testing.T) {
	cands := []Candidate{
		{Template: template.Field(), Coverage: 10, FieldBytes: 5},
		{Template: template.Field(), Coverage: 20, FieldBytes: 5},
	}
	if got := Prune(cands, 0); len(got) != 2 {
		t.Fatalf("Prune(0) dropped candidates: %d", len(got))
	}
}

func TestGenerateAlphaSweepMonotone(t *testing.T) {
	// Raising α can only shrink the candidate set.
	data := csvData(50) + strings.Repeat("x|y|z\n", 20)
	prev := -1
	for _, alpha := range []float64{0.05, 0.10, 0.20, 0.40} {
		n := len(Generate(linesOf(data), Config{Alpha: alpha, MaxCandidates: 100000}))
		if prev >= 0 && n > prev {
			t.Fatalf("alpha=%v produced %d candidates, more than smaller alpha's %d", alpha, n, prev)
		}
		prev = n
	}
}

func TestGenerateInterleavedTypes(t *testing.T) {
	// Two record types interleaved (Example 2 of the paper): both
	// templates must be among the candidates.
	var b strings.Builder
	for i := 0; i < 60; i++ {
		fmt.Fprintf(&b, "GET /page/%d 200\n", i)
		if i%2 == 0 {
			fmt.Fprintf(&b, "ERR code=%d msg=%s\n", i, []string{"timeout", "refused"}[i%2/1%2])
		}
	}
	cands := Generate(linesOf(b.String()), Config{MaxCandidates: 100000})
	// Type A lines contain '/', type B lines contain '='; both shapes
	// must survive as single-line candidates.
	var hasGet, hasErr bool
	for _, c := range cands {
		s := c.Template.String()
		if strings.Count(s, `\n`) != 1 {
			continue
		}
		if strings.Contains(s, "/") {
			hasGet = true
		}
		if strings.Contains(s, "=") {
			hasErr = true
		}
	}
	if !hasGet || !hasErr {
		t.Fatalf("interleaved templates missing: GET=%v ERR=%v", hasGet, hasErr)
	}
}

func TestCandidateAssimilation(t *testing.T) {
	c := Candidate{Coverage: 100, FieldBytes: 40}
	if got := c.Assimilation(); got != 6000 {
		t.Fatalf("Assimilation = %v, want 6000", got)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	data := csvData(60)
	a := Generate(linesOf(data), Config{})
	b := Generate(linesOf(data), Config{})
	if len(a) != len(b) {
		t.Fatalf("non-deterministic candidate count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !a[i].Template.Equal(b[i].Template) {
			t.Fatalf("non-deterministic order at %d", i)
		}
	}
}

func TestCharsetCapRestrictsExhaustive(t *testing.T) {
	// 10 distinct specials with MaxExhaustive 4 → at most 16 charsets.
	var b strings.Builder
	for i := 0; i < 30; i++ {
		fmt.Fprintf(&b, "a,b;c:d|e[f]g{h}i=%d.\n", i)
	}
	n := CharsetsTried(linesOf(b.String()), Config{MaxExhaustive: 4})
	if n != 16 {
		t.Fatalf("tried %d charsets, want 16", n)
	}
}

// TestMaxSpanNonPositiveMeansDefault: a MaxSpan <= 0 is the default span
// of 10 lines, not an empty one.
func TestMaxSpanNonPositiveMeansDefault(t *testing.T) {
	lines := linesOf(csvData(30))
	want := Generate(lines, Config{})
	if len(want) == 0 {
		t.Fatal("no candidates at the default span")
	}
	for _, span := range []int{0, -1} {
		if err := sameCandidates(Generate(lines, Config{MaxSpan: span}), want); err != nil {
			t.Fatalf("MaxSpan %d: %v", span, err)
		}
	}
}
