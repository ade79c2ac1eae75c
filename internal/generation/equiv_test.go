package generation_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"datamaran/internal/chars"
	"datamaran/internal/datagen"
	"datamaran/internal/generation"
	"datamaran/internal/template"
	"datamaran/internal/textio"
)

// This file pins the shape-interned engine to the reference engine in
// reference_test.go: over the datagen corpus and the fixture lake, at greedy
// and exhaustive search and MaxSpan 1/4/10, Generate must return the
// exact candidate list generateReference returns — same templates, same
// order, same Coverage and FieldBytes. This is the property that lets the
// generation hot path keep changing safely (the PR 3 pattern: the oracle
// stays frozen, the engine moves).

// equivGenInputs gathers the sweep corpus. Each input costs
// 6 configs × 2 engines, and the reference engine re-reduces every window
// from scratch, so coverage is budgeted: the full run sweeps a broad
// stride over the 100-dataset corpus, -short keeps one dataset per corpus
// stripe and one lake file per format, and the race build trims to a
// minimal cross-section (the engine is single-goroutine; race coverage
// only has to exercise the property end to end).
func equivGenInputs(t *testing.T) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	stride := 12
	if testing.Short() {
		stride = 33
	}
	if generation.RaceEnabled {
		stride = 99
	}
	for i, d := range datagen.GitHubCorpus(42) {
		if i%stride != 0 {
			continue
		}
		out[fmt.Sprintf("corpus/%02d-%s", i, d.Name)] = d.Data
	}
	lakeOnly := ""
	if testing.Short() {
		lakeOnly = "-1."
	}
	if generation.RaceEnabled {
		lakeOnly = "requests-1."
	}
	err := filepath.Walk("../../testdata/lake", func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		if lakeOnly != "" && !strings.Contains(path, lakeOnly) {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		out[path] = data
		return nil
	})
	if err != nil {
		t.Fatalf("walk testdata/lake: %v", err)
	}
	return out
}

func sortedInputNames(m map[string][]byte) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// equivConfigs is the config sweep of the oracle suite: both search modes
// at single-line, mid, and default record spans.
func equivConfigs() []generation.Config {
	var out []generation.Config
	for _, search := range []generation.SearchMode{generation.Greedy, generation.Exhaustive} {
		for _, span := range []int{1, 4, 10} {
			out = append(out, generation.Config{Search: search, MaxSpan: span})
		}
	}
	return out
}

func diffCandidates(t *testing.T, name string, cfg generation.Config, got, want []generation.Candidate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s %v span=%d: %d candidates, reference %d",
			name, cfg.Search, cfg.MaxSpan, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if !g.Template.Equal(w.Template) {
			t.Fatalf("%s %v span=%d: candidate %d template %v, reference %v",
				name, cfg.Search, cfg.MaxSpan, i, g.Template, w.Template)
		}
		if !g.CharSet.Equal(w.CharSet) {
			t.Fatalf("%s %v span=%d: candidate %d charset %v, reference %v",
				name, cfg.Search, cfg.MaxSpan, i, g.CharSet, w.CharSet)
		}
		if g.Coverage != w.Coverage || g.FieldBytes != w.FieldBytes {
			t.Fatalf("%s %v span=%d: candidate %d coverage/fieldbytes %d/%d, reference %d/%d",
				name, cfg.Search, cfg.MaxSpan, i, g.Coverage, g.FieldBytes, w.Coverage, w.FieldBytes)
		}
	}
}

func TestGenerateMatchesReferenceOnCorpus(t *testing.T) {
	inputs := equivGenInputs(t)
	for _, name := range sortedInputNames(inputs) {
		data := inputs[name]
		lines := textio.NewLines(data)
		for _, cfg := range equivConfigs() {
			got := generation.Generate(lines, cfg)
			want := generation.GenerateReference(lines, cfg)
			diffCandidates(t, name, cfg, got, want)
			requirePrunedMatches(t, name, lines, cfg, got)
		}
	}
}

// requirePrunedMatches holds GeneratePruned to its definition: at the M
// discovery keeps and at a small one, it returns Prune of the candidates
// Generate returned (all) less the structureless ones, and counts them.
func requirePrunedMatches(t *testing.T, name string, lines *textio.Lines, cfg generation.Config, all []generation.Candidate) {
	t.Helper()
	var structured []generation.Candidate
	for _, c := range all {
		if !template.Structureless(c.Template) {
			structured = append(structured, c)
		}
	}
	for _, topM := range []int{50, 3} {
		top, generated, err := generation.GeneratePruned(context.Background(), lines, cfg, topM)
		if err != nil {
			t.Fatal(err)
		}
		if generated != len(structured) {
			t.Fatalf("%s %v span=%d: GeneratePruned counts %d structured candidates, Generate returns %d",
				name, cfg.Search, cfg.MaxSpan, generated, len(structured))
		}
		diffCandidates(t, name+" pruned", cfg, top, generation.Prune(slices.Clone(structured), topM))
	}
}

// TestGenerateMatchesReferenceEdgeInputs covers the shapes the corpus
// sweep cannot: empty data, data without a trailing newline, blank lines,
// a single unterminated line of specials, and records longer than
// MaxRecordBytes.
func TestGenerateMatchesReferenceEdgeInputs(t *testing.T) {
	inputs := map[string]string{
		"empty":            "",
		"no-newline":       "a,b,c",
		"trailing-partial": "a,b\nc,d\ne,",
		"blank-lines":      "a,b\n\n\nc,d\n\n",
		"specials-only":    "-,-\n::\n-,-\n::\n",
		"one-byte":         "x",
		"newline-only":     "\n\n\n",
	}
	cfgs := append(equivConfigs(), generation.Config{MaxRecordBytes: 4}, generation.Config{Search: generation.Greedy, MaxRecordBytes: 4})
	for name, data := range inputs {
		lines := textio.NewLines([]byte(data))
		for _, cfg := range cfgs {
			got := generation.Generate(lines, cfg)
			want := generation.GenerateReference(lines, cfg)
			diffCandidates(t, name, cfg, got, want)
		}
	}
}

// TestGenerateFieldMarkByteInInput pins the candidate-set normalization:
// byte 0x01 is the engine's internal field-run mark and is stripped from
// any candidate set, so data containing 0x01 treats it as field content —
// identically in both engines — even when a pathological config lists it
// as a formatting character.
func TestGenerateFieldMarkByteInInput(t *testing.T) {
	data := []byte("a\x01b,c\nd\x01e,f\n\x01,\x01\n")
	var cands chars.Set
	cands.Add(0x01)
	cands.Add(',')
	lines := textio.NewLines(data)
	for _, cfg := range []generation.Config{
		{Candidates: cands},
		{Candidates: cands, Search: generation.Greedy},
		{},
	} {
		got := generation.Generate(lines, cfg)
		want := generation.GenerateReference(lines, cfg)
		diffCandidates(t, "field-mark-byte", cfg, got, want)
		for _, c := range got {
			if c.CharSet.Contains(0x01) || c.Template.RTCharSet().Contains(0x01) {
				t.Fatalf("0x01 leaked into a charset/template: %v under %v", c.Template, c.CharSet)
			}
		}
	}
}

// TestCharsetsTriedMatchesGenerateDriver pins the satellite fix: the
// complexity experiment drives the same search code as Generate, so the
// counts it reports are those of the real path by construction. The
// equivalence here is with the reference engine's enumeration behavior:
// greedy must stop the same round, exhaustive must enumerate the same
// subset count.
func TestCharsetsTriedMatchesGenerateDriver(t *testing.T) {
	inputs := equivGenInputs(t)
	names := sortedInputNames(inputs)
	if len(names) > 3 {
		names = names[:3]
	}
	for _, name := range names {
		lines := textio.NewLines(inputs[name])
		for _, search := range []generation.SearchMode{generation.Greedy, generation.Exhaustive} {
			n1 := generation.CharsetsTried(lines, generation.Config{Search: search})
			n2 := generation.CharsetsTried(lines, generation.Config{Search: search})
			if n1 != n2 {
				t.Fatalf("%s %v: CharsetsTried not deterministic: %d vs %d", name, search, n1, n2)
			}
			if n1 <= 0 {
				t.Fatalf("%s %v: CharsetsTried = %d", name, search, n1)
			}
		}
	}
}
