package core_test

// The tests of discovery's outcome look at records, so they run the full
// path: core.Discover inside the extraction engine (internal/pipeline),
// through its in-memory door.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"datamaran/internal/core"
	"datamaran/internal/generation"
	"datamaran/internal/pipeline"
	"datamaran/internal/template"
)

// extract discovers on all of data and extracts it.
func extract(data []byte, opts core.Options) (*core.Result, error) {
	return pipeline.RunBytes(context.Background(), data, pipeline.Config{Core: opts})
}

func TestExtractEmptyInput(t *testing.T) {
	if _, err := extract(nil, core.Options{}); err != core.ErrEmptyInput {
		t.Fatalf("err = %v, want ErrEmptyInput", err)
	}
}

func TestExtractCSV(t *testing.T) {
	// Aperiodic values: periodic columns would make a multi-row stack
	// template genuinely cheaper under MDL.
	rng := rand.New(rand.NewSource(5))
	var b strings.Builder
	for i := 0; i < 150; i++ {
		fmt.Fprintf(&b, "%d,%d.%d,tag%d\n", i, rng.Intn(9), rng.Intn(7), rng.Intn(3))
	}
	res, err := extract([]byte(b.String()), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Structures) != 1 {
		t.Fatalf("structures = %d, want 1", len(res.Structures))
	}
	if res.Structures[0].Records != 150 {
		t.Fatalf("records = %d, want 150", res.Structures[0].Records)
	}
	if len(res.NoiseLines) != 0 {
		t.Fatalf("noise = %v, want none", res.NoiseLines)
	}
	// Refinement should have unfolded the CSV into a 3-column struct.
	if res.Structures[0].Template.HasArray() {
		t.Errorf("template %v still an array; unfolding failed", res.Structures[0].Template)
	}
	// Either F,F,F\n (the real number as one field) or F,F.F,F\n (the
	// '.' structural) is a valid unfolding.
	if got := len(res.Records[0].Fields); got != 3 && got != 4 {
		t.Errorf("record 0 has %d fields, want 3 or 4", got)
	}
}

func TestExtractFieldPositionsPointIntoOriginal(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&b, "%03d|%03d\n", i, i*2)
	}
	data := []byte(b.String())
	res, err := extract(data, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range res.Records {
		for _, f := range rec.Fields {
			if got := string(data[f.Start:f.End]); got != f.Value {
				t.Fatalf("field span [%d,%d) = %q, value = %q", f.Start, f.End, got, f.Value)
			}
		}
	}
}

func TestExtractMultiLineRecordsWithNoise(t *testing.T) {
	res, err := extract(multiLineNoisyInput(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Structures) == 0 {
		t.Fatal("no structures found")
	}
	s0 := res.Structures[0]
	if s0.Records < 70 {
		t.Fatalf("records = %d, want >= 70 two-line records", s0.Records)
	}
	// Every two-line record must span exactly 2 original lines.
	for _, rec := range res.Records {
		if rec.TypeID == 0 && rec.EndLine-rec.StartLine != 2 {
			t.Fatalf("record spans %d lines, want 2", rec.EndLine-rec.StartLine)
		}
	}
}

func TestExtractInterleavedTwoTypes(t *testing.T) {
	res, err := extract(interleavedTwoTypesInput(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Structures) < 2 {
		t.Fatalf("structures = %d, want 2 (interleaved types)", len(res.Structures))
	}
	counts := map[int]int{}
	total := 0
	for _, r := range res.Records {
		counts[r.TypeID]++
		total++
	}
	if counts[0] == 0 || counts[1] == 0 {
		t.Fatalf("type counts = %v, want both types populated", counts)
	}
	if total != 120 {
		t.Fatalf("total records = %d, want 120", total)
	}
	if len(res.NoiseLines) != 0 {
		t.Fatalf("noise = %d lines, want 0", len(res.NoiseLines))
	}
}

func TestExtractPureNoiseFindsNothing(t *testing.T) {
	// Unstructured text (the NS category): no structure should be
	// extracted, everything is noise.
	var b strings.Builder
	words := []string{"lorem", "ipsum", "dolor", "sit", "amet", "consectetur"}
	for i := 0; i < 60; i++ {
		// Vary word counts and punctuation so no template reaches
		// the coverage threshold.
		b.WriteString(words[i%len(words)])
		for j := 0; j < i%5; j++ {
			b.WriteString(" " + words[(i+j*3)%len(words)] + strings.Repeat("!", j%3))
		}
		b.WriteString("\n")
	}
	res, err := extract([]byte(b.String()), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Structures {
		// Any surviving structure must at least not be the trivial
		// line-splitter.
		if s.Template.String() == `F\n` {
			t.Fatalf("trivial template extracted: %v", s.Template)
		}
	}
}

func TestExtractNoiseLineIndicesAreOriginal(t *testing.T) {
	res, err := extract(junkEndsInput(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	found := map[int]bool{}
	for _, n := range res.NoiseLines {
		found[n] = true
	}
	if !found[0] || !found[201] {
		t.Fatalf("noise lines = %v, want 0 and 201 included", res.NoiseLines)
	}
}

func TestExtractGreedyMode(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&b, "[%d] status=%d\n", i, i%4)
	}
	res, err := extract([]byte(b.String()), core.Options{Search: generation.Greedy})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Structures) == 0 || res.Structures[0].Records != 100 {
		t.Fatalf("greedy extraction failed: %+v", res.Structures)
	}
}

// TestExtractTimingPopulated: a run that discovers reports every step at
// both doors of the engine, with Extraction holding discovery's residue
// walks plus the engine's own time and Refinement a part of Evaluation
// that Total does not add again; a run given its templates reports
// extraction alone.
func TestExtractTimingPopulated(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&b, "%d,%d\n", i, i)
	}
	data := []byte(b.String())
	structures, disc, err := core.Discover(context.Background(), data, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if disc.Generation <= 0 || disc.Evaluation <= 0 || disc.Extraction <= 0 {
		t.Fatalf("discovery timing not populated: %+v", disc)
	}
	if disc.Refinement <= 0 || disc.Refinement > disc.Evaluation {
		t.Fatalf("refinement %v is not a part of evaluation %v", disc.Refinement, disc.Evaluation)
	}
	if _, plain, err := core.Discover(context.Background(), data, core.Options{DisableRefinement: true}); err != nil || plain.Refinement != 0 || plain.Evaluation <= 0 {
		t.Fatalf("refinement disabled: timing = %+v (err %v), want evaluation without refinement", plain, err)
	}
	for name, run := range map[string]func() (*core.Result, error){
		"bytes":  func() (*core.Result, error) { return extract(data, core.Options{}) },
		"reader": func() (*core.Result, error) { return pipeline.Run(bytes.NewReader(data), pipeline.Config{}) },
	} {
		res, err := run()
		if err != nil {
			t.Fatal(err)
		}
		tm := res.Timing
		if tm.Generation <= 0 || tm.Evaluation <= 0 || tm.Extraction <= 0 || tm.Refinement <= 0 || tm.Refinement > tm.Evaluation {
			t.Fatalf("%s: timing not populated: %+v", name, tm)
		}
		if tm.Total() != tm.Generation+tm.Pruning+tm.Evaluation+tm.Extraction {
			t.Fatalf("%s: Total() is not the sum of the steps: %+v", name, tm)
		}
	}
	res, err := pipeline.Run(bytes.NewReader(data), pipeline.Config{Templates: templatesOf(structures)})
	if err != nil {
		t.Fatal(err)
	}
	if tm := res.Timing; tm.Generation != 0 || tm.Pruning != 0 || tm.Evaluation != 0 || tm.Refinement != 0 || tm.Extraction <= 0 {
		t.Fatalf("templates mode: timing = %+v, want extraction only", tm)
	}
}

func templatesOf(structures []core.Structure) []*template.Node {
	tpls := make([]*template.Node, len(structures))
	for i, s := range structures {
		tpls[i] = s.Template
	}
	return tpls
}

func TestExtractMaxRecordTypesBounds(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 60; i++ {
		fmt.Fprintf(&b, "A;%d\nB|%d\nC:%d\n", i, i, i)
	}
	res, err := extract([]byte(b.String()), core.Options{MaxRecordTypes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Structures) > 1 {
		t.Fatalf("structures = %d, want <= 1", len(res.Structures))
	}
}

func TestExtractRespectsMaxSpanFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second full-pipeline case")
	}
	// Records of 12 lines with L=10 and structurally distinct lines
	// (no fold, so unfolding cannot re-expand past L): the paper's
	// "long records" failure cause — the full record template cannot
	// be found.
	seps := []byte{':', '=', '|', ';', '+', '.', '!', '?', '<', '>', '&'}
	var b strings.Builder
	for i := 0; i < 40; i++ {
		for j := 0; j < 11; j++ {
			fmt.Fprintf(&b, "k%d%c %d\n", j, seps[j], i*j)
		}
		b.WriteString("#end#\n")
	}
	res, err := extract([]byte(b.String()), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Structures {
		if n := strings.Count(s.Template.String(), `\n`); n > 10 {
			t.Fatalf("template spans %d lines, beyond L=10", n)
		}
	}
}

func TestExtractDeterministic(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 80; i++ {
		fmt.Fprintf(&b, "%d|%d|%d\n", i, i*2, i*3)
	}
	r1, err := extract([]byte(b.String()), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := extract([]byte(b.String()), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Structures) != len(r2.Structures) {
		t.Fatal("non-deterministic structure count")
	}
	for i := range r1.Structures {
		if !r1.Structures[i].Template.Equal(r2.Structures[i].Template) {
			t.Fatal("non-deterministic template")
		}
	}
}

func TestExtractDisableRefinement(t *testing.T) {
	// Ablation knob: without refinement the CSV stays in array form.
	rng := rand.New(rand.NewSource(6))
	var b strings.Builder
	for i := 0; i < 120; i++ {
		fmt.Fprintf(&b, "%d,%d,%d\n", rng.Intn(100), rng.Intn(100), rng.Intn(100))
	}
	res, err := extract([]byte(b.String()), core.Options{DisableRefinement: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Structures) == 0 {
		t.Fatal("no structure")
	}
	if !res.Structures[0].Template.HasArray() {
		t.Fatalf("expected the minimal array form without refinement, got %v",
			res.Structures[0].Template)
	}
}

func TestExtractSamplingBudgets(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var b strings.Builder
	for i := 0; i < 3000; i++ {
		fmt.Fprintf(&b, "%d|%s|%d\n", rng.Intn(100000), []string{"a", "bb", "ccc"}[rng.Intn(3)], rng.Intn(999))
	}
	res, err := extract([]byte(b.String()), core.Options{SampleBudget: 8 << 10, EvalBudget: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	// Sampling must not hurt extraction: records found on the FULL data.
	if len(res.Structures) == 0 || res.Structures[0].Records != 3000 {
		t.Fatalf("sampled run extracted %+v", res.Structures)
	}
}

func TestExtractCRLFTolerance(t *testing.T) {
	// '\r' is a special character candidate: CRLF data still extracts
	// (the '\r' becomes part of the template's formatting).
	var b strings.Builder
	for i := 0; i < 80; i++ {
		fmt.Fprintf(&b, "%d,%d\r\n", i, i*2)
	}
	res, err := extract([]byte(b.String()), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Structures) == 0 || res.Structures[0].Records != 80 {
		t.Fatalf("CRLF extraction: %+v", res.Structures)
	}
}

func TestExtractSingleLineFile(t *testing.T) {
	res, err := extract([]byte("only one line, no structure\n"), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// One line cannot meet a sensible coverage story twice; whatever is
	// returned must not crash and noise+records must cover the line.
	covered := len(res.NoiseLines)
	for _, r := range res.Records {
		covered += r.EndLine - r.StartLine
	}
	if covered != 1 {
		t.Fatalf("line accounting wrong: %d", covered)
	}
}

func TestExtractRecordsAndNoisePartitionLines(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second full-pipeline case")
	}
	// Invariant: every input line is either part of exactly one record
	// or listed as noise.
	rng := rand.New(rand.NewSource(10))
	var b strings.Builder
	lines := 0
	for i := 0; i < 150; i++ {
		if rng.Intn(7) == 0 {
			b.WriteString("@@@ junk @@@\n")
			lines++
		}
		fmt.Fprintf(&b, "x=%d y=%d\n", rng.Intn(100), rng.Intn(100))
		lines++
	}
	res, err := extract([]byte(b.String()), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]int, lines)
	for _, r := range res.Records {
		for l := r.StartLine; l < r.EndLine; l++ {
			seen[l]++
		}
	}
	for _, l := range res.NoiseLines {
		seen[l]++
	}
	for l, c := range seen {
		if c != 1 {
			t.Fatalf("line %d covered %d times", l, c)
		}
	}
}

// cancelAfter reports cancelled from its (polls+1)-th Err call on.
type cancelAfter struct {
	context.Context
	polls int
}

func (c *cancelAfter) Err() error {
	if c.polls == 0 {
		return context.Canceled
	}
	c.polls--
	return nil
}

// TestDiscoverCancelledInsideGeneration: the generation step polls the
// context it is given, so a search cancelled a few charset trials into its
// first round returns ctx.Err() from there — before pruning and evaluation
// have run at all — instead of waiting the step out.
func TestDiscoverCancelledInsideGeneration(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&b, "%d,%d;%d=%d\n", i, i, i, i)
	}
	for _, search := range []generation.SearchMode{generation.Exhaustive, generation.Greedy} {
		// One poll is Discover's, before the round; the rest are trials.
		ctx := &cancelAfter{Context: context.Background(), polls: 3}
		structures, tm, err := core.Discover(ctx, []byte(b.String()), core.Options{Search: search})
		if err != context.Canceled || structures != nil {
			t.Fatalf("%v: Discover = %d structures, %v; want none, context.Canceled", search, len(structures), err)
		}
		if tm.Generation <= 0 || tm.Pruning != 0 || tm.Evaluation != 0 {
			t.Fatalf("%v: timing %+v, want the cancel to land inside generation", search, tm)
		}
	}
}
