package wrangler

import (
	"context"
	"testing"

	"datamaran/internal/datagen"
	"datamaran/internal/evaluate"
	"datamaran/internal/pipeline"
	"datamaran/internal/recordbreaker"
)

// studySets builds the five §6 datasets: one single-line, two regular
// multi-line, two noisy multi-line.
func studySets() []*datagen.Dataset {
	return []*datagen.Dataset{
		datagen.WebServerLog(120, 61),     // dataset 1: single line
		datagen.ThailandDistricts(60, 62), // dataset 2-3: regular multi-line
		datagen.BlogXML(50, 63),           //
		datagen.LogFile5(80, 64),          // dataset 4-5: noisy multi-line
		datagen.LogFile2(100, 65),         //
	}
}

func TestPlanRawSingleLine(t *testing.T) {
	p := PlanRaw(studySets()[0])
	if p.Failed {
		t.Fatal("raw single-line should be transformable")
	}
	if p.NumOps() == 0 {
		t.Fatal("raw transformation should need operations")
	}
}

func TestPlanRawNoisyMultiLineFails(t *testing.T) {
	p := PlanRaw(studySets()[3])
	if !p.Failed {
		t.Fatal("raw noisy multi-line should fail (no Offset period)")
	}
}

func TestPlanRawRegularMultiLineUsesOffset(t *testing.T) {
	p := PlanRaw(studySets()[1])
	if p.Failed {
		t.Fatal("regular multi-line from raw should succeed")
	}
	offsets := 0
	for _, op := range p.Ops {
		if op == Offset {
			offsets++
		}
	}
	if offsets == 0 {
		t.Fatal("expected Offset operations for multi-line reassembly")
	}
}

func TestPlanDatamaranFewestOpsNeverFails(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline over the five study datasets")
	}
	for _, d := range studySets() {
		res, err := pipeline.RunBytes(context.Background(), d.Data, pipeline.Config{})
		if err != nil {
			t.Fatal(err)
		}
		exA := evaluate.FromCore(res)
		pA := PlanDatamaran(d, exA)
		if pA.Failed {
			t.Fatalf("%s: Datamaran plan failed", d.Name)
		}
		// §6.2 notes A can still need many repeated Concatenates (its
		// output is fine-grained); the guarantee is that it never
		// fails, and only merge-type ops are required.
		for _, op := range pA.Ops {
			if op != Concatenate && op != FlashFill {
				t.Fatalf("%s: A plan uses %v; only merges expected", d.Name, op)
			}
		}
	}
}

func TestPlanRecordBreakerFailsOnNoisyMultiLine(t *testing.T) {
	d := studySets()[3]
	ex := recordbreaker.Extract(d.Data, recordbreaker.Config{})
	p := PlanRecordBreaker(d, ex)
	if !p.Failed {
		t.Fatal("RecordBreaker plan should fail on noisy multi-line data")
	}
}

func TestPlanRecordBreakerMultiLineNeedsOffsets(t *testing.T) {
	d := studySets()[1] // regular multi-line
	ex := recordbreaker.Extract(d.Data, recordbreaker.Config{})
	p := PlanRecordBreaker(d, ex)
	if p.Failed {
		t.Fatal("regular multi-line should be recoverable from B")
	}
	offsets := 0
	for _, op := range p.Ops {
		if op == Offset {
			offsets++
		}
	}
	if offsets == 0 {
		t.Fatal("B on multi-line should need Offset reassembly")
	}
}

func TestDifficultyOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline over the five study datasets")
	}
	// §6.3: average difficulty A < B < R.
	var sumA, sumB, sumR float64
	for _, d := range studySets() {
		res, err := pipeline.RunBytes(context.Background(), d.Data, pipeline.Config{})
		if err != nil {
			t.Fatal(err)
		}
		exA := evaluate.FromCore(res)
		exB := recordbreaker.Extract(d.Data, recordbreaker.Config{})
		sumA += PlanDatamaran(d, exA).Difficulty()
		sumB += PlanRecordBreaker(d, exB).Difficulty()
		sumR += PlanRaw(d).Difficulty()
	}
	if !(sumA < sumB && sumB <= sumR) {
		t.Fatalf("difficulty ordering broken: A=%v B=%v R=%v", sumA/5, sumB/5, sumR/5)
	}
}

func TestDifficultyScale(t *testing.T) {
	ok := Plan{Ops: []Op{Concatenate, Concatenate}}
	if d := ok.Difficulty(); d < 1 || d > 3 {
		t.Fatalf("2-op difficulty = %v, want small", d)
	}
	fail := Plan{Failed: true}
	if fail.Difficulty() != 10 {
		t.Fatalf("failed difficulty = %v, want 10", fail.Difficulty())
	}
}

func TestStudyRowString(t *testing.T) {
	r := StudyRow{Dataset: "d1", Plan: Plan{Source: SourceDatamaran, Ops: []Op{Concatenate}}}
	if s := r.String(); s == "" {
		t.Fatal("empty row rendering")
	}
	f := StudyRow{Dataset: "d2", Plan: Plan{Source: SourceRaw, Failed: true, Reason: "x"}}
	if s := f.String(); s == "" {
		t.Fatal("empty failure rendering")
	}
}

func TestShapeOfDetectsNoise(t *testing.T) {
	noisy := datagen.LogFile5(60, 3)
	clean := datagen.ThailandDistricts(40, 3)
	if !shapeOf(noisy).noisy {
		t.Error("LogFile5 should be detected noisy")
	}
	if shapeOf(clean).noisy {
		t.Error("ThailandDistricts should be clean")
	}
}

func TestTargetMergeOpsCountsSplits(t *testing.T) {
	d := &datagen.Dataset{
		Truth: []evaluate.TruthRecord{{
			Type: 0, StartLine: 0, EndLine: 1,
			Targets: []evaluate.Span{{Start: 0, End: 10}},
		}},
	}
	ex := evaluate.Extraction{Records: []evaluate.ExtractedRecord{{
		Type: 0, StartLine: 0, EndLine: 1,
		Fields: []evaluate.Span{{Start: 0, End: 3}, {Start: 4, End: 7}, {Start: 8, End: 10}},
	}}}
	if got := targetMergeOps(d, ex); got != 2 {
		t.Fatalf("merge ops = %d, want 2 (3 fields → 2 concats)", got)
	}
}

func TestStraddledTargetsDetected(t *testing.T) {
	d := &datagen.Dataset{
		Truth: []evaluate.TruthRecord{{
			Type: 0, StartLine: 0, EndLine: 1,
			Targets: []evaluate.Span{{Start: 5, End: 10}},
		}},
	}
	ex := evaluate.Extraction{Records: []evaluate.ExtractedRecord{{
		Type: 0, StartLine: 0, EndLine: 1,
		Fields: []evaluate.Span{{Start: 3, End: 12}},
	}}}
	if got := straddledTargets(d, ex); len(got) != 1 {
		t.Fatalf("straddled = %d, want 1", len(got))
	}
}
