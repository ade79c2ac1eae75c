package evaluate

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"datamaran/internal/pipeline"
)

func TestTargetAligned(t *testing.T) {
	cases := []struct {
		name   string
		tgt    Span
		fields []Span
		want   bool
	}{
		{"exact single field", Span{10, 20}, []Span{{10, 20}}, true},
		{"two fields inside", Span{10, 20}, []Span{{10, 14}, {15, 20}}, true},
		{"field straddles left edge", Span{10, 20}, []Span{{8, 14}}, false},
		{"field straddles right edge", Span{10, 20}, []Span{{15, 25}}, false},
		{"field swallows target", Span{10, 20}, []Span{{5, 25}}, false},
		{"no overlap at all", Span{10, 20}, []Span{{0, 5}, {25, 30}}, false},
		{"disjoint plus contained", Span{10, 20}, []Span{{0, 5}, {12, 18}}, true},
		{"field touching left boundary outside", Span{10, 20}, []Span{{5, 10}, {10, 20}}, true},
	}
	for _, c := range cases {
		if got := targetAligned(c.tgt, c.fields); got != c.want {
			t.Errorf("%s: targetAligned = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestEvaluatePerfectExtraction(t *testing.T) {
	truth := []TruthRecord{
		{Type: 0, StartLine: 0, EndLine: 1, Targets: []Span{{0, 5}}},
		{Type: 0, StartLine: 1, EndLine: 2, Targets: []Span{{10, 15}}},
	}
	ex := Extraction{Records: []ExtractedRecord{
		{Type: 0, StartLine: 0, EndLine: 1, Fields: []Span{{0, 5}, {6, 9}}},
		{Type: 0, StartLine: 1, EndLine: 2, Fields: []Span{{10, 15}, {16, 19}}},
	}}
	rep := Evaluate(truth, ex)
	if !rep.Success {
		t.Fatalf("expected success: %+v", rep)
	}
	if rep.MatchedRecords != 2 {
		t.Fatalf("MatchedRecords = %d", rep.MatchedRecords)
	}
}

func TestEvaluateMissedBoundary(t *testing.T) {
	truth := []TruthRecord{{Type: 0, StartLine: 0, EndLine: 2}}
	ex := Extraction{Records: []ExtractedRecord{
		{Type: 0, StartLine: 0, EndLine: 1}, // split the 2-line record
	}}
	rep := Evaluate(truth, ex)
	if rep.Success || rep.BoundariesOK {
		t.Fatalf("expected boundary failure: %+v", rep)
	}
}

func TestEvaluateTypeSplit(t *testing.T) {
	// One truth type extracted as two different type ids.
	truth := []TruthRecord{
		{Type: 0, StartLine: 0, EndLine: 1},
		{Type: 0, StartLine: 1, EndLine: 2},
	}
	ex := Extraction{Records: []ExtractedRecord{
		{Type: 0, StartLine: 0, EndLine: 1},
		{Type: 1, StartLine: 1, EndLine: 2},
	}}
	rep := Evaluate(truth, ex)
	if rep.TypesOK || rep.Success {
		t.Fatalf("expected type failure: %+v", rep)
	}
}

func TestEvaluateTypeMerge(t *testing.T) {
	// Two truth types extracted as one type id.
	truth := []TruthRecord{
		{Type: 0, StartLine: 0, EndLine: 1},
		{Type: 1, StartLine: 1, EndLine: 2},
	}
	ex := Extraction{Records: []ExtractedRecord{
		{Type: 5, StartLine: 0, EndLine: 1},
		{Type: 5, StartLine: 1, EndLine: 2},
	}}
	rep := Evaluate(truth, ex)
	if rep.TypesOK || rep.Success {
		t.Fatalf("expected type-merge failure: %+v", rep)
	}
}

func TestEvaluateTypeRelabelingAccepted(t *testing.T) {
	// Extracted ids need not equal truth ids — only the mapping must be
	// consistent and injective.
	truth := []TruthRecord{
		{Type: 0, StartLine: 0, EndLine: 1},
		{Type: 1, StartLine: 1, EndLine: 2},
		{Type: 0, StartLine: 2, EndLine: 3},
	}
	ex := Extraction{Records: []ExtractedRecord{
		{Type: 7, StartLine: 0, EndLine: 1},
		{Type: 3, StartLine: 1, EndLine: 2},
		{Type: 7, StartLine: 2, EndLine: 3},
	}}
	rep := Evaluate(truth, ex)
	if !rep.Success {
		t.Fatalf("relabeled types should pass: %+v", rep)
	}
}

func TestEvaluateTargetExtractedTogether(t *testing.T) {
	// Figure 13's unsuccessful case: time and IP extracted as one field.
	truth := []TruthRecord{{Type: 0, StartLine: 0, EndLine: 1,
		Targets: []Span{{1, 9}, {11, 20}}}}
	ex := Extraction{Records: []ExtractedRecord{
		{Type: 0, StartLine: 0, EndLine: 1, Fields: []Span{{1, 20}}},
	}}
	rep := Evaluate(truth, ex)
	if rep.TargetsOK || rep.Success {
		t.Fatalf("merged-targets extraction should fail: %+v", rep)
	}
	if rep.FailedTargets != 2 {
		t.Fatalf("FailedTargets = %d, want 2", rep.FailedTargets)
	}
}

func TestEvaluateFineGrainedSplitAccepted(t *testing.T) {
	// Figure 13's successful case: targets split into several fields
	// reconstructible by concatenation.
	truth := []TruthRecord{{Type: 0, StartLine: 0, EndLine: 1,
		Targets: []Span{{1, 9}}}}
	ex := Extraction{Records: []ExtractedRecord{
		{Type: 0, StartLine: 0, EndLine: 1,
			Fields: []Span{{1, 3}, {4, 6}, {7, 9}, {11, 14}}},
	}}
	rep := Evaluate(truth, ex)
	if !rep.Success {
		t.Fatalf("fine-grained extraction should pass: %+v", rep)
	}
}

func TestEvaluateEmptyTruthFails(t *testing.T) {
	rep := Evaluate(nil, Extraction{})
	if rep.Success {
		t.Fatal("no truth records should not count as success")
	}
}

func TestEvaluateExtraRecordsIgnored(t *testing.T) {
	// Extra extracted records (e.g. noise matched by accident) do not
	// break correctness as long as all truth records are found.
	truth := []TruthRecord{{Type: 0, StartLine: 0, EndLine: 1}}
	ex := Extraction{Records: []ExtractedRecord{
		{Type: 0, StartLine: 0, EndLine: 1},
		{Type: 0, StartLine: 5, EndLine: 6},
	}}
	if rep := Evaluate(truth, ex); !rep.Success {
		t.Fatalf("extra records should be tolerated: %+v", rep)
	}
}

func TestAccuracy(t *testing.T) {
	reports := []Report{{Success: true}, {Success: false}, {Success: true}, {Success: true}}
	if got := Accuracy(reports); got != 0.75 {
		t.Fatalf("Accuracy = %v, want 0.75", got)
	}
	if got := Accuracy(nil); got != 0 {
		t.Fatalf("Accuracy(nil) = %v", got)
	}
}

func TestFromCoreAndEndToEnd(t *testing.T) {
	// Full pipeline integration: build a dataset with known truth and
	// verify Evaluate passes on the real extraction.
	var b strings.Builder
	var truth []TruthRecord
	pos := 0
	for i := 0; i < 120; i++ {
		line := fmt.Sprintf("[%02d:%02d:%02d] %d.%d.%d.%d\n", i%24, i%60, (i*7)%60, i%256, (i*3)%256, (i*5)%256, (i*11)%256)
		// targets: the time (chars 1..9) and the IP (after "] ").
		timeSpan := Span{pos + 1, pos + 9}
		ipStart := pos + 11
		ipEnd := pos + len(line) - 1
		truth = append(truth, TruthRecord{
			Type: 0, StartLine: i, EndLine: i + 1,
			Targets: []Span{timeSpan, {ipStart, ipEnd}},
		})
		b.WriteString(line)
		pos += len(line)
	}
	res, err := pipeline.RunBytes(context.Background(), []byte(b.String()), pipeline.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rep := Evaluate(truth, FromCore(res))
	if !rep.Success {
		t.Fatalf("end-to-end evaluation failed: %+v\nstructures: %v", rep, res.Structures[0].Template)
	}
}

func TestEvaluateDuplicateStartLinesLastWins(t *testing.T) {
	// Two extracted records claiming the same start line: the index
	// keeps one; evaluation must not panic and must judge consistently.
	truth := []TruthRecord{{Type: 0, StartLine: 0, EndLine: 1}}
	ex := Extraction{Records: []ExtractedRecord{
		{Type: 0, StartLine: 0, EndLine: 1},
		{Type: 1, StartLine: 0, EndLine: 2},
	}}
	rep := Evaluate(truth, ex)
	_ = rep // either verdict is acceptable; the call must be total
}

func TestEvaluateTargetsWithEmptyFields(t *testing.T) {
	// Zero-length extracted fields must not satisfy target overlap.
	truth := []TruthRecord{{Type: 0, StartLine: 0, EndLine: 1,
		Targets: []Span{{5, 10}}}}
	ex := Extraction{Records: []ExtractedRecord{
		{Type: 0, StartLine: 0, EndLine: 1, Fields: []Span{{7, 7}, {5, 10}}},
	}}
	if rep := Evaluate(truth, ex); !rep.Success {
		t.Fatalf("empty field should not break containment: %+v", rep)
	}
}

func TestEvaluateManyTypesInjective(t *testing.T) {
	var truth []TruthRecord
	var ex Extraction
	for i := 0; i < 12; i++ {
		truth = append(truth, TruthRecord{Type: i % 4, StartLine: i, EndLine: i + 1})
		ex.Records = append(ex.Records, ExtractedRecord{Type: 10 + i%4, StartLine: i, EndLine: i + 1})
	}
	if rep := Evaluate(truth, ex); !rep.Success {
		t.Fatalf("4-type bijection should pass: %+v", rep)
	}
}
