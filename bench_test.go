package datamaran

// Benchmarks regenerating each table and figure of the paper's evaluation
// (§5, §6), plus the ablation benches for the design choices listed in
// DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// Workloads are scaled down so the full suite completes in minutes on one
// core; cmd/experiments runs the full-size versions and prints paper-style
// rows.

import (
	"context"
	"io"
	"testing"

	"datamaran/internal/core"
	"datamaran/internal/datagen"
	"datamaran/internal/evaluate"
	"datamaran/internal/experiments"
	"datamaran/internal/generation"
	"datamaran/internal/parser"
	"datamaran/internal/pipeline"
	"datamaran/internal/recordbreaker"
	"datamaran/internal/score"
	"datamaran/internal/template"
	"datamaran/internal/template/templatetest"
	"datamaran/internal/textio"
	"datamaran/internal/wrangler"
)

// extractCore runs the full path with discovery options only: discovery on
// all of data, then the extraction engine, through its in-memory door.
func extractCore(data []byte, opts core.Options) (*core.Result, error) {
	return pipeline.RunBytes(context.Background(), data, pipeline.Config{Core: opts})
}

// --- §5.2.1: the 25 manually collected datasets (E1) ---

func BenchmarkManualDatasets25(b *testing.B) {
	datasets := datagen.ManualDatasets(0.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok := 0
		for _, d := range datasets {
			res, err := extractCore(d.Data, core.Options{})
			if err != nil {
				continue
			}
			if evaluate.Evaluate(d.Truth, evaluate.FromCore(res)).Success {
				ok++
			}
		}
		if ok < 20 {
			b.Fatalf("only %d/25 successful", ok)
		}
	}
}

// --- Fig 14a: running time vs dataset size ---

func benchSize(b *testing.B, rows int, mode generation.SearchMode) {
	d := datagen.VCFGenetic(rows, 77)
	b.SetBytes(int64(len(d.Data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := extractCore(d.Data, core.Options{Search: mode}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig14aSizeQuarterMBExhaustive(b *testing.B) { benchSize(b, 5500, generation.Exhaustive) }
func BenchmarkFig14aSizeQuarterMBGreedy(b *testing.B)     { benchSize(b, 5500, generation.Greedy) }
func BenchmarkFig14aSizeOneMBExhaustive(b *testing.B)     { benchSize(b, 22000, generation.Exhaustive) }
func BenchmarkFig14aSizeOneMBGreedy(b *testing.B)         { benchSize(b, 22000, generation.Greedy) }

// --- Fig 14b: running time vs structural complexity ---

func benchComplexity(b *testing.B, k int, mode generation.SearchMode) {
	d := datagen.InterleavedTypes(k, 200, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := extractCore(d.Data, core.Options{Search: mode}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig14bComplexity1Exhaustive(b *testing.B) { benchComplexity(b, 1, generation.Exhaustive) }
func BenchmarkFig14bComplexity3Exhaustive(b *testing.B) { benchComplexity(b, 3, generation.Exhaustive) }
func BenchmarkFig14bComplexity6Exhaustive(b *testing.B) { benchComplexity(b, 6, generation.Exhaustive) }
func BenchmarkFig14bComplexity6Greedy(b *testing.B)     { benchComplexity(b, 6, generation.Greedy) }

// --- Fig 15: running time vs parameters ---

func benchParams(b *testing.B, opts core.Options) {
	d := datagen.LogFile2(400, 91)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := extractCore(d.Data, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig15M10(b *testing.B)  { benchParams(b, core.Options{TopM: 10}) }
func BenchmarkFig15M50(b *testing.B)  { benchParams(b, core.Options{TopM: 50}) }
func BenchmarkFig15M500(b *testing.B) { benchParams(b, core.Options{TopM: 500}) }
func BenchmarkFig15Alpha05L15(b *testing.B) {
	benchParams(b, core.Options{Alpha: 0.05, MaxSpan: 15})
}
func BenchmarkFig15Alpha20L5(b *testing.B) {
	benchParams(b, core.Options{Alpha: 0.20, MaxSpan: 5})
}

// BenchmarkNoPruning is §5.2.2's M=∞ observation (design choice 5): with
// pruning disabled every coverage-surviving candidate is evaluated.
func BenchmarkNoPruning(b *testing.B) { benchParams(b, core.Options{TopM: -1}) }

// --- Fig 16: parameter sensitivity (one representative combination) ---

func BenchmarkFig16Sensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig16Sensitivity(0.05, []int{1, 50}, io.Discard)
	}
}

// --- Fig 17: the GitHub corpus ---

func benchCorpus(b *testing.B, run func(d *datagen.Dataset)) {
	corpus := datagen.GitHubCorpus(42)
	// Two datasets per structured category keep the bench minutes-scale.
	perLabel := map[datagen.Label]int{}
	var picked []*datagen.Dataset
	for _, d := range corpus {
		if d.Label == datagen.NS || perLabel[d.Label] >= 2 {
			continue
		}
		perLabel[d.Label]++
		picked = append(picked, d)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range picked {
			run(d)
		}
	}
}

func BenchmarkFig17CorpusExhaustive(b *testing.B) {
	benchCorpus(b, func(d *datagen.Dataset) {
		extractCore(d.Data, core.Options{Search: generation.Exhaustive})
	})
}

func BenchmarkFig17CorpusGreedy(b *testing.B) {
	benchCorpus(b, func(d *datagen.Dataset) {
		extractCore(d.Data, core.Options{Search: generation.Greedy})
	})
}

func BenchmarkFig17CorpusRecordBreaker(b *testing.B) {
	benchCorpus(b, func(d *datagen.Dataset) {
		recordbreaker.Extract(d.Data, recordbreaker.Config{})
	})
}

// --- Fig 18 / §6: the simulated user study ---

func BenchmarkUserStudy(b *testing.B) {
	d := datagen.LogFile5(80, 64)
	res, err := extractCore(d.Data, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	exA := evaluate.FromCore(res)
	exB := recordbreaker.Extract(d.Data, recordbreaker.Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wrangler.PlanDatamaran(d, exA)
		wrangler.PlanRecordBreaker(d, exB)
		wrangler.PlanRaw(d)
	}
}

// --- Table 3: per-step complexity (micro benches for each step) ---

func BenchmarkTable3GenerationStep(b *testing.B) {
	d := datagen.CommaSepRecords(2000, 5)
	lines := textio.NewLines(d.Data)
	b.SetBytes(int64(len(d.Data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		generation.Generate(lines, generation.Config{})
	}
}

func BenchmarkTable3PruningStep(b *testing.B) {
	d := datagen.LogFile1(150, 5)
	cands := generation.Generate(textio.NewLines(d.Data), generation.Config{MaxCandidates: 100000})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := make([]generation.Candidate, len(cands))
		copy(c, cands)
		generation.Prune(c, 50)
	}
}

func BenchmarkTable3EvaluationStep(b *testing.B) {
	d := datagen.CommaSepRecords(2000, 5)
	lines := textio.NewLines(d.Data)
	tm := template.Array([]*template.Node{template.Field()}, ',', '\n')
	m := parser.NewMatcher(tm)
	b.SetBytes(int64(len(d.Data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		score.MDL{}.Score(m, lines)
	}
}

func BenchmarkTable3ExtractionStep(b *testing.B) {
	d := datagen.CommaSepRecords(5000, 5)
	lines := textio.NewLines(d.Data)
	tm := template.Struct(
		template.Field(), template.Lit(","), template.Field(), template.Lit(","),
		template.Field(), template.Lit(","), template.Field(), template.Lit("\n"),
	).Normalize()
	m := parser.NewMatcher(tm)
	b.SetBytes(int64(len(d.Data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Scan(lines)
	}
}

// --- Ablation: assimilation score (design choice 1) ---

func BenchmarkAblationAssimilation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AblationAssimilation(io.Discard)
	}
}

// --- Micro benches on the hot paths ---

func BenchmarkReduceCSVRow(b *testing.B) {
	toks, _ := templatetest.ExtractRecordTemplate(
		[]byte("1,2,3,4,5,6,7,8,9,10\n"), template.Lit(",").RTCharSet())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		templatetest.Reduce(toks)
	}
}

func BenchmarkReduceMultiLineWindow(b *testing.B) {
	d := datagen.ThailandDistricts(2, 3)
	toks, _ := templatetest.ExtractRecordTemplate(d.Data, template.Lit("{}\":, ").RTCharSet())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		templatetest.Reduce(toks)
	}
}

func BenchmarkPublicExtract(b *testing.B) {
	d := datagen.WebServerLog(300, 7)
	b.SetBytes(int64(len(d.Data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Extract(d.Data, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
