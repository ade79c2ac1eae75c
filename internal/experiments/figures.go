package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"datamaran/internal/core"
	"datamaran/internal/datagen"
	"datamaran/internal/generation"
	"datamaran/internal/parser"
	"datamaran/internal/refine"
	"datamaran/internal/score"
	"datamaran/internal/textio"
)

// SizePoint is one point of Figure 14a.
type SizePoint struct {
	MB         float64
	Exhaustive time.Duration
	Greedy     time.Duration
	// ExtractFrac is the fraction of exhaustive-run time spent in the
	// LL(1) extraction pass (the paper observes extraction dominating
	// for large datasets).
	ExtractFrac float64
}

// Fig14aSize reproduces Figure 14a: running time versus dataset size,
// for exhaustive and greedy search, on a VCF-shaped dataset scaled to the
// requested sizes (MB).
func Fig14aSize(sizesMB []float64, w io.Writer) []SizePoint {
	fmt.Fprintf(w, "== Fig 14a: running time vs dataset size ==\n")
	fmt.Fprintf(w, "%-8s %-14s %-14s %s\n", "size", "exhaustive", "greedy", "extraction share (exhaustive)")
	var out []SizePoint
	for _, mb := range sizesMB {
		// ~46 bytes per VCF-like row.
		rows := int(mb * float64(1<<20) / 46)
		d := datagen.VCFGenetic(rows, 77)
		ex := runDatamaran(d, core.Options{Search: generation.Exhaustive})
		gr := runDatamaran(d, core.Options{Search: generation.Greedy})
		p := SizePoint{
			MB:         d.SizeMB(),
			Exhaustive: ex.Elapsed,
			Greedy:     gr.Elapsed,
		}
		if t := ex.Timing.Total(); t > 0 {
			p.ExtractFrac = float64(ex.Timing.Extraction) / float64(t)
		}
		out = append(out, p)
		fmt.Fprintf(w, "%-8.2f %-14s %-14s %.0f%%\n", p.MB,
			p.Exhaustive.Round(time.Millisecond), p.Greedy.Round(time.Millisecond), 100*p.ExtractFrac)
	}
	fmt.Fprintf(w, "(paper: <50MB avg 17s greedy / 37s exhaustive; extraction dominates for large files)\n\n")
	return out
}

// ComplexityPoint is one point of Figure 14b.
type ComplexityPoint struct {
	Templates  int // structure templates with ≥10% coverage
	Exhaustive time.Duration
	Greedy     time.Duration
}

// Fig14bComplexity reproduces Figure 14b: running time versus structural
// complexity (number of record types interleaved in the dataset).
func Fig14bComplexity(types []int, rowsPerType int, w io.Writer) []ComplexityPoint {
	fmt.Fprintf(w, "== Fig 14b: running time vs structural complexity ==\n")
	fmt.Fprintf(w, "%-12s %-14s %-14s\n", "#templates", "exhaustive", "greedy")
	var out []ComplexityPoint
	for _, k := range types {
		d := interleavedK(k, rowsPerType, int64(500+k))
		ex := runDatamaran(d, core.Options{Search: generation.Exhaustive})
		gr := runDatamaran(d, core.Options{Search: generation.Greedy})
		p := ComplexityPoint{Templates: k, Exhaustive: ex.Elapsed, Greedy: gr.Elapsed}
		out = append(out, p)
		fmt.Fprintf(w, "%-12d %-14s %-14s\n", k,
			p.Exhaustive.Round(time.Millisecond), p.Greedy.Round(time.Millisecond))
	}
	fmt.Fprintf(w, "(paper: time grows with complexity; greedy's advantage grows too)\n\n")
	return out
}

// ParamPoint is one point of Figure 15.
type ParamPoint struct {
	Name    string
	Elapsed time.Duration
}

// Fig15Params reproduces Figure 15: the impact of M (left) and of α and L
// (right) on running time, on a two-line-record dataset.
func Fig15Params(w io.Writer) []ParamPoint {
	d := datagen.LogFile2(1500, 91)
	var out []ParamPoint
	fmt.Fprintf(w, "== Fig 15: running time vs parameters (dataset: %s, %.2f MB) ==\n", d.Name, d.SizeMB())
	for _, m := range []int{10, 50, 100, 500, 1000} {
		o := runDatamaran(d, core.Options{TopM: m})
		out = append(out, ParamPoint{fmt.Sprintf("M=%d", m), o.Elapsed})
		fmt.Fprintf(w, "%-14s %s\n", fmt.Sprintf("M=%d", m), o.Elapsed.Round(time.Millisecond))
	}
	for _, alpha := range []float64{0.05, 0.10, 0.20} {
		for _, l := range []int{5, 10, 15} {
			o := runDatamaran(d, core.Options{Alpha: alpha, MaxSpan: l})
			name := fmt.Sprintf("α=%.2f L=%d", alpha, l)
			out = append(out, ParamPoint{name, o.Elapsed})
			fmt.Fprintf(w, "%-14s %s\n", name, o.Elapsed.Round(time.Millisecond))
		}
	}
	fmt.Fprintf(w, "(paper: M dominates; larger L and smaller α cost more)\n\n")
	return out
}

// Fig16Point is one parameter combination of Figure 16.
type Fig16Point struct {
	M            int
	FoundOptimal int
	Total        int
}

// Fig16Sensitivity reproduces Figure 16: on the 25 manual analogs, the
// fraction of datasets where Datamaran finds the optimal structure (the
// best-MDL template among all templates with ≥α% coverage, computed with
// pruning disabled) as M varies, plus the fraction where the optimal
// template also has the best assimilation score (M=1).
func Fig16Sensitivity(scale float64, ms []int, w io.Writer) []Fig16Point {
	datasets := datagen.ManualDatasets(scale)
	// Reference: best template with pruning disabled.
	optimal := make([]string, len(datasets))
	for i, d := range datasets {
		found, _, err := core.Discover(context.Background(), d.Data, core.Options{TopM: -1, MaxRecordTypes: 1})
		if err == nil && len(found) > 0 {
			optimal[i] = found[0].Template.Key()
		}
	}
	fmt.Fprintf(w, "== Fig 16: %% of datasets where the optimal structure is found ==\n")
	var out []Fig16Point
	for _, m := range ms {
		found, total := 0, 0
		for i, d := range datasets {
			if optimal[i] == "" {
				continue
			}
			total++
			got, _, err := core.Discover(context.Background(), d.Data, core.Options{TopM: m, MaxRecordTypes: 1})
			if err == nil && len(got) > 0 && got[0].Template.Key() == optimal[i] {
				found++
			}
		}
		out = append(out, Fig16Point{M: m, FoundOptimal: found, Total: total})
		fmt.Fprintf(w, "M=%-6d optimal found: %d/%d (%.0f%%)\n", m, found, total, 100*float64(found)/float64(total))
	}
	fmt.Fprintf(w, "(paper: robust to M; ~40%% of datasets have the optimal at the top assimilation rank)\n\n")
	return out
}

// Table3Complexity empirically checks the step complexities of Table 3:
// generation time should be roughly flat in total size once sampling caps
// Sdata, while extraction grows linearly with Tdata.
func Table3Complexity(w io.Writer) {
	fmt.Fprintf(w, "== Table 3: step time complexity (empirical scaling check) ==\n")
	fmt.Fprintf(w, "%-8s %-12s %-12s %-12s %-12s\n", "size", "generation", "pruning", "evaluation", "extraction")
	for _, rows := range []int{4000, 8000, 16000, 32000} {
		d := datagen.VCFGenetic(rows, 7)
		o := runDatamaran(d, core.Options{SampleBudget: 64 << 10, EvalBudget: 32 << 10})
		fmt.Fprintf(w, "%-8.2f %-12s %-12s %-12s %-12s\n", d.SizeMB(),
			o.Timing.Generation.Round(time.Millisecond), o.Timing.Pruning.Round(time.Microsecond),
			o.Timing.Evaluation.Round(time.Millisecond), o.Timing.Extraction.Round(time.Millisecond))
	}
	fmt.Fprintf(w, "(paper: generation O(Sdata·L·2^c) capped by sampling, pruning O(K log K),\n")
	fmt.Fprintf(w, " evaluation O(M·Sdata), extraction O(Tdata) — the only size-dependent step)\n\n")
}

// AblationAssimilation compares pruning by the full assimilation score
// G = Cov × NonFieldCov against pruning by coverage alone (design choice
// 1 of DESIGN.md): coverage-only ranking keeps delimiter-demoting
// redundant templates ahead of the true one.
func AblationAssimilation(w io.Writer) (full, covOnly int) {
	datasets := datagen.ManualDatasets(0.15)
	fmt.Fprintf(w, "== Ablation: assimilation score vs coverage-only pruning (M=5) ==\n")
	for _, d := range datasets {
		oFull := runDatamaran(d, core.Options{TopM: 5})
		if oFull.Success {
			full++
		}
	}
	// Coverage-only: emulate by scoring candidates with FieldBytes
	// forced to zero — G degenerates to Cov². Achieved via a tiny local
	// pipeline re-run below using generation directly.
	for _, d := range datasets {
		if coverageOnlySucceeds(d) {
			covOnly++
		}
	}
	fmt.Fprintf(w, "success with G=Cov×NonFieldCov: %d/%d; with Cov only: %d/%d\n\n",
		full, len(datasets), covOnly, len(datasets))
	return full, covOnly
}

// coverageOnlySucceeds reruns a single discovery round ranking candidates
// by coverage alone, then evaluates like the normal pipeline.
func coverageOnlySucceeds(d *datagen.Dataset) bool {
	lines := textio.NewLines(d.Data)
	cands := generation.Generate(lines, generation.Config{})
	if len(cands) == 0 {
		return false
	}
	// Rank by coverage only and keep top 5.
	for i := range cands {
		cands[i].FieldBytes = 0 // G degenerates to Cov²
	}
	top := generation.Prune(cands, 5)
	best := top[0].Template
	bestRes := score.MDL{}.Score(parser.NewMatcher(best), lines)
	for _, c := range top {
		tpl, r := refine.Refine(c.Template, lines, score.MDL{})
		if r.Bits < bestRes.Bits {
			best, bestRes = tpl, r
		}
	}
	m := parser.NewMatcher(best)
	scan := m.Scan(lines)
	// Minimal success proxy: all truth records matched at their
	// boundaries.
	starts := map[int]int{}
	for _, rec := range scan.Records {
		starts[rec.StartLine] = rec.EndLine
	}
	for _, tr := range d.Truth {
		if starts[tr.StartLine] != tr.EndLine {
			return false
		}
	}
	return len(d.Truth) > 0
}

// interleavedK builds a dataset with k distinct single-line record types.
func interleavedK(k, rowsPerType int, seed int64) *datagen.Dataset {
	gens := []func(int, int64) *datagen.Dataset{}
	_ = gens
	return datagen.InterleavedTypes(k, rowsPerType, seed)
}
