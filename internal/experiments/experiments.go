// Package experiments regenerates every table and figure of the paper's
// evaluation (§5 and §6) on the synthetic dataset substrate. Each
// experiment prints rows in the shape the paper reports and returns
// structured results for programmatic checks.
//
// Absolute numbers differ from the paper (different hardware, language,
// and synthetic data); the comparisons that matter — who wins, by what
// rough factor, and where behavior changes — are the reproduction targets
// recorded in EXPERIMENTS.md.
package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"datamaran/internal/core"
	"datamaran/internal/datagen"
	"datamaran/internal/evaluate"
	"datamaran/internal/generation"
	"datamaran/internal/pipeline"
	"datamaran/internal/recordbreaker"
)

// Outcome is the result of running one system on one dataset.
type Outcome struct {
	Dataset string
	Label   datagen.Label
	Success bool
	Detail  string
	Elapsed time.Duration
	Timing  core.Timing
	Types   int
}

// extract runs the full path on an in-memory dataset: discovery on all of
// it, then the extraction engine.
func extract(data []byte, opts core.Options) (*core.Result, error) {
	return pipeline.RunBytes(context.Background(), data, pipeline.Config{Core: opts})
}

// runDatamaran extracts with the given options and evaluates success.
func runDatamaran(d *datagen.Dataset, opts core.Options) Outcome {
	t0 := time.Now()
	res, err := extract(d.Data, opts)
	out := Outcome{Dataset: d.Name, Label: d.Label, Elapsed: time.Since(t0)}
	if err != nil {
		out.Detail = err.Error()
		return out
	}
	out.Timing = res.Timing
	out.Types = len(res.Structures)
	rep := evaluate.Evaluate(d.Truth, evaluate.FromCore(res))
	out.Success = rep.Success
	out.Detail = rep.Detail
	return out
}

// runRecordBreaker runs the baseline and evaluates success.
func runRecordBreaker(d *datagen.Dataset) Outcome {
	t0 := time.Now()
	ex := recordbreaker.Extract(d.Data, recordbreaker.Config{})
	out := Outcome{Dataset: d.Name, Label: d.Label, Elapsed: time.Since(t0)}
	rep := evaluate.Evaluate(d.Truth, ex)
	out.Success = rep.Success
	out.Detail = rep.Detail
	return out
}

// Accuracy25 reproduces §5.2.1: Datamaran on the 25 manually collected
// dataset analogs with default parameters. The paper reports 25/25.
func Accuracy25(scale float64, w io.Writer) []Outcome {
	datasets := datagen.ManualDatasets(scale)
	outcomes := make([]Outcome, 0, len(datasets))
	ok := 0
	fmt.Fprintf(w, "== §5.2.1: extraction accuracy on the 25 manually collected datasets ==\n")
	fmt.Fprintf(w, "%-28s %-8s %-10s %s\n", "dataset", "result", "time", "detail")
	for _, d := range datasets {
		o := runDatamaran(d, core.Options{})
		outcomes = append(outcomes, o)
		status := "FAIL"
		if o.Success {
			status = "OK"
			ok++
		}
		fmt.Fprintf(w, "%-28s %-8s %-10s %s\n", o.Dataset, status, o.Elapsed.Round(time.Millisecond), o.Detail)
	}
	fmt.Fprintf(w, "successful: %d/%d (paper: 25/25)\n\n", ok, len(datasets))
	return outcomes
}

// CategoryStats aggregates success per corpus category.
type CategoryStats struct {
	OK, Total int
}

// Frac returns the success fraction.
func (c CategoryStats) Frac() float64 {
	if c.Total == 0 {
		return 0
	}
	return float64(c.OK) / float64(c.Total)
}

// Fig17Result holds the per-system, per-category accuracies of Fig 17b.
type Fig17Result struct {
	Exhaustive    map[datagen.Label]CategoryStats
	Greedy        map[datagen.Label]CategoryStats
	RecordBreaker map[datagen.Label]CategoryStats
}

// Overall returns a system's accuracy over structured categories.
func Overall(m map[datagen.Label]CategoryStats) float64 {
	ok, total := 0, 0
	for lbl, s := range m {
		if lbl == datagen.NS {
			continue
		}
		ok += s.OK
		total += s.Total
	}
	if total == 0 {
		return 0
	}
	return float64(ok) / float64(total)
}

// Fig17a reproduces the corpus-characteristics pie of Figure 17a.
func Fig17a(w io.Writer) map[datagen.Label]int {
	corpus := datagen.GitHubCorpus(42)
	counts := map[datagen.Label]int{}
	for _, d := range corpus {
		counts[d.Label]++
	}
	fmt.Fprintf(w, "== Fig 17a: GitHub corpus characteristics (n=%d) ==\n", len(corpus))
	fmt.Fprintf(w, "%-8s %5s   (paper)\n", "label", "count")
	paper := map[datagen.Label]int{datagen.SNI: 44, datagen.SI: 14, datagen.MNI: 13, datagen.MI: 18, datagen.NS: 11}
	for _, lbl := range []datagen.Label{datagen.SNI, datagen.SI, datagen.MNI, datagen.MI, datagen.NS} {
		fmt.Fprintf(w, "%-8s %5d   (%d)\n", lbl, counts[lbl], paper[lbl])
	}
	fmt.Fprintf(w, "multi-line: %d%% (paper 31%%), interleaved: %d%% (paper 32%%), structured: %d%% (paper 89%%)\n\n",
		counts[datagen.MNI]+counts[datagen.MI], counts[datagen.SI]+counts[datagen.MI], 100-counts[datagen.NS])
	return counts
}

// Fig17b reproduces the accuracy comparison of Figure 17b: Datamaran
// (exhaustive and greedy) versus RecordBreaker on the 100-file corpus.
// maxPerLabel limits datasets per category (0 = all) for quick runs.
func Fig17b(maxPerLabel int, w io.Writer) Fig17Result {
	corpus := datagen.GitHubCorpus(42)
	res := Fig17Result{
		Exhaustive:    map[datagen.Label]CategoryStats{},
		Greedy:        map[datagen.Label]CategoryStats{},
		RecordBreaker: map[datagen.Label]CategoryStats{},
	}
	perLabel := map[datagen.Label]int{}
	for _, d := range corpus {
		if d.Label == datagen.NS {
			continue // excluded from accuracy, as in the paper
		}
		if maxPerLabel > 0 && perLabel[d.Label] >= maxPerLabel {
			continue
		}
		perLabel[d.Label]++
		ex := runDatamaran(d, core.Options{Search: generation.Exhaustive})
		gr := runDatamaran(d, core.Options{Search: generation.Greedy})
		rb := runRecordBreaker(d)
		bump(res.Exhaustive, d.Label, ex.Success)
		bump(res.Greedy, d.Label, gr.Success)
		bump(res.RecordBreaker, d.Label, rb.Success)
	}
	fmt.Fprintf(w, "== Fig 17b: extraction accuracy on the GitHub corpus ==\n")
	fmt.Fprintf(w, "%-8s %-22s %-22s %-22s\n", "label", "Datamaran(exhaustive)", "Datamaran(greedy)", "RecordBreaker")
	paperEx := map[datagen.Label]string{datagen.SNI: "100%", datagen.SI: "85.7%", datagen.MNI: "92.3%", datagen.MI: "94.4%"}
	paperGr := map[datagen.Label]string{datagen.SNI: "100%", datagen.SI: "78.6%", datagen.MNI: "76.9%", datagen.MI: "83.3%"}
	paperRB := map[datagen.Label]string{datagen.SNI: "56.8%", datagen.SI: "7.1%", datagen.MNI: "0%", datagen.MI: "0%"}
	for _, lbl := range []datagen.Label{datagen.SNI, datagen.SI, datagen.MNI, datagen.MI} {
		fmt.Fprintf(w, "%-8s %5.1f%% (paper %-6s)  %5.1f%% (paper %-6s)  %5.1f%% (paper %-6s)\n",
			lbl,
			100*res.Exhaustive[lbl].Frac(), paperEx[lbl],
			100*res.Greedy[lbl].Frac(), paperGr[lbl],
			100*res.RecordBreaker[lbl].Frac(), paperRB[lbl])
	}
	fmt.Fprintf(w, "overall   %5.1f%% (paper 95.5%%)   %5.1f%% (paper 89.9%%)   %5.1f%% (paper 29.2%%)\n\n",
		100*Overall(res.Exhaustive), 100*Overall(res.Greedy), 100*Overall(res.RecordBreaker))
	return res
}

func bump(m map[datagen.Label]CategoryStats, lbl datagen.Label, ok bool) {
	s := m[lbl]
	s.Total++
	if ok {
		s.OK++
	}
	m[lbl] = s
}
