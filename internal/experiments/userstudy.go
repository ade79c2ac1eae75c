package experiments

import (
	"fmt"
	"io"

	"datamaran/internal/core"
	"datamaran/internal/datagen"
	"datamaran/internal/evaluate"
	"datamaran/internal/recordbreaker"
	"datamaran/internal/wrangler"
)

// StudyOutcome is one dataset row of the simulated user study.
type StudyOutcome struct {
	Dataset string
	A, B, R wrangler.Plan
}

// UserStudy reproduces §6 / Figure 18: the simulated wrangling effort to
// reach the target table from the raw file (R), the Datamaran extraction
// (A) and the RecordBreaker extraction (B) on the five study datasets
// (one single-line, two regular multi-line, two noisy multi-line).
func UserStudy(w io.Writer) []StudyOutcome {
	datasets := []*datagen.Dataset{
		datagen.WebServerLog(120, 61),
		datagen.ThailandDistricts(60, 62),
		datagen.BlogXML(50, 63),
		datagen.LogFile5(80, 64),
		datagen.LogFile2(100, 65),
	}
	names := []string{
		"1: web log (single-line)",
		"2: districts (multi-line)",
		"3: blog xml (multi-line)",
		"4: reports (noisy multi)",
		"5: jobs (noisy multi)",
	}
	fmt.Fprintf(w, "== Fig 18 / §6: simulated user study ==\n")
	var out []StudyOutcome
	var sumA, sumB, sumR float64
	for i, d := range datasets {
		res, err := extract(d.Data, core.Options{})
		var exA evaluate.Extraction
		if err == nil {
			exA = evaluate.FromCore(res)
		}
		exB := recordbreaker.Extract(d.Data, recordbreaker.Config{})
		o := StudyOutcome{
			Dataset: names[i],
			A:       wrangler.PlanDatamaran(d, exA),
			B:       wrangler.PlanRecordBreaker(d, exB),
			R:       wrangler.PlanRaw(d),
		}
		out = append(out, o)
		sumA += o.A.Difficulty()
		sumB += o.B.Difficulty()
		sumR += o.R.Difficulty()
		for _, p := range []wrangler.Plan{o.A, o.B, o.R} {
			row := wrangler.StudyRow{Dataset: names[i], Plan: p}
			fmt.Fprintf(w, "%s\n", row)
		}
	}
	n := float64(len(datasets))
	fmt.Fprintf(w, "mean difficulty (1-10): A=%.1f  B=%.1f  R=%.1f   (paper: 1.8, 7.8, 9.3)\n\n",
		sumA/n, sumB/n, sumR/n)
	return out
}
