package main

import (
	"time"

	"datamaran"
	"datamaran/internal/chars"
	"datamaran/internal/datagen"
	"datamaran/internal/evaluate"
	"datamaran/internal/generation"
	"datamaran/internal/parser"
	"datamaran/internal/refine"
	"datamaran/internal/score"
	"datamaran/internal/template"
	"datamaran/internal/textio"
)

// discoverPass runs cold discovery on every dataset in memory and
// scores each result against the generator's ground truth. It returns
// the summed Extract wall time (scoring is not timed), the summed step
// timings and the number of datasets that met the paper's success
// criteria. An Extract error is a failed operation; a result that
// misses the criteria lowers accuracy and is not a failure, because the
// paper's claim is a share of datasets, not all of them. between, when
// set, runs before each dataset, outside the timed calls.
func discoverPass(sets []*datagen.Dataset, between func(), tr *tracer, o *outcome) (wall time.Duration, tm datamaran.Timing, succeeded int) {
	root := tr.start("discover.pass", 0)
	defer tr.end(root)
	for _, d := range sets {
		if between != nil {
			between()
		}
		sp := tr.start("datamaran.Extract", root)
		t0 := time.Now()
		res, err := datamaran.Extract(d.Data, datamaran.Options{Workers: 1})
		wall += time.Since(t0)
		tr.end(sp)
		o.op(err == nil, "discover %s: %v", d.Name, err)
		if err != nil {
			continue
		}
		tm.Generation += res.Timing.Generation
		tm.Pruning += res.Timing.Pruning
		tm.Evaluation += res.Timing.Evaluation
		tm.Extraction += res.Timing.Extraction
		var ex evaluate.Extraction
		for _, r := range res.Records {
			er := evaluate.ExtractedRecord{Type: r.Type, StartLine: r.StartLine, EndLine: r.EndLine}
			for _, f := range r.Fields {
				er.Fields = append(er.Fields, evaluate.Span{Start: f.Start, End: f.End})
			}
			ex.Records = append(ex.Records, er)
		}
		if evaluate.Evaluate(d.Truth, ex).Success {
			succeeded++
		}
	}
	return wall, tm, succeeded
}

// discoverMeasure takes discovery passes and reports discover_s and
// accuracy.
type discoverMeasure struct {
	sets      []*datagen.Dataset
	o         *outcome
	clock     *kernelClock
	walls     []float64
	succeeded int
}

// pass is cold discovery on every dataset; it has no warm-up. A pass
// takes seconds, so the calibration kernel is sampled between datasets.
func (m *discoverMeasure) pass(bool) {
	wall, _, ok := discoverPass(m.sets, m.clock.tick, nil, m.o)
	m.walls = append(m.walls, wall.Seconds())
	m.succeeded = ok
}

// report sets the metrics and returns the median pass time.
func (m *discoverMeasure) report() float64 {
	m.o.set("discover_s", m.walls...)
	m.o.set("accuracy", float64(m.succeeded)/float64(len(m.sets)))
	return median(m.walls)
}

// memoScorer is core's round-level caching scorer, which core does not
// export: scores memoized by template key over one shared scan cache,
// so refinement stand-alone costs what it costs inside discovery.
type memoScorer struct {
	mdl  score.MDL
	memo map[string]score.Result
}

func newMemoScorer() *memoScorer {
	return &memoScorer{mdl: score.MDL{Cache: score.NewScanCache()}, memo: map[string]score.Result{}}
}

func (m *memoScorer) Score(pm *parser.Matcher, lines *textio.Lines) score.Result {
	key := pm.Template().Key()
	if r, ok := m.memo[key]; ok {
		return r
	}
	r := m.mdl.Score(pm, lines)
	m.memo[key] = r
	return r
}

func (m *memoScorer) ScanCache() *score.ScanCache { return m.mdl.Cache }

// dropTrivial is core's unexported filter between generation and
// pruning: templates whose only formatting character is the newline,
// or that hold a free-line array, absorb any line and are never scored.
func dropTrivial(cands []generation.Candidate) []generation.Candidate {
	var nl chars.Set
	nl.Add('\n')
	out := cands[:0]
	for _, c := range cands {
		if !c.Template.RTCharSet().Minus(nl).Empty() && !template.HasFreeLineArray(c.Template) {
			out = append(out, c)
		}
	}
	return out
}

// traceDiscover runs the traced pass and then each discovery layer on
// its own, on every dataset, with core's defaults (first residue round
// only: the stand-alone numbers say what a layer costs, Result.Timing
// says what the whole multi-round search spent). It returns the traced
// pass time.
func traceDiscover(sets []*datagen.Dataset, tr *tracer, o *outcome) float64 {
	wall, tm, _ := discoverPass(sets, nil, tr, o)
	o.set("core.generation_s", tm.Generation.Seconds())
	o.set("core.pruning_s", tm.Pruning.Seconds())
	o.set("core.evaluation_s", tm.Evaluation.Seconds())
	o.set("core.extraction_s", tm.Extraction.Seconds())

	root := tr.start("discover.layers", 0)
	candidates, charsets, scored := 0, 0, 0
	for _, d := range sets {
		sp := tr.start("generation.Generate", root)
		sample := textio.Sampler{Budget: 512 << 10, Seed: 7}.Sample(d.Data)
		lines := textio.NewLines(sample)
		cands := generation.Generate(lines, generation.Config{})
		tr.end(sp)
		candidates += len(cands)
		charsets += generation.CharsetsTried(lines, generation.Config{})
		cands = dropTrivial(cands)

		evalLines := textio.NewLines(textio.Sampler{Budget: 128 << 10, Seed: 11}.Sample(d.Data))
		scorer := newMemoScorer()
		top := generation.Prune(cands, 50)
		var plain []*template.Node
		sp = tr.start("score.MDL.Score", root)
		for _, c := range top {
			if scorer.Score(parser.NewMatcher(c.Template), evalLines).Records > 0 {
				plain = append(plain, c.Template)
			}
		}
		tr.end(sp)
		scored += len(top)

		sp = tr.start("refine.Refine", root)
		for _, t := range plain {
			refine.Refine(t, evalLines, scorer)
		}
		tr.end(sp)
	}
	tr.end(root)
	o.set("generation.generate_s", tr.seconds("generation.Generate"))
	o.set("generation.candidates", float64(candidates))
	o.set("generation.charsets_tried", float64(charsets))
	o.set("score.plain_s", tr.seconds("score.MDL.Score"))
	o.set("score.templates_scored", float64(scored))
	o.set("refine.refine_s", tr.seconds("refine.Refine"))
	o.set("refine.share_of_evaluation", tr.seconds("refine.Refine")/tm.Evaluation.Seconds())
	return wall.Seconds()
}
