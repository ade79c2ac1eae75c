package core

import (
	"context"

	"datamaran/internal/generation"
	"datamaran/internal/parser"
	"datamaran/internal/score"
	"datamaran/internal/template"
	"datamaran/internal/textio"
)

// Hooks for the external test package, which alone can import datagen
// (datagen → evaluate → core): the evaluation step, the evaluation step
// with refinement scanning every unfold variant afresh, and discovery with
// the evaluation step of the caller's choice.
type Evaluator = evaluator

var (
	Evaluate      Evaluator = evaluate
	EvaluateFresh Evaluator = evaluateFresh
	DiscoverWith            = discover
)

// freshScorer is the round's scorer without ScoreScan: refine.Refine gives
// it every unfold variant through Score, scanned afresh — refinement as it
// was before variant scans were derived from their parent's.
type freshScorer struct{ c *cachingScorer }

func (f freshScorer) Score(m *parser.Matcher, lines *textio.Lines) score.Result {
	return f.c.Score(m, lines)
}

func (f freshScorer) ScanCache() *score.ScanCache { return f.c.ScanCache() }

func evaluateFresh(ctx context.Context, top []generation.Candidate, lines *textio.Lines, opts Options, timing *Timing) (*template.Node, score.Result, error) {
	return evaluateWith(ctx, top, lines, opts, timing, freshScorer{newCachingScorer()})
}
