// Package core is structure discovery (§4, Figure 9): generation →
// pruning → evaluation (with structure refinement) over a dataset, and the
// multi-record-type loop of §9.1 that re-runs the three steps on the
// unexplained residue until no structure template reaches the coverage
// threshold. Discover returns the templates it found and where the time
// went; it extracts nothing. Between rounds it shrinks the residue with a
// coverage-only walk (parser.Matcher.Residue: covered bytes counted,
// uncovered lines kept), which is all the loop needs to know about a
// template's records.
//
// Turning bytes into records — the linear extraction pass of §5.2.2 — is
// internal/pipeline's job, for slices and readers alike. This package
// keeps the types that pass produces (Result, RecordOut, FieldValue) so
// every consumer of records shares them, but builds none of them.
package core

import (
	"context"
	"errors"
	"sort"
	"time"

	"datamaran/internal/generation"
	"datamaran/internal/parser"
	"datamaran/internal/refine"
	"datamaran/internal/score"
	"datamaran/internal/template"
	"datamaran/internal/textio"
)

// Options are the parameters of discovery. The zero value selects the
// paper's defaults: α=10%, L=10, M=50, exhaustive search.
type Options struct {
	// Alpha is the minimum coverage threshold as a fraction (α).
	Alpha float64
	// MaxSpan is the maximum record span in lines (L).
	MaxSpan int
	// TopM is the number of structure templates retained after pruning
	// (M). TopM < 0 disables pruning (the M=∞ setting of §5.2.2).
	TopM int
	// Search selects exhaustive or greedy RT-CharSet enumeration.
	Search generation.SearchMode
	// MaxRecordTypes bounds the multi-record-type loop. Default 8.
	MaxRecordTypes int
	// SampleBudget caps the bytes examined by the generation step
	// (§9.1 sampling); the residue walk between rounds always runs on
	// the full dataset.
	// 0 means the default of 512 KiB; negative disables sampling.
	SampleBudget int
	// EvalBudget caps the bytes used to score and refine candidates in
	// the evaluation step. 0 means 128 KiB; negative disables sampling.
	EvalBudget int
	// DisableRefinement turns off array unfolding and structure
	// shifting (for ablation experiments).
	DisableRefinement bool
}

func (o Options) withDefaults() Options {
	if o.Alpha == 0 {
		o.Alpha = 0.10
	}
	if o.MaxSpan == 0 {
		o.MaxSpan = 10
	}
	if o.TopM == 0 {
		o.TopM = 50
	}
	if o.TopM < 0 {
		o.TopM = 0 // generation.Prune treats 0 as "keep all"
	}
	if o.MaxRecordTypes == 0 {
		o.MaxRecordTypes = 8
	}
	if o.SampleBudget == 0 {
		o.SampleBudget = 512 << 10
	}
	if o.EvalBudget == 0 {
		o.EvalBudget = 128 << 10
	}
	return o
}

// cachingScorer is the scorer of one residue round: the MDL score (§4.3),
// memoized by template key, which spares a rescore of a template the round
// already scored (the Refine of a candidate that Shift leaves as it was,
// say). It also carries the round's score.ScanCache — the arena plain
// scores scan into and the lineage storage refinement keeps its scans in —
// and scores the scans refinement derives for its unfold variants. Those
// go unmemoized: a derived scan must be scored to carry its column
// statistics forward, and a variant of one candidate is seldom another's
// (measured 1.2% of variant scores on the Table-5 analogs when they were
// memoized).
type cachingScorer struct {
	inner score.MDL
	cache map[string]score.Result
}

// newCachingScorer returns the scorer of one evaluation round, its MDL
// bound to the round's scan cache so scoring and refinement share the
// arena.
func newCachingScorer() *cachingScorer {
	return &cachingScorer{inner: score.MDL{Cache: score.NewScanCache()}, cache: map[string]score.Result{}}
}

func (c *cachingScorer) Score(m *parser.Matcher, lines *textio.Lines) score.Result {
	key := m.Key()
	if r, ok := c.cache[key]; ok {
		return r
	}
	r := c.inner.Score(m, lines)
	c.cache[key] = r
	return r
}

// ScoreScan scores a scan refinement hands over (see score.MDL.ScoreScan).
func (c *cachingScorer) ScoreScan(m *parser.Matcher, lines *textio.Lines, scan, from *score.Scan, d parser.Derivation) score.Result {
	return c.inner.ScoreScan(m, lines, scan, from, d)
}

// ScanCache exposes the round's scan cache (see refine's use).
func (c *cachingScorer) ScanCache() *score.ScanCache { return c.inner.Cache }

// FieldValue is one extracted field occurrence. It is the engine's field
// type and the public one: datamaran.Field is an alias of it, so a record
// crosses the API boundary without its fields being copied.
type FieldValue struct {
	// Column is the field's column index in its record type's template.
	// Fields inside a list share a column across repetitions.
	Column int
	// Repetition is the ordinal within a list (0 outside lists; inside
	// nested lists, the innermost repetition index).
	Repetition int
	// Start and End are byte offsets into the input.
	Start, End int
	// Value is the field text. It is a substring of its batch's record
	// text (see internal/pipeline, "Memory").
	Value string
}

// RecordOut is one extracted record, located in the original dataset.
type RecordOut struct {
	// TypeID identifies which discovered structure produced the record.
	TypeID int
	// StartLine and EndLine delimit the record's lines in the original
	// dataset, [StartLine, EndLine).
	StartLine, EndLine int
	// Fields lists the record's field values in template order.
	Fields []FieldValue
	// Arrays lists the record's array instantiations in the matcher's
	// emission order (see parser.ArrayOcc); nil when the template has no
	// array. Fields plus Arrays determine the record's nesting exactly.
	Arrays []parser.ArrayOcc
}

// Structure is one discovered record type.
type Structure struct {
	// TypeID is the structure's index in discovery order.
	TypeID int
	// Template is the refined structure template.
	Template *template.Node
	// Score is the regularity score on the (sampled) residue the
	// structure was discovered in.
	Score score.Result
	// Records is the number of records extracted on the full dataset
	// and Coverage their byte total. The extraction engine fills both;
	// Discover leaves them zero.
	Records  int
	Coverage int
	// CandidatesGenerated is K, the number of coverage-surviving
	// candidates in this round's generation step.
	CandidatesGenerated int
}

// Timing breaks the run into the steps of Table 3.
type Timing struct {
	Generation time.Duration
	Pruning    time.Duration
	Evaluation time.Duration
	// Refinement is the part of Evaluation spent inside refine.Refine;
	// the rest is plain scoring and deciding which candidates to refine.
	Refinement time.Duration
	Extraction time.Duration
}

// Total returns the summed step time (Refinement is inside Evaluation).
func (t Timing) Total() time.Duration {
	return t.Generation + t.Pruning + t.Evaluation + t.Extraction
}

// Result is the outcome of a full extraction (see internal/pipeline).
type Result struct {
	Structures []Structure
	Records    []RecordOut
	// NoiseLines lists original line indices not covered by any record.
	NoiseLines []int
	Timing     Timing
}

// ErrEmptyInput is returned when the dataset has no lines.
var ErrEmptyInput = errors.New("core: empty input")

// Discover runs structure discovery on data: per residue round one
// generation → pruning → evaluation pass, then a coverage-only walk of the
// winning template over the full residue, whose uncovered lines are the
// next round's input. It returns the structures in discovery order — the
// order the extraction engine must apply them in — and the time each step
// took; the residue walks are charged to Timing.Extraction.
//
// ctx is polled between record types, once per RT-CharSet value the
// generation step tries and before each candidate is refined, so a
// cancelled search returns ctx.Err() within one charset trial or one
// refinement.
func Discover(ctx context.Context, data []byte, opts Options) ([]Structure, Timing, error) {
	return discover(ctx, data, opts, evaluate)
}

// evaluator is the evaluation step of a residue round: it picks, among the
// round's pruned candidates and what refinement makes of them, the template
// that scores best on lines (nil when none qualifies). Discovery always
// runs evaluate; the parameter exists so the tests can run the exhaustive
// loop it replaced beside it, round by round.
type evaluator func(ctx context.Context, top []generation.Candidate, lines *textio.Lines, opts Options, timing *Timing) (*template.Node, score.Result, error)

func discover(ctx context.Context, data []byte, opts Options, eval evaluator) ([]Structure, Timing, error) {
	opts = opts.withDefaults()
	var timing Timing
	if len(data) == 0 {
		return nil, timing, ErrEmptyInput
	}
	var structures []Structure
	minCoverage := int(opts.Alpha * float64(len(data)))
	resid := data
	for typeID := 0; typeID < opts.MaxRecordTypes && len(resid) > 0; typeID++ {
		if err := ctx.Err(); err != nil {
			return nil, timing, err
		}
		// Assumption 1's threshold is α% of the *dataset*, not of the
		// shrinking residue: rescale α so leftover junk lines cannot
		// qualify as a record type once they dominate the residue.
		effAlpha := opts.Alpha * float64(len(data)) / float64(len(resid))
		if effAlpha > 1 {
			break
		}
		s, ok, err := discoverOne(ctx, resid, opts, effAlpha, &timing, eval)
		if err != nil {
			return nil, timing, err
		}
		if !ok {
			break
		}
		t0 := time.Now()
		next, _, ok := parser.NewMatcher(s.Template).Residue(textio.NewLines(resid), true, len(resid)-minCoverage)
		timing.Extraction += time.Since(t0)
		if !ok {
			break // sampling artifact: template does not hold up on the full residue
		}
		s.TypeID = typeID
		structures = append(structures, s)
		resid = next
	}
	return structures, timing, nil
}

// discoverOne runs generation, pruning and evaluation over one residue and
// returns the best refined template (false when the residue has none).
func discoverOne(ctx context.Context, residData []byte, opts Options, effAlpha float64, timing *Timing, eval evaluator) (Structure, bool, error) {
	sampler := textio.Sampler{Budget: opts.SampleBudget, Seed: 7}
	if opts.SampleBudget < 0 {
		sampler.Budget = 0
	}
	sample := sampler.Sample(residData)
	sampleLines := textio.NewLines(sample)
	evalSampler := textio.Sampler{Budget: opts.EvalBudget, Seed: 11}
	if opts.EvalBudget < 0 {
		evalSampler.Budget = 0
	}
	evalLines := textio.NewLines(evalSampler.Sample(residData))

	// Generation hands over the candidates that pass the coverage
	// threshold and impose a structure, already cut to the top M by
	// assimilation: only those become trees (see GeneratePruned).
	t0 := time.Now()
	top, generated, err := generation.GeneratePruned(ctx, sampleLines, generation.Config{
		Alpha:   effAlpha,
		MaxSpan: opts.MaxSpan,
		Search:  opts.Search,
	}, opts.TopM)
	timing.Generation += time.Since(t0)
	if err != nil {
		return Structure{}, false, err
	}
	if len(top) == 0 {
		return Structure{}, false, nil
	}

	t0 = time.Now()
	top = generation.Prune(top, opts.TopM)
	timing.Pruning += time.Since(t0)

	best, bestRes, err := eval(ctx, top, evalLines, opts, timing)
	if err != nil || best == nil {
		return Structure{}, false, err
	}
	return Structure{
		Template:            best,
		Score:               bestRes,
		CandidatesGenerated: generated,
	}, true, nil
}

// evaluate is the evaluation step (§4.3): plain-score the pruned
// candidates, refine those that can still win, keep the best. Its time goes
// to timing.Evaluation, the part inside refine.Refine to timing.Refinement
// as well.
func evaluate(ctx context.Context, top []generation.Candidate, evalLines *textio.Lines, opts Options, timing *Timing) (*template.Node, score.Result, error) {
	return evaluateWith(ctx, top, evalLines, opts, timing, newCachingScorer())
}

// evaluateWith is evaluate scoring through scorer, an MDL score.
func evaluateWith(ctx context.Context, top []generation.Candidate, evalLines *textio.Lines, opts Options, timing *Timing, scorer score.Scorer) (*template.Node, score.Result, error) {
	t0 := time.Now()
	defer func() { timing.Evaluation += time.Since(t0) }()
	// Plain-score every retained candidate.
	type scored struct {
		tpl *template.Node
		res score.Result
	}
	plain := make([]scored, 0, len(top))
	for _, cand := range top {
		r := scorer.Score(parser.NewMatcher(cand.Template), evalLines)
		if r.Records == 0 {
			continue
		}
		plain = append(plain, scored{cand.Template, r})
	}
	// Every one of them is a candidate for refinement, as in the paper;
	// sorted by plain score a good best arrives early, and from then on a
	// candidate is refined only if refinement could make it win: a
	// template that leaves NoiseBudget(bits) or more bytes of lines
	// uncovered scores bits or worse.
	sort.SliceStable(plain, func(i, j int) bool { return plain[i].res.Bits < plain[j].res.Bits })
	var best *template.Node
	var bestRes score.Result
	for _, s := range plain {
		if err := ctx.Err(); err != nil {
			return nil, score.Result{}, err
		}
		tpl, r := s.tpl, s.res
		if !opts.DisableRefinement {
			if best != nil && cannotBeat(score.MDL{}.NoiseBudget(bestRes.Bits), tpl, r, evalLines) {
				continue
			}
			tr := time.Now()
			tpl, r = refine.Refine(s.tpl, evalLines, scorer)
			timing.Refinement += time.Since(tr)
		}
		// A template that is (or refined into) a k-fold stack of a
		// shorter template describes the same data with wrong record
		// boundaries; its 1-period form is evaluated separately.
		if template.IsPeriodicStack(tpl) {
			continue
		}
		if best == nil || r.Bits < bestRes.Bits {
			best, bestRes = tpl, r
		}
	}
	return best, bestRes, nil
}

// cannotBeat reports whether nothing refinement can turn tpl into leaves
// fewer than budget bytes of lines uncovered — budget being the noise the
// best score so far leaves room for, so that refining tpl is pointless. The
// lines no template of tpl's lineage can cover (refine.CertainNoise) decide
// it; tpl's own greedy noise, known from its plain score, bounds them from
// above, so the walk runs only when that reaches the budget.
func cannotBeat(budget int, tpl *template.Node, plain score.Result, lines *textio.Lines) bool {
	if len(lines.Data())-plain.Coverage < budget {
		return false
	}
	noise, ok := refine.CertainNoise(tpl, lines, budget)
	return ok && noise >= budget
}
