// Package core orchestrates the Datamaran pipeline (§4, Figure 9):
// generation → pruning → evaluation (with structure refinement), followed
// by the linear-time extraction pass, and the multi-record-type loop of
// §9.1 that re-runs the pipeline on the unexplained residue until no
// structure template reaches the coverage threshold.
package core

import (
	"errors"
	"sort"
	"time"

	"datamaran/internal/chars"
	"datamaran/internal/generation"
	"datamaran/internal/parser"
	"datamaran/internal/refine"
	"datamaran/internal/score"
	"datamaran/internal/template"
	"datamaran/internal/textio"
)

// Options are the user-facing parameters of the pipeline. The zero value
// selects the paper's defaults: α=10%, L=10, M=50, exhaustive search.
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
	// (§9.1 sampling); extraction always runs on the full dataset.
	// 0 means the default of 512 KiB; negative disables sampling.
	SampleBudget int
	// EvalBudget caps the bytes used to score and refine candidates in
	// the evaluation step. 0 means 128 KiB; negative disables sampling.
	EvalBudget int
	// Scorer is the regularity score; nil means score.MDL{}.
	Scorer score.Scorer
	// Candidates overrides RT-CharSet-Candidate when non-empty.
	Candidates chars.Set
	// MaxExhaustive caps exhaustive charset enumeration (see
	// generation.Config).
	MaxExhaustive int
	// MaxRecordBytes skips potential records longer than this many
	// bytes during generation (guards pathological spans; see
	// generation.Config). 0 means the generation default (16 KiB).
	MaxRecordBytes int
	// DisableRefinement turns off array unfolding and structure
	// shifting (for ablation experiments).
	DisableRefinement bool
	// RefineTop bounds how many of the top-M candidates receive full
	// structure refinement. 0 (the default) refines all M, as in the
	// paper; a positive value refines only the RefineTop best by plain
	// score plus the RefineTop best by assimilation rank (an ablation
	// knob).
	RefineTop int
	// Workers sets the goroutine parallelism of the extraction scans
	// (the "eminently parallelizable" pass of §5.2.2). 0 or 1 keeps the
	// sequential scan; negative means GOMAXPROCS.
	Workers int
}

// scan partitions lines with the template, in parallel when opts.Workers
// asks for it. ScanParallel is output-identical to Scan.
func (o Options) scan(m *parser.Matcher, lines *textio.Lines) *parser.ScanResult {
	if o.Workers == 0 || o.Workers == 1 {
		return m.Scan(lines)
	}
	return m.ScanParallel(lines, o.Workers)
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
	if o.Scorer == nil {
		o.Scorer = score.MDL{}
	}
	if o.RefineTop <= 0 {
		o.RefineTop = int(^uint(0) >> 1)
	}
	return o
}

// cachingScorer memoizes scores by template key for one residue round:
// refinement re-scores the same variant trees many times across
// candidates (most candidates refine toward the same few templates). It
// also carries the round's scan cache, so every consumer of scan results
// — the scorer itself, repetition statistics, structure shifting — scans
// each unique template at most once per round instead of once per use.
type cachingScorer struct {
	inner score.Scorer
	cache map[string]score.Result
	scans *score.ScanCache
}

// newCachingScorer wraps inner for one evaluation round. When inner is
// the default MDL scorer without its own cache, it is rebound onto the
// round's shared scan cache so scoring and refinement share scans.
func newCachingScorer(inner score.Scorer) *cachingScorer {
	scans := score.NewScanCache()
	if mdl, ok := inner.(score.MDL); ok && mdl.Cache == nil {
		mdl.Cache = scans
		inner = mdl
	}
	return &cachingScorer{inner: inner, cache: map[string]score.Result{}, scans: scans}
}

func (c *cachingScorer) Score(m *parser.Matcher, lines *textio.Lines) score.Result {
	key := m.Template().Key()
	if r, ok := c.cache[key]; ok {
		return r
	}
	r := c.inner.Score(m, lines)
	c.cache[key] = r
	return r
}

// ScanCache exposes the round's shared scan memo (see refine's use).
func (c *cachingScorer) ScanCache() *score.ScanCache { return c.scans }

// FieldValue is one extracted field occurrence.
type FieldValue struct {
	// Col is the template column; Rep the repetition ordinal inside an
	// array (0 outside arrays).
	Col, Rep int
	// Start and End are byte offsets into the original dataset.
	Start, End int
	// Value is the extracted text.
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
	// Records is the number of records extracted on the full dataset.
	Records int
	// Coverage is the byte coverage on the full dataset.
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
	Extraction time.Duration
}

// Total returns the summed step time.
func (t Timing) Total() time.Duration {
	return t.Generation + t.Pruning + t.Evaluation + t.Extraction
}

// Result is the outcome of a full extraction.
type Result struct {
	Structures []Structure
	Records    []RecordOut
	// NoiseLines lists original line indices not covered by any record.
	NoiseLines []int
	Timing     Timing
}

// ErrEmptyInput is returned when the dataset has no lines.
var ErrEmptyInput = errors.New("core: empty input")

// Extract runs the full Datamaran pipeline on data.
func Extract(data []byte, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	lines := textio.NewLines(data)
	if lines.N() == 0 {
		return nil, ErrEmptyInput
	}

	res := &Result{}
	resid := newResidue(lines)
	minCoverage := int(opts.Alpha * float64(len(data)))
	for typeID := 0; typeID < opts.MaxRecordTypes && len(resid.lines) > 0; typeID++ {
		// Assumption 1's threshold is α% of the *dataset*, not of the
		// shrinking residue: rescale α so leftover junk lines cannot
		// qualify as a record type once they dominate the residue.
		effAlpha := opts.Alpha * float64(len(data)) / float64(len(resid.data))
		if effAlpha > 1 {
			break
		}
		stats, ok := discoverOne(resid.data, opts, effAlpha, res)
		if !ok {
			break
		}
		stats.TypeID = typeID
		if !resid.apply(res, stats, opts, minCoverage) {
			break // sampling artifact: template does not hold up on the full residue
		}
	}

	res.NoiseLines = resid.lines
	return res, nil
}

// residue is the still-unexplained part of a dataset: its bytes, and per
// residue line the index of the line it was in the original dataset.
type residue struct {
	orig  *textio.Lines
	data  []byte
	lines []int
}

func newResidue(orig *textio.Lines) *residue {
	r := &residue{orig: orig, data: orig.Data(), lines: make([]int, orig.N())}
	for i := range r.lines {
		r.lines[i] = i
	}
	return r
}

// apply is the extraction step: it scans the residue with s.Template and,
// unless the scan covers fewer than minCoverage bytes (then nothing
// changes and it returns false), appends the structure and its records —
// translated to original coordinates — to res and shrinks the residue to
// the scan's noise lines.
func (r *residue) apply(res *Result, s Structure, opts Options, minCoverage int) bool {
	t0 := time.Now()
	rl := textio.NewLines(r.data)
	scan := opts.scan(parser.NewMatcher(s.Template), rl)
	res.Timing.Extraction += time.Since(t0)
	if scan.Coverage < minCoverage {
		return false
	}
	s.Records = len(scan.Records)
	s.Coverage = scan.Coverage
	res.Structures = append(res.Structures, s)

	byteShift := makeByteShift(rl, r.lines, r.orig)
	for ri, rec := range scan.Records {
		out := RecordOut{
			TypeID:    s.TypeID,
			StartLine: r.lines[rec.StartLine],
			EndLine:   r.lines[rec.EndLine-1] + 1,
		}
		fields := scan.Fields(ri)
		out.Fields = make([]FieldValue, 0, len(fields))
		for _, f := range fields {
			out.Fields = append(out.Fields, FieldValue{
				Col: f.Col, Rep: f.Rep,
				Start: byteShift(f.Start), End: byteShift(f.End),
				Value: string(r.data[f.Start:f.End]),
			})
		}
		if arrays := scan.Arrays(ri); len(arrays) > 0 {
			out.Arrays = append([]parser.ArrayOcc(nil), arrays...)
		}
		res.Records = append(res.Records, out)
	}

	var nextLines []int
	var nextData []byte
	for _, li := range scan.NoiseLines {
		nextLines = append(nextLines, r.lines[li])
		nextData = append(nextData, rl.Line(li)...)
	}
	r.lines, r.data = nextLines, nextData
	return true
}

// discoverOne runs generation, pruning and evaluation over one residue and
// returns the best refined template.
func discoverOne(residData []byte, opts Options, effAlpha float64, res *Result) (Structure, bool) {
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

	t0 := time.Now()
	cands := generation.Generate(sampleLines, generation.Config{
		Alpha:          effAlpha,
		MaxSpan:        opts.MaxSpan,
		Search:         opts.Search,
		Candidates:     opts.Candidates,
		MaxExhaustive:  opts.MaxExhaustive,
		MaxRecordBytes: opts.MaxRecordBytes,
	})
	res.Timing.Generation += time.Since(t0)
	cands = filterTrivial(cands)
	if len(cands) == 0 {
		return Structure{}, false
	}

	t0 = time.Now()
	top := generation.Prune(cands, opts.TopM)
	res.Timing.Pruning += time.Since(t0)

	t0 = time.Now()
	scorer := newCachingScorer(opts.Scorer)
	// Plain-score every retained candidate, then refine the RefineTop
	// most promising (refinement costs many scoring passes each).
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
	// Refine the union of the best candidates by plain score and by
	// assimilation rank: plain scoring favors partially-unfolded k-line
	// variants, while the folded minimal template (which refinement
	// would turn into the true winner) ranks high on assimilation.
	refineSet := map[string]bool{}
	for i := 0; i < opts.RefineTop && i < len(plain); i++ {
		refineSet[plain[i].tpl.Key()] = true // assimilation order (pre-sort)
	}
	sort.SliceStable(plain, func(i, j int) bool { return plain[i].res.Bits < plain[j].res.Bits })
	for i := 0; i < opts.RefineTop && i < len(plain); i++ {
		refineSet[plain[i].tpl.Key()] = true
	}
	var best *template.Node
	var bestRes score.Result
	for _, s := range plain {
		tpl, r := s.tpl, s.res
		if !opts.DisableRefinement && refineSet[tpl.Key()] {
			tpl, r = refine.Refine(s.tpl, evalLines, scorer)
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
	res.Timing.Evaluation += time.Since(t0)
	if best == nil {
		return Structure{}, false
	}
	return Structure{
		Template:            best,
		Score:               bestRes,
		CandidatesGenerated: len(cands),
	}, true
}

// filterTrivial drops templates that impose no real structure: templates
// whose only formatting character is the newline (F\n and its stacks) and
// templates containing a free-line array (F\n)* — both can absorb
// arbitrary lines, including noise and the other record types of an
// interleaved dataset.
func filterTrivial(cands []generation.Candidate) []generation.Candidate {
	out := cands[:0]
	var nl chars.Set
	nl.Add('\n')
	for _, c := range cands {
		if c.Template.RTCharSet().Minus(nl).Empty() {
			continue
		}
		if template.HasFreeLineArray(c.Template) {
			continue
		}
		out = append(out, c)
	}
	return out
}

// makeByteShift returns a function translating byte offsets in the residue
// buffer to offsets in the original dataset. Field spans never cross line
// boundaries, so a per-line delta suffices; offsets at a line's end
// (exclusive) translate with the same line's delta.
func makeByteShift(resid *textio.Lines, origOf []int, orig *textio.Lines) func(int) int {
	return func(off int) int {
		// Binary search for the line containing off (or ending at it).
		lo, hi := 0, resid.N()-1
		for lo < hi {
			mid := (lo + hi + 1) / 2
			if resid.Start(mid) <= off {
				lo = mid
			} else {
				hi = mid - 1
			}
		}
		// Field spans end strictly before their line's trailing
		// newline, so off always lies within line lo (or at the very
		// end of the buffer, still inside the last line).
		return orig.Start(origOf[lo]) + (off - resid.Start(lo))
	}
}

// ApplyTemplatesParallel runs only the extraction pass with an
// already-known set of structure templates — the learn-once, apply-many
// workflow of a data lake where many files share one format. Templates are
// applied in order; each consumes its matching records from the residue
// left by the previous ones, exactly as the discovery loop would have. The
// scans fan out over workers goroutines (0 or 1 sequential, negative
// GOMAXPROCS); output is identical for any worker count.
func ApplyTemplatesParallel(data []byte, templates []*template.Node, workers int) (*Result, error) {
	opts := Options{Workers: workers}
	lines := textio.NewLines(data)
	if lines.N() == 0 {
		return nil, ErrEmptyInput
	}
	res := &Result{}
	resid := newResidue(lines)
	for typeID, st := range templates {
		resid.apply(res, Structure{TypeID: typeID, Template: st}, opts, 0)
		if len(resid.lines) == 0 {
			break
		}
	}
	res.NoiseLines = resid.lines
	return res, nil
}
