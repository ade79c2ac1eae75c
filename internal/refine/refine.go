// Package refine implements Datamaran's two structure-refinement
// techniques, applied to the surviving candidates during the evaluation
// step (§4.3):
//
//   - Array unfolding expands an array-type regular expression into a
//     struct-type (full unfolding) or a fixed prefix followed by an array
//     suffix (partial unfolding), accepting the revision when the
//     regularity score improves. This recovers e.g. the plain CSV
//     template F,F,F\n from the minimal form (F,)*F\n, and the syslog
//     template F F F F (F )*F\n from (F )*F\n.
//
//   - Structure shifting resolves the cyclic-shift ambiguity of multi-line
//     templates (all shifts score approximately equally) by picking the
//     variant whose first occurrence in the dataset is earliest.
//
// Unfolding scores every full and partial unfold of every array, round
// after round — tens of thousands of variants in a discovery — and a
// losing variant is neither scanned nor built. Its matcher is spliced
// from its parent's program (parser.Matcher.Unfolded): the unfolded
// array's ops copied K times, columns and arrays renumbered, no tree
// compiled. Only the round's winner gets a tree, a path copy of its
// parent's that shares every subtree off the path to the unfolded array
// (template.Node.Unfold). A variant matches at a line exactly
// where its parent does and the unfolded array's count passes, so its scan
// is derived from the parent's (parser.Matcher.DeriveScan): records kept
// or dropped by that count, what is kept renumbered, and only the lines
// inside a dropped record matched again. The MDL score then reads the
// derived scan, copying the column statistics the variant shares with its
// parent (score.MDL.ScoreScan). Two kinds of variant are scanned afresh:
// a full unfold at one repetition that drops the separator from the stop
// bytes, whose fields then run across it, and the unfold of an array that
// sits inside another or holds one. A scorer that cannot score a scan it
// is handed gets every variant through Score.
package refine

import (
	"datamaran/internal/parser"
	"datamaran/internal/score"
	"datamaran/internal/template"
	"datamaran/internal/textio"
)

// maxPartialPrefix caps the partial-unfolding prefix length tried per
// array node.
const maxPartialPrefix = 8

// scanCacher is implemented by scorers that score through a round-level
// score.ScanCache (core's caching scorer): Refine keeps the scans of the
// template it refines in the cache's lineage storage.
type scanCacher interface {
	ScanCache() *score.ScanCache
}

// scanScorer is implemented by scorers that score a scan they are handed:
// score.MDL, and core's caching scorer around one. Refine derives the scans
// of the unfold variants it hands them (parser.Matcher.DeriveScan); a scorer
// without the method gets every variant through Score, scanned afresh.
type scanScorer interface {
	ScoreScan(m *parser.Matcher, lines *textio.Lines, scan, from *score.Scan, d parser.Derivation) score.Result
}

// cacheOf extracts the shared scan cache from a scorer, when it has one.
func cacheOf(scorer score.Scorer) *score.ScanCache {
	if sc, ok := scorer.(scanCacher); ok {
		return sc.ScanCache()
	}
	if mdl, ok := scorer.(score.MDL); ok {
		return mdl.Cache
	}
	return nil
}

// Refine applies array unfolding to a fixpoint and then structure
// shifting, returning the refined template and its score. It mirrors
// Algorithm 2's RefineST.
//
// st is scanned once, into the scorer's scan cache. Each round reads its
// arrays' repetition counts from the scan of the round's parent and, when
// the scorer scores scans, derives its variants' scans from it (see the
// package comment); the round's winner becomes the next round's parent
// with the scan and column statistics it was scored with. A variant is a
// matcher spliced from its parent's (parser.Matcher.Unfolded); only the
// round's winner gets a tree.
func Refine(st *template.Node, lines *textio.Lines, scorer score.Scorer) (*template.Node, score.Result) {
	cache := cacheOf(scorer)
	if cache == nil {
		cache = score.NewScanCache()
	}
	ss, derive := scorer.(scanScorer)
	// parent holds the scan of the round's template, roundScan the scan
	// of the round's best variant so far, cur the variant being scored.
	parent, roundScan, cur := cache.Lineage()
	best, bestM := st, parser.NewMatcher(st)
	if !st.IsNormal() {
		// A variant's tree is a path copy of its parent's, which keeps
		// the parent's form: start from the canonical one.
		bestM = parser.NewMatcher(st.Normalize())
	}
	bestM.ScanInto(lines, &parent.ScanResult)
	var bestRes score.Result
	if derive {
		bestRes = ss.ScoreScan(bestM, lines, parent, nil, parser.Derivation{})
	} else {
		bestRes = scorer.Score(bestM, lines)
	}
	scoreVariant := func(m *parser.Matcher, u parser.Unfold) score.Result {
		if !derive {
			return scorer.Score(m, lines)
		}
		d, ok := m.DeriveScan(bestM, u, lines, &parent.ScanResult, &cur.ScanResult)
		if !ok {
			m.ScanInto(lines, &cur.ScanResult)
			return ss.ScoreScan(m, lines, cur, nil, d)
		}
		return ss.ScoreScan(m, lines, cur, parent, d)
	}
	for {
		// Steepest descent: score every unfold variant of every array
		// and adopt the best improvement. First-improvement would
		// commit to a full unfold even when a partial unfold (which
		// keeps the array's flexibility for irregular records) scores
		// far better.
		var roundM *parser.Matcher
		roundRes := bestRes
		for arr, s := range allRepStats(bestM, &parent.ScanResult) {
			for _, u := range unfolds(arr, s) {
				m := bestM.Unfolded(u)
				if res := scoreVariant(m, u); res.Bits < roundRes.Bits {
					roundM, roundRes = m, res
					roundScan, cur = cur, roundScan
				}
			}
		}
		if roundM == nil {
			break
		}
		bestM, bestRes = roundM, roundRes
		best = bestM.Template() // the round's one tree
		if derive {
			parent, roundScan = roundScan, parent
		} else {
			bestM.ScanInto(lines, &parent.ScanResult)
		}
	}
	shifted := Shift(best, lines)
	if !shifted.Equal(best) {
		best = shifted
		bestRes = scorer.Score(parser.NewMatcher(best), lines)
	}
	return best, bestRes
}

// repStat summarizes the repetition counts observed for one array node.
type repStat struct {
	modal   int
	min     int
	uniform bool
	any     bool
}

// allRepStats summarizes the repetition counts of each of m's arrays in
// scan, a scan of m's template, indexed by array occurrence.
func allRepStats(m *parser.Matcher, scan *parser.ScanResult) []repStat {
	// Tally (array, count) pairs densely: array a's counts sit at
	// off[a]+reps, so a group's first bar is its minimum, and a strict >
	// keeps the smallest of tied modes.
	off := make([]int, m.NumArrays()+1)
	for _, a := range scan.AllArrays() {
		off[a.Arr+1] = max(off[a.Arr+1], a.Reps+1)
	}
	for a := range m.NumArrays() {
		off[a+1] += off[a]
	}
	counts := make([]int, off[m.NumArrays()])
	for _, a := range scan.AllArrays() {
		counts[off[a.Arr]+a.Reps]++
	}
	out := make([]repStat, m.NumArrays())
	for a := range out {
		s, top := &out[a], 0
		for reps, n := range counts[off[a]:off[a+1]] {
			if n == 0 {
				continue
			}
			if !s.any {
				*s = repStat{min: reps, uniform: true, any: true}
			} else {
				s.uniform = false
			}
			if n > top {
				s.modal, top = reps, n
			}
		}
	}
	return out
}

// unfolds lists the unfolding candidates of array occurrence arr, whose
// repetition counts s summarizes: a full struct expansion at the modal
// repetition count, and partial expansions with prefixes up to modal−1
// units (§4.3.1, Fig 12a).
func unfolds(arr int, s repStat) []parser.Unfold {
	if !s.any {
		return nil
	}
	// Full unfold at the modal repetition count even when counts vary:
	// records with other counts become noise and the regularity score
	// arbitrates. (Noise matching the array with a stray count — e.g. a
	// junk line parsing as a 1-element list — must not veto unfolding.)
	var out []parser.Unfold
	if s.modal >= 1 {
		out = append(out, parser.Unfold{Arr: arr, K: s.modal})
	}
	if s.uniform {
		// Every record agrees on the count: the full unfold matches
		// everything a partial unfold would, with strictly finer
		// typing. Skip the dominated partial variants.
		return out
	}
	for p := 1; p <= min(s.modal-1, maxPartialPrefix); p++ {
		out = append(out, parser.Unfold{Arr: arr, K: p, Partial: true})
	}
	return out
}

// Shift resolves the cyclic-shift ambiguity (§4.3.2, Fig 12b): among all
// cyclic rotations of the template's line segments, it returns the one
// whose first occurrence in the dataset is earliest. Single-line templates
// are returned unchanged.
func Shift(st *template.Node, lines *textio.Lines) *template.Node {
	segs := lineSegments(st)
	if len(segs) < 2 {
		return st
	}
	bestTpl := st
	bestLine := firstOccurrence(st, lines)
	if bestLine < 0 {
		bestLine = lines.N() + 1
	}
	for r := 1; r < len(segs); r++ {
		cand := rotation(segs, r)
		line := firstOccurrence(cand, lines)
		if line >= 0 && line < bestLine {
			bestLine = line
			bestTpl = cand
		}
	}
	return bestTpl
}

// rotation returns the template whose line segments are segs rotated left
// by r.
func rotation(segs [][]*template.Node, r int) *template.Node {
	rotated := make([]*template.Node, 0, 16)
	for k := 0; k < len(segs); k++ {
		rotated = append(rotated, segs[(r+k)%len(segs)]...)
	}
	return template.Struct(rotated...).Normalize()
}

// lineSegments splits the template's token sequence at newline boundaries:
// after a '\n' literal or an array terminated by '\n'.
func lineSegments(st *template.Node) [][]*template.Node {
	toks := template.Tokens(st)
	var segs [][]*template.Node
	var cur []*template.Node
	for _, t := range toks {
		cur = append(cur, t)
		endsNL := (t.Kind == template.KLiteral && t.Lit == "\n") ||
			(t.Kind == template.KArray && t.Term == '\n')
		if endsNL {
			segs = append(segs, cur)
			cur = nil
		}
	}
	if len(cur) > 0 {
		// Trailing tokens without a newline: not a well-formed
		// block template; treat as one segment so rotation is a
		// no-op for the remainder.
		segs = append(segs, cur)
	}
	return segs
}

// firstOccurrence returns the line index of the template's first matched
// record, or -1. It runs on the allocation-free validate pass: no parse
// trees are built for an early-exit existence probe.
func firstOccurrence(st *template.Node, lines *textio.Lines) int {
	m := parser.NewMatcher(st)
	data := lines.Data()
	n := lines.N()
	for i := 0; i < n; i++ {
		if end, ok, _ := m.MatchEnds(data, lines.Start(i)); ok {
			// Must end at a later line boundary to be a record.
			if j, aligned := lines.AlignedLine(end); aligned && j > i {
				return i
			}
		}
	}
	return -1
}
