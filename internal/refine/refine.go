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
// score.ScanCache (core's caching scorer). Refinement asks it for the
// repetition histogram of the template it is about to unfold, which the
// scorer kept when it scored that template — the scan itself is gone, its
// arena reused by every scan since.
type scanCacher interface {
	ScanCache() *score.ScanCache
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
func Refine(st *template.Node, lines *textio.Lines, scorer score.Scorer) (*template.Node, score.Result) {
	cache := cacheOf(scorer)
	best := st
	bestRes := scorer.Score(parser.NewMatcher(best), lines)
	for {
		// Steepest descent: score every unfold variant of every array
		// and adopt the best improvement. First-improvement would
		// commit to a full unfold even when a partial unfold (which
		// keeps the array's flexibility for irregular records) scores
		// far better.
		var roundBest *template.Node
		roundRes := bestRes
		stats := allRepStats(best, lines, cache)
		for _, path := range arrayPaths(best) {
			for _, variant := range unfoldVariantsWithStats(best, path, stats) {
				res := scorer.Score(parser.NewMatcher(variant), lines)
				if res.Bits < roundRes.Bits {
					roundBest, roundRes = variant, res
				}
			}
		}
		if roundBest == nil {
			break
		}
		best, bestRes = roundBest, roundRes
	}
	shifted := Shift(best, lines)
	if !shifted.Equal(best) {
		best = shifted
		bestRes = scorer.Score(parser.NewMatcher(best), lines)
	}
	return best, bestRes
}

// arrayPaths lists the child-index paths of every array node in st
// (DFS order; a path navigates Children at each step).
func arrayPaths(st *template.Node) [][]int {
	var out [][]int
	var walk func(n *template.Node, path []int)
	walk = func(n *template.Node, path []int) {
		if n.Kind == template.KArray {
			out = append(out, append([]int(nil), path...))
		}
		for i, c := range n.Children {
			walk(c, append(path, i))
		}
	}
	walk(st, nil)
	return out
}

// nodeAt returns the node at path.
func nodeAt(st *template.Node, path []int) *template.Node {
	n := st
	for _, i := range path {
		n = n.Children[i]
	}
	return n
}

// replaceAt returns a copy of st with the node at path replaced.
func replaceAt(st *template.Node, path []int, repl *template.Node) *template.Node {
	if len(path) == 0 {
		return repl
	}
	c := st.Clone()
	n := c
	for _, i := range path[:len(path)-1] {
		n = n.Children[i]
	}
	n.Children[path[len(path)-1]] = repl
	return c.Normalize()
}

// repStat summarizes the repetition counts observed for one array node.
type repStat struct {
	modal   int
	min     int
	uniform bool
	any     bool
}

// allRepStats collects the repetition-count distribution of every array
// node in the tree from st's repetition histogram over lines: the one the
// shared cache kept when st was scored, or that of a fresh scan when there
// is no cache or st was never scored through it.
func allRepStats(st *template.Node, lines *textio.Lines, cache *score.ScanCache) map[*template.Node]repStat {
	m := parser.NewMatcher(st)
	out := make(map[*template.Node]repStat, m.NumArrays())
	// Bars arrive grouped by array, counts ascending: a group's first bar
	// is its minimum, and a strict > keeps the smallest of tied modes.
	reps := cache.RepCounts(m, lines)
	for lo := 0; lo < len(reps); {
		hi, modal := lo+1, reps[lo]
		for ; hi < len(reps) && reps[hi].Arr == modal.Arr; hi++ {
			if reps[hi].N > modal.N {
				modal = reps[hi]
			}
		}
		out[m.ArrayNode(modal.Arr)] = repStat{modal: modal.Reps, min: reps[lo].Reps, uniform: hi-lo == 1, any: true}
		lo = hi
	}
	return out
}

// repStats returns the stats for one array node (kept for tests and the
// public UnfoldVariants entry point).
func repStats(st, target *template.Node, lines *textio.Lines) (modal, min int, uniform, any bool) {
	s := allRepStats(st, lines, nil)[target]
	return s.modal, s.min, s.uniform, s.any
}

// UnfoldVariants builds the unfolding candidates for the array node at
// path: a full struct expansion at the uniform repetition count, and
// partial expansions with prefixes up to min−1 units (§4.3.1, Fig 12a).
func UnfoldVariants(st *template.Node, path []int, lines *textio.Lines) []*template.Node {
	return unfoldVariantsWithStats(st, path, allRepStats(st, lines, nil))
}

// unfoldVariantsWithStats builds the variants from precomputed stats.
func unfoldVariantsWithStats(st *template.Node, path []int, stats map[*template.Node]repStat) []*template.Node {
	arr := nodeAt(st, path)
	if arr.Kind != template.KArray {
		return nil
	}
	s := stats[arr]
	if !s.any {
		return nil
	}
	// Full unfold at the modal repetition count even when counts vary:
	// records with other counts become noise and the regularity score
	// arbitrates. (Noise matching the array with a stray count — e.g. a
	// junk line parsing as a 1-element list — must not veto unfolding.)
	var out []*template.Node
	if s.modal >= 1 {
		out = append(out, replaceAt(st, path, fullUnfold(arr, s.modal)))
	}
	if s.uniform {
		// Every record agrees on the count: the full unfold matches
		// everything a partial unfold would, with strictly finer
		// typing. Skip the dominated partial variants.
		return out
	}
	maxP := s.modal - 1
	if maxP > maxPartialPrefix {
		maxP = maxPartialPrefix
	}
	for p := 1; p <= maxP; p++ {
		out = append(out, replaceAt(st, path, partialUnfold(arr, p)))
	}
	return out
}

// fullUnfold expands Array(U,sep)*U term into U sep U sep ... U term with
// k copies of U.
func fullUnfold(arr *template.Node, k int) *template.Node {
	var children []*template.Node
	for i := 0; i < k; i++ {
		if i > 0 {
			children = append(children, template.Lit(string(arr.Sep)))
		}
		for _, c := range arr.Children {
			children = append(children, c.Clone())
		}
	}
	children = append(children, template.Lit(string(arr.Term)))
	return template.Struct(children...).Normalize()
}

// partialUnfold expands the first p units: U sep U sep ... (U sep)*U term.
func partialUnfold(arr *template.Node, p int) *template.Node {
	var children []*template.Node
	for i := 0; i < p; i++ {
		for _, c := range arr.Children {
			children = append(children, c.Clone())
		}
		children = append(children, template.Lit(string(arr.Sep)))
	}
	children = append(children, arr.Clone())
	return template.Struct(children...).Normalize()
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
