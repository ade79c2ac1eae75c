package parser

import (
	"runtime"
	"slices"
	"sync"

	"datamaran/internal/textio"
)

// CandEnd is the outcome of one context-free match attempt by the
// validate pass: does a record of the template start at this line, and if
// so where does it end. EndLine is 0 when no line-aligned match starts at
// the line.
type CandEnd struct {
	// EndLine is the exclusive end line of the match (0: no match).
	EndLine int
	// End is the exclusive end byte offset.
	End int
	// Truncated reports that a failed attempt ran off the end of the
	// buffer: with more bytes the line could still start a record. Only
	// meaningful to callers whose buffer is a window of a longer stream.
	Truncated bool
}

// MatchCandidateEnds computes, for every line in [from, to), whether a
// line-aligned record match starts there and where it ends, fanning the
// lines out over worker goroutines. It is the validate phase only — no
// per-line heap allocations — which is what makes the extraction pass
// "eminently parallelizable" (§1, §5.2.2 of the paper): matching at a line
// is context-free, so any greedy walk over the returned candidates
// reproduces the sequential Scan exactly.
//
// Matches may extend past line to−1; they are resolved against the full
// buffer behind lines. workers <= 0 selects GOMAXPROCS; the slice is
// indexed by line−from.
func (m *Matcher) MatchCandidateEnds(lines *textio.Lines, from, to, workers int) []CandEnd {
	return m.MatchCandidateEndsInto(nil, lines, from, to, workers)
}

// MatchCandidateEndsInto is MatchCandidateEnds writing into dst's storage
// when it is large enough (every returned entry is overwritten), so a
// caller matching batch after batch keeps one candidate slice.
func (m *Matcher) MatchCandidateEndsInto(dst []CandEnd, lines *textio.Lines, from, to, workers int) []CandEnd {
	if to > lines.N() {
		to = lines.N()
	}
	if from < 0 {
		from = 0
	}
	if from >= to {
		return dst[:0]
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := to - from
	cands := slices.Grow(dst[:0], n)[:n]
	data := lines.Data()

	matchRange := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			pos := lines.Start(from + i)
			matchEnd, ok, trunc := m.MatchEnds(data, pos)
			c := CandEnd{Truncated: trunc}
			if ok {
				if endLine, ok := recordEnd(lines, from+i, matchEnd); ok {
					c = CandEnd{EndLine: endLine, End: matchEnd}
				}
			}
			cands[i] = c
		}
	}

	if workers <= 1 || n < workers*4 {
		matchRange(0, n)
		return cands
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= n {
			break
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			matchRange(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	return cands
}
