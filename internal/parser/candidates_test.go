package parser

import (
	"runtime"
	"sync"

	"datamaran/internal/textio"
)

// MatchCandidateEnds is the validate-only fan-out MatchLines replaced, kept
// as its oracle and exported to the external tests from this test file:
// for every line in [from, to), whether a line-aligned record match starts
// there and where it ends, by the validate interpreter, with no occurrence
// written. The slice is indexed by line−from; workers <= 0 selects
// GOMAXPROCS.
func (m *Matcher) MatchCandidateEnds(lines *textio.Lines, from, to, workers int) []CandEnd {
	to = min(to, lines.N())
	from = max(from, 0)
	if from >= to {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := to - from
	cands := make([]CandEnd, n)
	data := lines.Data()
	matchRange := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			matchEnd, ok, trunc := m.MatchEnds(data, lines.Start(from+i))
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
	for lo := 0; lo < n; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			matchRange(lo, hi)
		}(lo, min(lo+chunk, n))
	}
	wg.Wait()
	return cands
}
