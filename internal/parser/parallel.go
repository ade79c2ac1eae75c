package parser

import (
	"runtime"
	"slices"
	"sync"
	"unsafe"

	"datamaran/internal/textio"
)

// CandEnd is the outcome of one context-free match attempt at a line:
// does a record of the template start there, and if so where does it end.
// EndLine is 0 when no line-aligned match starts at the line.
type CandEnd struct {
	// EndLine is the exclusive end line of the match (0: no match).
	EndLine int
	// End is the exclusive end byte offset.
	End int
	// Truncated reports that a failed attempt ran off the end of the
	// buffer: with more bytes the line could still start a record. Only
	// meaningful to callers whose buffer is a window of a longer stream.
	Truncated bool
	// shadowed reports a record that starts inside the last record its
	// range kept: its occurrences were not kept (see MatchLines).
	shadowed bool
	// fieldEnd and arrEnd are the lengths of the line's worker arena once
	// the line was matched: a kept record's occurrences end there and begin
	// where the previous line of the same range left the arena.
	fieldEnd, arrEnd int
}

// Candidates is a window's per-line match attempts in one-pass form (see
// Matcher.MatchLines): for every line its CandEnd and, for every line that
// starts a record, that record's field and array occurrences — kept by
// MatchLines, or re-extracted by Restore for a shadowed record. It is
// storage to be reused: each MatchLines overwrites all of it.
type Candidates struct {
	ends []CandEnd
	// arenas holds one arena per worker range; range w is lines
	// [w·chunk, (w+1)·chunk).
	arenas []arena
	chunk  int
	// restored holds the occurrences Restore re-extracted for shadowed
	// records; spans says where each record's sit, in line order.
	restored arena
	spans    []restoredSpan
}

// restoredSpan is where the occurrences of the shadowed record starting at
// line sit in Candidates.restored.
type restoredSpan struct {
	line             int
	fieldLo, fieldHi int
	arrLo, arrHi     int
}

// Ends returns the per-line outcomes, indexed by line.
func (c *Candidates) Ends() []CandEnd { return c.ends }

// occRange returns where line i's record sits in its range's arena.
func (c *Candidates) occRange(i int) (a *arena, fieldLo, arrLo int) {
	a = &c.arenas[i/c.chunk]
	if i%c.chunk > 0 {
		prev := &c.ends[i-1]
		fieldLo, arrLo = prev.fieldEnd, prev.arrEnd
	}
	return a, fieldLo, arrLo
}

// restoredSpan returns where Restore put the shadowed record of line i.
func (c *Candidates) restoredSpan(i int) restoredSpan {
	k, ok := slices.BinarySearchFunc(c.spans, i, func(s restoredSpan, i int) int { return s.line - i })
	if !ok {
		panic("parser: occurrences of a shadowed record Restore did not re-extract")
	}
	return c.spans[k]
}

// Fields returns the field occurrences, in flatten order, of the record
// starting at line i (empty unless Ends()[i].EndLine > 0); a shadowed
// record's must have been restored. The slice aliases c's storage: it is
// valid until the next MatchLines.
func (c *Candidates) Fields(i int) []FieldOcc {
	if c.ends[i].shadowed {
		s := c.restoredSpan(i)
		return c.restored.occs[s.fieldLo:s.fieldHi]
	}
	a, lo, _ := c.occRange(i)
	return a.occs[lo:c.ends[i].fieldEnd]
}

// Arrays returns the array instantiations of the record starting at line
// i, aliasing c's storage like Fields.
func (c *Candidates) Arrays(i int) []ArrayOcc {
	if c.ends[i].shadowed {
		s := c.restoredSpan(i)
		return c.restored.arrays[s.arrLo:s.arrHi]
	}
	a, _, lo := c.occRange(i)
	return a.arrays[lo:c.ends[i].arrEnd]
}

// Footprint returns the bytes of storage c holds across MatchLines calls.
func (c *Candidates) Footprint() int {
	n := cap(c.ends)*int(unsafe.Sizeof(CandEnd{})) + cap(c.spans)*int(unsafe.Sizeof(restoredSpan{})) +
		c.restored.footprint()
	for i := range c.arenas {
		n += c.arenas[i].footprint()
	}
	return n
}

// footprint returns the bytes of storage a holds.
func (a *arena) footprint() int {
	return cap(a.occs)*int(unsafe.Sizeof(FieldOcc{})) + cap(a.arrays)*int(unsafe.Sizeof(ArrayOcc{}))
}

// MatchLines is the one-pass candidate form of the extraction pass: for
// every line of lines it makes one extract attempt — the record's
// occurrences are written as the line is matched, a failed attempt's are
// rolled back — and records the outcome in c, fanning contiguous ranges of
// lines out over worker goroutines, each writing into its own arena.
// Matching at a line is context-free, which is what makes the extraction
// pass "eminently parallelizable" (§1, §5.2.2 of the paper): any greedy
// walk over the outcomes reproduces the sequential Scan exactly, and reads
// the occurrences of every record it accepts from c instead of matching
// the record a second time. Truncated follows MatchEnds' contract, so a
// window of a longer stream needs no second interpreter to tell a
// deferrable failure from a definitive one.
//
// A range keeps the occurrences of the records a greedy walk over the range
// alone would accept; a record that starts inside the last one kept is
// shadowed, its occurrences rolled back like a failed line's. So a range's
// kept records never overlap one another, and what it keeps is at most a
// window's worth, not the window times a record's span — which matters for
// a hand-written format whose records start inside one another. A walk
// over the whole window may part from a range's own walk where the range's
// first lines fall inside a record begun before it, and then accept
// shadowed records, which Restore re-extracts. A format whose records
// never start inside one another has no shadowed record. Matches may
// extend past the last line's start to the end of the buffer behind lines.
// workers <= 0 selects GOMAXPROCS.
func (m *Matcher) MatchLines(c *Candidates, lines *textio.Lines, workers int) {
	n := lines.N()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers <= 1 || n < workers*4 {
		workers = 1
	}
	c.ends = slices.Grow(c.ends[:0], n)[:n]
	c.spans = c.spans[:0]
	c.chunk = max((n+workers-1)/workers, 1)
	if len(c.arenas) < workers {
		c.arenas = append(c.arenas, make([]arena, workers-len(c.arenas))...)
	}
	data := lines.Data()
	matchRange := func(a *arena, lo, hi int) {
		a.reset()
		// Room for the first lines' records at one a line, until reserve
		// can extrapolate from what they held.
		head := min(hi-lo, reserveMinLines)
		a.occs = slices.Grow(a.occs, head*m.cols)
		a.arrays = slices.Grow(a.arrays, head*m.arrays)
		kept := lo // the end line of the last record kept
		for i := lo; i < hi; i++ {
			pos := lines.Start(i)
			fieldLo, arrLo := len(a.occs), len(a.arrays)
			end, ok, trunc := m.extract(0, len(m.prog), data, pos, 0, a)
			cand := CandEnd{Truncated: trunc}
			if ok {
				if endLine, ok := recordEnd(lines, i, end); ok {
					cand = CandEnd{EndLine: endLine, End: end, shadowed: i < kept}
				}
			}
			if cand.EndLine == 0 || cand.shadowed {
				a.occs, a.arrays = a.occs[:fieldLo], a.arrays[:arrLo]
			}
			cand.fieldEnd, cand.arrEnd = len(a.occs), len(a.arrays)
			c.ends[i] = cand
			if cand.EndLine > 0 && !cand.shadowed {
				kept = cand.EndLine
				a.reserve(i+1-lo, hi-lo)
			}
		}
	}
	if workers == 1 {
		matchRange(&c.arenas[0], 0, n)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w*c.chunk < n; w++ {
		wg.Add(1)
		go func(a *arena, lo, hi int) {
			defer wg.Done()
			matchRange(a, lo, hi)
		}(&c.arenas[w], w*c.chunk, min((w+1)*c.chunk, n))
	}
	wg.Wait()
}

// Restore re-extracts the occurrences of the shadowed records among starts
// — lines of the window MatchLines last matched into c, in increasing
// order, each starting a record (the records a greedy walk accepted) — so
// Fields and Arrays read them like a kept record's. Each call replaces what
// the previous one restored. The restored records are as disjoint as
// starts' are: their occurrences grow with the window too. Only a format
// whose records start inside one another has any to restore.
func (m *Matcher) Restore(c *Candidates, lines *textio.Lines, starts []int) {
	c.restored.reset()
	c.spans = c.spans[:0]
	for _, i := range starts {
		if !c.ends[i].shadowed {
			continue
		}
		s := restoredSpan{line: i, fieldLo: len(c.restored.occs), arrLo: len(c.restored.arrays)}
		m.extract(0, len(m.prog), lines.Data(), lines.Start(i), 0, &c.restored)
		s.fieldHi, s.arrHi = len(c.restored.occs), len(c.restored.arrays)
		c.spans = append(c.spans, s)
	}
}
