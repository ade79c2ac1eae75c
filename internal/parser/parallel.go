package parser

import (
	"runtime"
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
	if to > lines.N() {
		to = lines.N()
	}
	if from < 0 {
		from = 0
	}
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
			pos := lines.Start(from + i)
			matchEnd, ok, trunc := m.MatchEnds(data, pos)
			if !ok {
				cands[i] = CandEnd{Truncated: trunc}
				continue
			}
			if endLine, aligned := lines.AlignedLine(matchEnd); aligned && endLine > from+i {
				cands[i] = CandEnd{EndLine: endLine, End: matchEnd}
			}
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

// ScanParallel computes the same partition as Scan using worker
// goroutines: a parallel per-line validate pass (MatchCandidateEnds), the
// trivial greedy walk of Scan over the results (record/noise decisions
// only — no byte work), then a parallel extract pass fanning the accepted
// records out over per-worker arenas that are stitched back in record
// order. The stitched arena layout is byte-identical to the sequential
// ScanInto's, so the output — including Fields/Arrays slices — is
// identical for any worker count, even on pathological inputs where
// record phases are ambiguous. workers <= 1 falls back to the sequential
// Scan.
func (m *Matcher) ScanParallel(lines *textio.Lines, workers int) *ScanResult {
	n := lines.N()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers <= 1 || n < workers*4 {
		return m.Scan(lines)
	}

	cands := m.MatchCandidateEnds(lines, 0, n, workers)

	// Greedy walk — identical decisions to the sequential Scan.
	res := &ScanResult{}
	data := lines.Data()
	i := 0
	for i < n {
		c := cands[i]
		if c.EndLine == 0 {
			res.NoiseLines = append(res.NoiseLines, i)
			i++
			continue
		}
		res.Records = append(res.Records, Record{
			StartLine: i, EndLine: c.EndLine, Start: lines.Start(i), End: c.End,
		})
		res.Coverage += c.End - lines.Start(i)
		i = c.EndLine
		res.reserve(i, n) // pre-grow Records/NoiseLines (arenas still empty)
	}
	if len(res.Records) == 0 {
		return res
	}

	// Parallel extract: contiguous record ranges per worker, each into a
	// private arena (extraction touches only record bytes the validate
	// pass already vetted).
	if workers > len(res.Records) {
		workers = len(res.Records)
	}
	chunk := (len(res.Records) + workers - 1) / workers
	parts := make([]arena, workers)
	fieldBytes := make([]int, workers)
	var wg sync.WaitGroup
	forEachChunk := func(fn func(w, lo, hi int)) {
		for w := 0; w < workers; w++ {
			lo := w * chunk
			if lo >= len(res.Records) {
				break
			}
			hi := lo + chunk
			if hi > len(res.Records) {
				hi = len(res.Records)
			}
			fn(w, lo, hi)
		}
	}
	forEachChunk(func(w, lo, hi int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := &parts[w]
			for r := lo; r < hi; r++ {
				rec := &res.Records[r]
				fieldLo, arrLo := len(a.occs), len(a.arrays)
				if _, _, ok := m.extract(m.st, data, rec.Start, 0, 0, a); !ok {
					// Unreachable after a successful validate pass;
					// drop the partial occurrences defensively.
					a.occs, a.arrays = a.occs[:fieldLo], a.arrays[:arrLo]
				}
				rec.fieldLo, rec.fieldHi = fieldLo, len(a.occs)
				rec.arrLo, rec.arrHi = arrLo, len(a.arrays)
				for _, f := range a.occs[fieldLo:] {
					fieldBytes[w] += f.End - f.Start
				}
			}
		}()
	})
	wg.Wait()

	// Stitch the per-worker arenas into the result's shared arenas in
	// record order — the same layout the sequential scan produces — and
	// rebase each record's occurrence ranges. The copies fan out over
	// the same worker chunks.
	occOff := make([]int, workers)
	arrOff := make([]int, workers)
	totOccs, totArrs := 0, 0
	for w := 0; w < workers; w++ {
		occOff[w], arrOff[w] = totOccs, totArrs
		totOccs += len(parts[w].occs)
		totArrs += len(parts[w].arrays)
		res.FieldBytes += fieldBytes[w]
	}
	res.ar.occs = make([]FieldOcc, totOccs)
	res.ar.arrays = make([]ArrayOcc, totArrs)
	forEachChunk(func(w, lo, hi int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			copy(res.ar.occs[occOff[w]:], parts[w].occs)
			copy(res.ar.arrays[arrOff[w]:], parts[w].arrays)
			for r := lo; r < hi; r++ {
				rec := &res.Records[r]
				rec.fieldLo += occOff[w]
				rec.fieldHi += occOff[w]
				rec.arrLo += arrOff[w]
				rec.arrHi += arrOff[w]
			}
		}()
	})
	wg.Wait()
	return res
}
