// Package parser implements LL(1) matching of structure templates against
// log text (§3.3 Remark of the paper): given a structure template, it
// partitions a dataset into instantiated records and noise blocks, and
// extracts every field value.
//
// Matching relies on the non-overlapping assumption (Assumption 2): the
// template's RT-CharSet is disjoint from field-value characters, so a
// field value is the maximal run of bytes outside the RT-CharSet and the
// grammar is LL(1) — at an array boundary the next byte is either the
// separator or the (distinct) terminator.
//
// The scan hot path is two-phase: a pointer-free validate pass
// (MatchEnds) answers ok/end/truncated with zero heap allocations — noise
// lines, the common case during candidate evaluation, cost nothing — and
// an extract pass writes field occurrences into a flat reusable arena
// held by the ScanResult. A record is exactly its field occurrences plus
// its array occurrences: together they determine the parse (see ArrayOcc),
// so no caller needs a parse tree. These are the package's only two
// template walks; the tree-building walker they replaced lives on in
// parsertest as the oracle the tests compare them against.
package parser

import (
	"datamaran/internal/chars"
	"datamaran/internal/template"
	"datamaran/internal/textio"
)

// arrInfo is the precomputed per-array state of a matcher.
type arrInfo struct {
	// body is the KStruct wrapper over the array's children, so the hot
	// match loop does not allocate one per attempt.
	body *template.Node
	// fields is the number of field columns in one repetition of body.
	fields int
	// idx is the array's dense index in DFS order (see ArrayNode).
	idx int
}

// Matcher matches one structure template. It precomputes the RT-CharSet
// and the per-array body nodes, and is safe for concurrent use.
type Matcher struct {
	st       *template.Node
	rtset    chars.Set
	cols     int
	arrays   map[*template.Node]arrInfo
	arrNodes []*template.Node
}

// NewMatcher builds a matcher for st.
func NewMatcher(st *template.Node) *Matcher {
	m := &Matcher{st: st, rtset: st.RTCharSet(), cols: st.NumFields(),
		arrays: map[*template.Node]arrInfo{}}
	var walk func(n *template.Node)
	walk = func(n *template.Node) {
		if n.Kind == template.KArray {
			body := &template.Node{Kind: template.KStruct, Children: n.Children}
			m.arrays[n] = arrInfo{body: body, fields: body.NumFields(), idx: len(m.arrNodes)}
			m.arrNodes = append(m.arrNodes, n)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(st)
	return m
}

// Template returns the matcher's structure template.
func (m *Matcher) Template() *template.Node { return m.st }

// Columns returns the number of field columns of the template (fields
// inside an array body count once).
func (m *Matcher) Columns() int { return m.cols }

// NumArrays returns the number of array nodes in the template.
func (m *Matcher) NumArrays() int { return len(m.arrNodes) }

// ArrayNode returns the array node with dense index i (DFS order over the
// template) — the inverse of ArrayOcc.Arr.
func (m *Matcher) ArrayNode(i int) *template.Node { return m.arrNodes[i] }

// MatchEnds is the validate half of the two-phase matcher: it decides
// whether a record of the template starts at data[pos] and where it ends,
// without touching the heap. truncated reports that a failed attempt ran
// off the end of data — i.e. that appending more bytes could turn the
// failure into a match. The streaming engine uses this to defer decisions
// for lines near a shard boundary instead of finalizing them; on a full
// buffer the flag is irrelevant (no more bytes ever arrive).
func (m *Matcher) MatchEnds(data []byte, pos int) (end int, ok, truncated bool) {
	return m.matchEnds(m.st, data, pos)
}

func (m *Matcher) matchEnds(n *template.Node, data []byte, pos int) (int, bool, bool) {
	switch n.Kind {
	case template.KField:
		end := pos
		for end < len(data) && data[end] != '\n' && !m.rtset.Contains(data[end]) {
			end++
		}
		return end, true, false

	case template.KLiteral:
		lit := n.Lit
		avail := len(lit)
		if pos+avail > len(data) {
			avail = len(data) - pos
		}
		for i := 0; i < avail; i++ {
			if data[pos+i] != lit[i] {
				return 0, false, false
			}
		}
		if avail < len(lit) {
			// Running off the buffer after matching every resident
			// byte is not a definitive mismatch.
			return 0, false, true
		}
		return pos + len(lit), true, false

	case template.KStruct:
		cur := pos
		for _, c := range n.Children {
			end, ok, trunc := m.matchEnds(c, data, cur)
			if !ok {
				return 0, false, trunc
			}
			cur = end
		}
		return cur, true, false

	case template.KArray:
		cur := pos
		body := m.arrays[n].body
		for {
			end, ok, trunc := m.matchEnds(body, data, cur)
			if !ok {
				return 0, false, trunc
			}
			cur = end
			if cur >= len(data) {
				return 0, false, true
			}
			switch data[cur] {
			case n.Sep:
				cur++
			case n.Term:
				return cur + 1, true, false
			default:
				return 0, false, false
			}
		}
	}
	return 0, false, false
}

// FieldOcc is one field-value occurrence in a parsed record.
type FieldOcc struct {
	// Col is the column index of the field in the template (DFS order;
	// fields inside an array body share the column across repetitions).
	Col int
	// Rep is the repetition ordinal for fields inside arrays (0 for
	// fields outside any array; for nested arrays, the innermost
	// repetition index).
	Rep int
	// Start and End delimit the value bytes in the data.
	Start, End int
}

// ArrayOcc is one array instantiation inside a parsed record: which array
// of the template (dense DFS index, see Matcher.ArrayNode) and how many
// repetitions it matched. A record's occurrences are listed as each array
// terminates (inner before outer). Instances of one array node never nest
// inside each other, so the occurrences of one Arr appear in document
// order: read per array node as a FIFO, they replay the record's nesting
// exactly in a top-down template walk (relational normalization does).
// The MDL scorer and array unfolding consume them as a multiset.
type ArrayOcc struct {
	Arr, Reps int
}

// arena is the flat occurrence storage the extract pass appends into.
type arena struct {
	occs   []FieldOcc
	arrays []ArrayOcc
}

func (a *arena) reset() {
	a.occs = a.occs[:0]
	a.arrays = a.arrays[:0]
}

// extract is the second phase of the two-phase matcher: it re-walks a
// record already validated by matchEnds and appends its field and array
// occurrences to the arena. col is the column of the leftmost field under
// n; rep the enclosing (innermost) repetition ordinal.
func (m *Matcher) extract(n *template.Node, data []byte, pos, col, rep int, a *arena) (end, nextCol int, ok bool) {
	switch n.Kind {
	case template.KField:
		e := pos
		for e < len(data) && data[e] != '\n' && !m.rtset.Contains(data[e]) {
			e++
		}
		a.occs = append(a.occs, FieldOcc{Col: col, Rep: rep, Start: pos, End: e})
		return e, col + 1, true

	case template.KLiteral:
		lit := n.Lit
		if pos+len(lit) > len(data) {
			return 0, 0, false
		}
		for i := 0; i < len(lit); i++ {
			if data[pos+i] != lit[i] {
				return 0, 0, false
			}
		}
		return pos + len(lit), col, true

	case template.KStruct:
		cur := pos
		c := col
		for _, ch := range n.Children {
			e, nc, ok := m.extract(ch, data, cur, c, rep, a)
			if !ok {
				return 0, 0, false
			}
			cur, c = e, nc
		}
		return cur, c, true

	case template.KArray:
		info := m.arrays[n]
		cur := pos
		reps := 0
		for {
			e, _, ok := m.extract(info.body, data, cur, col, reps, a)
			if !ok {
				return 0, 0, false
			}
			cur = e
			reps++
			if cur >= len(data) {
				return 0, 0, false
			}
			switch data[cur] {
			case n.Sep:
				cur++
			case n.Term:
				a.arrays = append(a.arrays, ArrayOcc{Arr: info.idx, Reps: reps})
				return cur + 1, col + info.fields, true
			default:
				return 0, 0, false
			}
		}
	}
	return 0, 0, false
}

// AppendRecord re-parses the record starting at pos — already located by a
// MatchEnds pass — and appends its field and array occurrences to occs and
// arrays, caller-owned reusable slices. When no record starts at pos the
// slices come back unextended and ok is false.
func (m *Matcher) AppendRecord(data []byte, pos int, occs []FieldOcc, arrays []ArrayOcc) ([]FieldOcc, []ArrayOcc, bool) {
	a := arena{occs: occs, arrays: arrays}
	if _, _, ok := m.extract(m.st, data, pos, 0, 0, &a); !ok {
		return a.occs[:len(occs)], a.arrays[:len(arrays)], false
	}
	return a.occs, a.arrays, true
}

// Record is a matched record within a dataset.
type Record struct {
	// StartLine and EndLine delimit the record's lines [StartLine, EndLine).
	StartLine, EndLine int
	// Start and End delimit the record's bytes.
	Start, End int
	// fieldLo/fieldHi and arrLo/arrHi delimit the record's occurrence
	// ranges in the owning ScanResult's arenas.
	fieldLo, fieldHi int
	arrLo, arrHi     int
}

// ScanResult is the partition of a dataset into records and noise for one
// template. Field and array occurrences of all records live in two flat
// arenas owned by the result (reused across ScanInto calls), addressed
// per record through Fields and Arrays.
type ScanResult struct {
	Records []Record
	// NoiseLines lists the indices of lines not covered by any record.
	NoiseLines []int
	// Coverage is the total byte length of all matched records — the
	// Cov(T,S) quantity of §4.2.
	Coverage int
	// FieldBytes is the total byte length of all field values, so
	// Coverage − FieldBytes is the non-field coverage of §4.2.
	FieldBytes int
	ar         arena
}

// Fields returns the field occurrences of Records[i], in flatten
// (left-to-right) order. The slice aliases the result's arena.
func (s *ScanResult) Fields(i int) []FieldOcc {
	r := &s.Records[i]
	return s.ar.occs[r.fieldLo:r.fieldHi]
}

// Arrays returns the array instantiations of Records[i].
func (s *ScanResult) Arrays(i int) []ArrayOcc {
	r := &s.Records[i]
	return s.ar.arrays[r.arrLo:r.arrHi]
}

// AllFields returns every field occurrence of every record, in record
// order — the whole-dataset view the MDL scorer consumes.
func (s *ScanResult) AllFields() []FieldOcc { return s.ar.occs }

// AllArrays returns every array instantiation of every record.
func (s *ScanResult) AllArrays() []ArrayOcc { return s.ar.arrays }

// scanEst extrapolates a final slice length from the current length after
// done of total lines, with headroom so a slightly denser tail doesn't
// force another growth step. The multiply comes before the divide —
// n/done would truncate densities below one entry per line to zero and
// never reserve. The headroom is computed from the projected (not
// current) length: the projection is stable while density is, so cap
// stays ahead of the estimate and reserve does not regrow every record.
func scanEst(n, done, total int) int {
	projected := n * total / done
	return projected + projected/8 + 64
}

// reserveMinLines is the number of consumed lines required before reserve
// trusts its extrapolation: growing from a handful of lines would gamble
// hundreds of megabytes on one record's density, while the slices are
// still small enough that runtime growth below the threshold is cheap.
const reserveMinLines = 256

// reserve pre-grows the result's record slice and occurrence arenas to
// the footprint extrapolated from the fraction of lines already consumed.
// Without it, a full-dataset scan pays for the runtime's incremental
// large-slice growth: a 100 MB arena would be copied many times over in
// 1.25x steps, dwarfing the match work itself.
func (s *ScanResult) reserve(done, total int) {
	if done < reserveMinLines || done >= total {
		return
	}
	if est := scanEst(len(s.ar.occs), done, total); est > cap(s.ar.occs) {
		occs := make([]FieldOcc, len(s.ar.occs), est)
		copy(occs, s.ar.occs)
		s.ar.occs = occs
	}
	if est := scanEst(len(s.ar.arrays), done, total); est > cap(s.ar.arrays) {
		arrays := make([]ArrayOcc, len(s.ar.arrays), est)
		copy(arrays, s.ar.arrays)
		s.ar.arrays = arrays
	}
	if est := scanEst(len(s.Records), done, total); est > cap(s.Records) {
		recs := make([]Record, len(s.Records), est)
		copy(recs, s.Records)
		s.Records = recs
	}
	if est := scanEst(len(s.NoiseLines), done, total); est > cap(s.NoiseLines) {
		noise := make([]int, len(s.NoiseLines), est)
		copy(noise, s.NoiseLines)
		s.NoiseLines = noise
	}
}

// appendRecord extracts the record spanning lines [startLine, endLine)
// at byte pos into the result's arenas and accounts coverage.
func (m *Matcher) appendRecord(res *ScanResult, data []byte, startLine, endLine, pos int) {
	fieldLo, arrLo := len(res.ar.occs), len(res.ar.arrays)
	end, _, ok := m.extract(m.st, data, pos, 0, 0, &res.ar)
	if !ok {
		// Unreachable after a successful MatchEnds (both phases follow
		// the same LL(1) walk); drop the partial occurrences defensively.
		res.ar.occs = res.ar.occs[:fieldLo]
		res.ar.arrays = res.ar.arrays[:arrLo]
		return
	}
	res.Records = append(res.Records, Record{
		StartLine: startLine, EndLine: endLine, Start: pos, End: end,
		fieldLo: fieldLo, fieldHi: len(res.ar.occs),
		arrLo: arrLo, arrHi: len(res.ar.arrays),
	})
	res.Coverage += end - pos
	for _, f := range res.ar.occs[fieldLo:] {
		res.FieldBytes += f.End - f.Start
	}
}

// Scan greedily partitions the dataset into records and noise: at each
// line, the template is tried; on a match ending at a line boundary the
// covered lines become a record, otherwise the line is noise. This is the
// linear-time extraction pass of §4.4.1 (the O(Tdata) row of Table 3).
func (m *Matcher) Scan(lines *textio.Lines) *ScanResult {
	res := &ScanResult{}
	m.ScanInto(lines, res)
	return res
}

// ScanInto is Scan writing into a caller-owned result, reusing its record,
// noise and arena storage — the zero-steady-state-allocation form for
// callers that scan repeatedly (candidate evaluation, profile apply).
func (m *Matcher) ScanInto(lines *textio.Lines, res *ScanResult) {
	res.Records = res.Records[:0]
	res.NoiseLines = res.NoiseLines[:0]
	res.Coverage, res.FieldBytes = 0, 0
	res.ar.reset()
	data := lines.Data()
	n := lines.N()
	i := 0
	for i < n {
		pos := lines.Start(i)
		end, ok, _ := m.matchEnds(m.st, data, pos)
		if ok {
			if endLine, aligned := lines.AlignedLine(end); aligned && endLine > i {
				m.appendRecord(res, data, i, endLine, pos)
				i = endLine
				res.reserve(i, n)
				continue
			}
		}
		res.NoiseLines = append(res.NoiseLines, i)
		i++
	}
}

// Residue is the coverage-only form of Scan: the same greedy walk, with
// nothing extracted — no record, no field occurrence. It returns what the
// template leaves behind: uncovered is the byte total of the lines no
// record covers, and residue is those lines concatenated in order (nil
// unless keep), i.e. the input the next template of a residue chain sees.
// The walk gives up — ok false, the other results meaningless — as soon as
// more than maxUncovered bytes are certain to stay uncovered.
func (m *Matcher) Residue(lines *textio.Lines, keep bool, maxUncovered int) (residue []byte, uncovered int, ok bool) {
	data, n := lines.Data(), lines.N()
	for i := 0; i < n; {
		if end, matched, _ := m.matchEnds(m.st, data, lines.Start(i)); matched {
			if end == lines.Start(i+1) { // a one-line record, the common case
				i++
				continue
			}
			if endLine, aligned := lines.AlignedLine(end); aligned && endLine > i {
				i = endLine
				continue
			}
		}
		line := lines.Line(i)
		if uncovered += len(line); uncovered > maxUncovered {
			return nil, 0, false
		}
		if keep {
			if residue == nil {
				residue = make([]byte, 0, len(data)-lines.Start(i)) // all that can still join it
			}
			residue = append(residue, line...)
		}
		i++
	}
	return residue, uncovered, uncovered <= maxUncovered
}

// EndsWithNewline reports whether every complete match of the template
// necessarily ends with '\n' — required for a template to describe
// newline-delimited blocks (Definition 2.4).
func EndsWithNewline(st *template.Node) bool {
	switch st.Kind {
	case template.KLiteral:
		return len(st.Lit) > 0 && st.Lit[len(st.Lit)-1] == '\n'
	case template.KArray:
		return st.Term == '\n'
	case template.KStruct:
		if len(st.Children) == 0 {
			return false
		}
		return EndsWithNewline(st.Children[len(st.Children)-1])
	}
	return false
}
