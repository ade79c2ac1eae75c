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
// NewMatcher compiles a template once into a flat program (see op):
// literals merged, fields stopping at one table, each array a loop over an
// op range. Two interpreters run it for every caller. match answers
// ok/end/truncated without touching the heap, for callers that extract
// nothing: MatchEnds and Residue. extract answers the same and writes a
// record's field and array occurrences into a flat reusable arena:
// AppendRecord, Scan and MatchLines. The last two make one extract attempt
// per line and roll back the occurrences of a failed one, so a line is
// matched once, not validated and then re-walked. MatchLines is the
// one-pass candidate form the extraction engine runs over each window, its
// lines fanned out over workers: per line the candidate end (with match's
// truncated flag, which a window of a longer stream defers on) and, for a
// line that starts a record, where that record's occurrences sit in the
// arena of the worker that matched it — unless the record starts inside
// the last one that worker kept, as only records of a hand-written format
// can: Restore re-extracts such a record once a walk accepts it, so the
// arenas hold a window's worth, not every overlapping match. A record is
// exactly its field occurrences plus its array occurrences: together they
// determine the parse (see ArrayOcc), so no caller needs a parse tree.
// DeriveScan writes the scan of an array unfold of a template from the
// template's scan, renumbering those occurrences and extracting only the
// lines that scan never tried. Only the compiler reads the template tree;
// the tree walkers the program replaced and the validate-only candidate
// fan-out MatchLines replaced live on in the tests, and the tree-building
// walker in parsertest, as the oracles the interpreters are compared
// against.
package parser

import (
	"sync"

	"datamaran/internal/template"
	"datamaran/internal/textio"
)

// opKind is the instruction set of a compiled template.
type opKind uint8

const (
	// opLit matches lit byte for byte.
	opLit opKind = iota
	// opField matches a field value: the maximal run of bytes outside
	// the matcher's stop table.
	opField
	// opArray matches ({body}sep)*{body}term, body being the ops after it
	// up to end.
	opArray
)

// op is one instruction of a compiled template. A program is the
// template's leaves in document order, adjacent literals merged, with an
// array's body following the array's own op.
type op struct {
	// lit is an opLit's text.
	lit string
	// col is an opField's column (static: a field inside an array body
	// has one column across repetitions).
	col int32
	// arr is an opArray's occurrence index in DFS order (ArrayOcc.Arr).
	arr int32
	// end is the index of the op after an opArray's body.
	end int32
	// kind is the instruction.
	kind opKind
	// sep and term are an opArray's separator and terminator.
	sep, term byte
}

// Matcher matches one structure template through its compiled program.
// It is immutable once built (its key is built on first use) and safe for
// concurrent use.
type Matcher struct {
	st      *template.Node
	keyOnce sync.Once
	key     string
	prog    []op
	// stop marks the bytes a field value cannot hold: the RT-CharSet and
	// '\n'.
	stop     [256]bool
	cols     int
	arrNodes []*template.Node
}

// NewMatcher compiles st.
func NewMatcher(st *template.Node) *Matcher {
	m := &Matcher{st: st}
	rtset := st.RTCharSet()
	for b := range m.stop {
		m.stop[b] = b == '\n' || rtset.Contains(byte(b))
	}
	ops, arrays := programSize(st)
	m.prog = make([]op, 0, ops)
	m.arrNodes = make([]*template.Node, 0, arrays)
	c := compiler{m: m}
	m.cols = c.compile(st, 0)
	return m
}

// programSize bounds the length of n's program — an op per leaf and per
// array, before literals merge — and counts its arrays, so the program is
// allocated once.
func programSize(n *template.Node) (ops, arrays int) {
	switch n.Kind {
	case template.KStruct:
	case template.KArray:
		ops, arrays = 1, 1
	default:
		return 1, 0
	}
	for _, c := range n.Children {
		o, a := programSize(c)
		ops, arrays = ops+o, arrays+a
	}
	return ops, arrays
}

// compiler appends a template's ops to its matcher's program.
type compiler struct {
	m *Matcher
	// sealed is the length the program had when an array body last
	// closed: a literal merges only into an opLit at or past it, so the
	// literal after an array never joins the array's body.
	sealed int
}

// compile appends n's ops; col is the column of n's leftmost field, and
// the column after n's fields is returned.
func (c *compiler) compile(n *template.Node, col int) int {
	m := c.m
	switch n.Kind {
	case template.KField:
		m.prog = append(m.prog, op{kind: opField, col: int32(col)})
		return col + 1
	case template.KLiteral:
		if last := len(m.prog) - 1; last >= c.sealed && m.prog[last].kind == opLit {
			m.prog[last].lit += n.Lit
		} else if n.Lit != "" {
			m.prog = append(m.prog, op{kind: opLit, lit: n.Lit})
		}
	case template.KStruct:
		for _, ch := range n.Children {
			col = c.compile(ch, col)
		}
	case template.KArray:
		i := len(m.prog)
		m.prog = append(m.prog, op{kind: opArray, sep: n.Sep, term: n.Term, arr: int32(len(m.arrNodes))})
		m.arrNodes = append(m.arrNodes, n)
		for _, ch := range n.Children {
			col = c.compile(ch, col)
		}
		m.prog[i].end = int32(len(m.prog))
		c.sealed = len(m.prog)
	}
	return col
}

// Template returns the matcher's structure template.
func (m *Matcher) Template() *template.Node { return m.st }

// Key returns the template's canonical key (template.Node.Key), built
// once, on the first call: scoring keys its memos by it, extraction never
// asks.
func (m *Matcher) Key() string {
	m.keyOnce.Do(func() { m.key = m.st.Key() })
	return m.key
}

// Columns returns the number of field columns of the template (fields
// inside an array body count once).
func (m *Matcher) Columns() int { return m.cols }

// NumArrays returns the number of array occurrences in the template.
func (m *Matcher) NumArrays() int { return len(m.arrNodes) }

// ArrayNode returns the array node at occurrence index i (DFS order over
// the template) — the inverse of ArrayOcc.Arr.
func (m *Matcher) ArrayNode(i int) *template.Node { return m.arrNodes[i] }

// MatchEnds decides whether a record of the template starts at data[pos]
// and where it ends, without touching the heap. truncated reports that a
// failed attempt ran off the end of data — i.e. that appending more bytes
// could turn the failure into a match. The streaming engine uses this to
// defer decisions for lines near a shard boundary instead of finalizing
// them; on a full buffer the flag is irrelevant (no more bytes ever
// arrive).
func (m *Matcher) MatchEnds(data []byte, pos int) (end int, ok, truncated bool) {
	return m.match(0, len(m.prog), data, pos)
}

// match runs ops [lo, hi) from data[pos]: the validate interpreter.
func (m *Matcher) match(lo, hi int, data []byte, pos int) (int, bool, bool) {
	for i := lo; i < hi; i++ {
		o := &m.prog[i]
		switch o.kind {
		case opField:
			for pos < len(data) && !m.stop[data[pos]] {
				pos++
			}
		case opLit:
			if avail := len(data) - pos; avail < len(o.lit) {
				// Running off the buffer after matching every resident
				// byte is not a definitive mismatch.
				return 0, false, string(data[pos:]) == o.lit[:avail]
			}
			if string(data[pos:pos+len(o.lit)]) != o.lit {
				return 0, false, false
			}
			pos += len(o.lit)
		case opArray:
			for {
				end, ok, trunc := m.match(i+1, int(o.end), data, pos)
				if !ok {
					return 0, false, trunc
				}
				if end >= len(data) {
					return 0, false, true
				}
				pos = end + 1
				if data[end] == o.sep {
					continue
				}
				if data[end] != o.term {
					return 0, false, false
				}
				break
			}
			i = int(o.end) - 1
		}
	}
	return pos, true, false
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
// of the template (dense DFS occurrence index, see Matcher.ArrayNode) and
// how many repetitions it matched. A record's occurrences are listed as
// each array terminates (inner before outer). Instances of one array
// occurrence never nest inside each other, so the occurrences of one Arr
// appear in document order: read per array as a FIFO, they replay the
// record's nesting exactly in a top-down template walk (relational
// normalization does). The MDL scorer and array unfolding consume them as
// a multiset.
type ArrayOcc struct {
	Arr, Reps int
}

// arena is the flat occurrence storage the extract interpreter appends
// into.
type arena struct {
	occs   []FieldOcc
	arrays []ArrayOcc
}

func (a *arena) reset() {
	a.occs = a.occs[:0]
	a.arrays = a.arrays[:0]
}

// extract runs ops [lo, hi) from data[pos] like match, appending the
// field occurrences (at repetition rep) and array occurrences it passes
// to a. Its results are match's; on failure a holds the occurrences of the
// partial attempt, which the caller rolls back.
func (m *Matcher) extract(lo, hi int, data []byte, pos, rep int, a *arena) (int, bool, bool) {
	for i := lo; i < hi; i++ {
		o := &m.prog[i]
		switch o.kind {
		case opField:
			start := pos
			for pos < len(data) && !m.stop[data[pos]] {
				pos++
			}
			a.occs = append(a.occs, FieldOcc{Col: int(o.col), Rep: rep, Start: start, End: pos})
		case opLit:
			if avail := len(data) - pos; avail < len(o.lit) {
				return 0, false, string(data[pos:]) == o.lit[:avail]
			}
			if string(data[pos:pos+len(o.lit)]) != o.lit {
				return 0, false, false
			}
			pos += len(o.lit)
		case opArray:
			for r := 0; ; r++ {
				end, ok, trunc := m.extract(i+1, int(o.end), data, pos, r, a)
				if !ok {
					return 0, false, trunc
				}
				if end >= len(data) {
					return 0, false, true
				}
				pos = end + 1
				if data[end] == o.sep {
					continue
				}
				if data[end] != o.term {
					return 0, false, false
				}
				a.arrays = append(a.arrays, ArrayOcc{Arr: int(o.arr), Reps: r + 1})
				break
			}
			i = int(o.end) - 1
		}
	}
	return pos, true, false
}

// AppendRecord parses the record starting at pos and appends its field and
// array occurrences to occs and arrays, caller-owned reusable slices. When
// no record starts at pos the slices come back unextended and ok is false.
func (m *Matcher) AppendRecord(data []byte, pos int, occs []FieldOcc, arrays []ArrayOcc) ([]FieldOcc, []ArrayOcc, bool) {
	a := arena{occs: occs, arrays: arrays}
	if _, ok, _ := m.extract(0, len(m.prog), data, pos, 0, &a); !ok {
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

// reserveMinLines is the number of consumed lines required before reserve
// trusts its extrapolation: growing from a handful of lines would gamble
// hundreds of megabytes on one record's density, while the slices are
// still small enough that runtime growth below the threshold is cheap.
const reserveMinLines = 256

// reserveFor returns s with room for the length extrapolated from its
// current length after done of total lines. It grows s only when that
// projection outgrows cap(s), and then with headroom, so a slightly
// denser tail doesn't force another growth step and a projection that
// creeps up record by record does not regrow s every record. The
// multiply comes before the divide — len/done would truncate densities
// below one entry per line to zero and never reserve.
func reserveFor[T any](s []T, done, total int) []T {
	projected := len(s) * total / done
	if projected <= cap(s) {
		return s
	}
	grown := make([]T, len(s), projected+projected/8+64)
	copy(grown, s)
	return grown
}

// reserve pre-grows the arena to the footprint extrapolated from the
// fraction of lines already consumed. Without it, a full-dataset scan pays
// for the runtime's incremental large-slice growth: a 100 MB arena would be
// copied many times over in 1.25x steps, dwarfing the match work itself.
func (a *arena) reserve(done, total int) {
	if done < reserveMinLines || done >= total {
		return
	}
	a.occs = reserveFor(a.occs, done, total)
	a.arrays = reserveFor(a.arrays, done, total)
}

// reserve pre-grows the result's record slice, noise list and occurrence
// arena the way arena.reserve does.
func (s *ScanResult) reserve(done, total int) {
	if done < reserveMinLines || done >= total {
		return
	}
	s.ar.reserve(done, total)
	s.Records = reserveFor(s.Records, done, total)
	s.NoiseLines = reserveFor(s.NoiseLines, done, total)
}

// recordEnd reports whether a match starting at line i and ending at byte
// end is a record — it must end on a later line boundary — and the line
// it ends before.
func recordEnd(lines *textio.Lines, i, end int) (int, bool) {
	if end == lines.Start(i+1) { // a one-line record, the common case
		return i + 1, true
	}
	endLine, aligned := lines.AlignedLine(end)
	return endLine, aligned && endLine > i
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
// callers that scan repeatedly (candidate evaluation, profile apply). Each
// line costs one extract attempt: a record's occurrences are written as
// it is matched, a failed attempt's are rolled back.
func (m *Matcher) ScanInto(lines *textio.Lines, res *ScanResult) {
	res.Records = res.Records[:0]
	res.NoiseLines = res.NoiseLines[:0]
	res.Coverage, res.FieldBytes = 0, 0
	res.ar.reset()
	n := lines.N()
	for i := 0; i < n; {
		if endLine, ok := m.scanLine(lines, i, res); ok {
			i = endLine
			res.reserve(i, n)
			continue
		}
		res.NoiseLines = append(res.NoiseLines, i)
		i++
	}
}

// scanLine makes ScanInto's attempt at line i: on a record it appends the
// record and its occurrences to res and returns the line it ends before;
// otherwise res is left as it was and ok is false.
func (m *Matcher) scanLine(lines *textio.Lines, i int, res *ScanResult) (endLine int, ok bool) {
	pos := lines.Start(i)
	fieldLo, arrLo := len(res.ar.occs), len(res.ar.arrays)
	if end, ok, _ := m.extract(0, len(m.prog), lines.Data(), pos, 0, &res.ar); ok {
		if endLine, ok := recordEnd(lines, i, end); ok {
			res.Records = append(res.Records, Record{
				StartLine: i, EndLine: endLine, Start: pos, End: end,
				fieldLo: fieldLo, fieldHi: len(res.ar.occs),
				arrLo: arrLo, arrHi: len(res.ar.arrays),
			})
			res.Coverage += end - pos
			for _, f := range res.ar.occs[fieldLo:] {
				res.FieldBytes += f.End - f.Start
			}
			return endLine, true
		}
	}
	res.ar.occs = res.ar.occs[:fieldLo]
	res.ar.arrays = res.ar.arrays[:arrLo]
	return 0, false
}

// Residue is the coverage-only form of Scan: the same greedy walk on the
// validate interpreter, with nothing extracted — no record, no field
// occurrence. It returns what the template leaves behind: uncovered is the
// byte total of the lines no record covers, and residue is those lines
// concatenated in order (nil unless keep), i.e. the input the next
// template of a residue chain sees. The walk gives up — ok false, the
// other results meaningless — as soon as more than maxUncovered bytes are
// certain to stay uncovered.
func (m *Matcher) Residue(lines *textio.Lines, keep bool, maxUncovered int) (residue []byte, uncovered int, ok bool) {
	data, n := lines.Data(), lines.N()
	for i := 0; i < n; {
		if end, matched, _ := m.MatchEnds(data, lines.Start(i)); matched {
			if endLine, ok := recordEnd(lines, i, end); ok {
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
