// Package generation implements the generation and pruning steps of
// Datamaran (§4.1, §4.2, Algorithm 1).
//
// The generation step finds structure-template candidates with at least α%
// coverage without knowing record boundaries: it enumerates RT-CharSet
// values (exhaustively, 2^c subsets, or greedily, O(c²) subsets), treats
// every pair of line boundaries at most L lines apart as a potential
// record, extracts and reduces each potential record to its minimal
// structure template, and accumulates per-template coverage in a hash
// table.
//
// The engine is shape-interned and arena-backed, sharing work across
// charset trials (not just within one):
//
//   - Every distinct tokenized line form ("shape") gets a small integer
//     id; its tokens live in one flat uint16 arena (template.TokField /
//     literal byte), with no per-token heap nodes. Shapes are interned for
//     the generator's lifetime, so a greedy trial that re-derives a shape
//     seen under a previous charset pays a map hit.
//   - A window of lines is identified by its shape sequence, interned
//     incrementally as (previous window id, added shape id) extensions.
//     Extensions resolve through per-shape successor arrays (transition
//     tables): succ[shape][prev+1] is a flat indexed load, no hashing in
//     the 10·n window loop. The reduction of each distinct window
//     identity to a minimal structure template is memoized across all
//     charset trials.
//   - A template is an id until it survives. A distinct window reduces,
//     in the reducer's own buffer, to a sequence of interned ids
//     (template.FlatReducer: flat tokens and arrays interned by body ids;
//     id sequence ↔ normalized tree is a bijection), and the template
//     table is keyed by that sequence. Fields, length, the closing
//     newline and periodic stacks are read off the ids; bins, the global
//     table and the greedy search's assimilation carry a template id.
//     Of the distinct templates of a discovery pass a quarter ever reach
//     α and a tenth are returned, so a *template.Node is built last, in
//     results, for the candidates that survive filter, sort and cut.
//   - Tokenization is incremental: both searches re-shape only the
//     postings of the character that changed, and every other line keeps
//     its shape id — the greedy search adds one character per trial, and
//     the exhaustive search enumerates subsets in Gray-code order
//     (chars.Subsets) so consecutive masks also differ by exactly one
//     character.
//   - Per-trial accumulators (bins, kept finds) are flat slices reused
//     across genST calls, pre-sized by the first trial, so the steady
//     state allocates nothing — and neither does resolving a new window
//     whose template the table already holds; a new template allocates
//     its table entry.
//
// Output — candidate set, order, Coverage, FieldBytes — is identical to
// the reference engine in reference_test.go, pinned by equivalence tests.
//
// The pruning step orders the surviving candidates by the assimilation
// score G(T,S) = Cov × NonFieldCov and keeps the top M.
package generation

import (
	"context"
	"sort"

	"datamaran/internal/chars"
	"datamaran/internal/score"
	"datamaran/internal/template"
	"datamaran/internal/textio"
)

// SearchMode selects how RT-CharSet values are enumerated (§9.1).
type SearchMode int

const (
	// Exhaustive enumerates all 2^c subsets of the present special
	// characters.
	Exhaustive SearchMode = iota
	// Greedy grows the charset one character at a time, keeping the
	// character whose charset produced the highest assimilation score
	// (O(c²) subsets).
	Greedy
)

func (m SearchMode) String() string {
	if m == Greedy {
		return "greedy"
	}
	return "exhaustive"
}

// Config holds the generation-step parameters (Table 2).
type Config struct {
	// Alpha is the minimum coverage threshold as a fraction of the
	// dataset bytes (the paper's α%, default 0.10).
	Alpha float64
	// MaxSpan is L, the maximum number of lines a record may span
	// (default 10; any value <= 0 means the default).
	MaxSpan int
	// Search selects exhaustive or greedy charset enumeration.
	Search SearchMode
	// Candidates is RT-CharSet-Candidate. Zero value means
	// chars.DefaultCandidates().
	Candidates chars.Set
	// MaxExhaustive caps the number of distinct present special
	// characters enumerated exhaustively; beyond it, the most frequent
	// MaxExhaustive characters are used. Default 10, at most
	// maxDerivedChars.
	MaxExhaustive int
	// MaxCandidates caps the number of candidates returned (K).
	// Default 4096.
	MaxCandidates int
	// MaxRecordBytes skips potential records longer than this many
	// bytes (guards pathological spans). Default 1 << 14.
	MaxRecordBytes int
}

func (c Config) withDefaults() Config {
	if c.Alpha == 0 {
		c.Alpha = 0.10
	}
	if c.MaxSpan <= 0 {
		c.MaxSpan = 10
	}
	if c.Candidates.Empty() {
		c.Candidates = chars.DefaultCandidates()
	}
	if c.MaxExhaustive == 0 {
		c.MaxExhaustive = 10
	}
	c.MaxExhaustive = min(c.MaxExhaustive, maxDerivedChars)
	if c.MaxCandidates == 0 {
		c.MaxCandidates = 4096
	}
	if c.MaxRecordBytes == 0 {
		c.MaxRecordBytes = 1 << 14
	}
	// shapeFieldMark (0x01) stands for a field run in interned shape
	// keys and can never be a formatting character: strip it so a
	// pathological candidate set cannot make a literal token collide
	// with the mark (DefaultCandidates holds only printable ASCII and
	// whitespace; both engines share this normalization).
	c.Candidates.Remove(shapeFieldMark)
	return c
}

// Candidate is a structure template surviving the coverage threshold, with
// the coverage statistics estimated during generation.
type Candidate struct {
	Template *template.Node
	// CharSet is the RT-CharSet under which the template was generated.
	CharSet chars.Set
	// Coverage is the total byte length of potential records reducing
	// to this template (an overlap-inflated estimate; exact coverage is
	// recomputed in the evaluation step).
	Coverage int
	// FieldBytes is the byte total of field values in those records.
	FieldBytes int
}

// Assimilation returns G(T,S) for the candidate from the generation-step
// estimates.
func (c Candidate) Assimilation() float64 {
	return score.Assimilation(c.Coverage, c.FieldBytes)
}

// Generate runs the generation step over lines and returns all candidates
// with at least α% coverage, ordered by assimilation score (best first)
// and capped at MaxCandidates.
func Generate(lines *textio.Lines, cfg Config) []Candidate {
	cands, _ := GenerateContext(context.Background(), lines, cfg)
	return cands
}

// GenerateContext is Generate under a context: ctx is polled once per
// RT-CharSet value tried, and a cancelled generation returns ctx.Err() and
// no candidates within one charset trial.
func GenerateContext(ctx context.Context, lines *textio.Lines, cfg Config) ([]Candidate, error) {
	g := newGenerator(lines, cfg)
	if err := g.search(ctx); err != nil {
		return nil, err
	}
	return g.results(), nil
}

// GeneratePruned is the generation step and the pruning step in one, for a
// caller that keeps only the top M structured candidates: of what Generate
// returns it drops the templates that impose no structure
// (template.Structureless), counts the rest — generated, the K of Table 3 —
// and returns the first topM of them (all when topM <= 0). The result is
// Prune of that filtered list, candidate for candidate; the difference is
// that filter, count and cut happen while templates are still ids, so a
// tree is built for topM candidates and not for MaxCandidates.
func GeneratePruned(ctx context.Context, lines *textio.Lines, cfg Config, topM int) (top []Candidate, generated int, err error) {
	g := newGenerator(lines, cfg)
	if err := g.search(ctx); err != nil {
		return nil, 0, err
	}
	top, generated = g.pruned(topM)
	return top, generated, nil
}

// pruned is results for a caller that keeps topM structured candidates.
func (g *generator) pruned(topM int) (top []Candidate, generated int) {
	ranked, ids := g.rank()
	kept := ranked[:0]
	for _, r := range ranked {
		if !g.red.Structureless(ids[r.lo:r.hi]) {
			kept = append(kept, r)
		}
	}
	generated = len(kept)
	if topM > 0 && len(kept) > topM {
		kept = kept[:topM]
	}
	return g.build(kept, ids), generated
}

// CharsetsTried runs a generation and reports how many RT-CharSet values
// were enumerated — the step-complexity experiment of Table 3. It drives
// the same generator and search code as Generate, so the complexity the
// experiment reports is by construction that of the real path.
func CharsetsTried(lines *textio.Lines, cfg Config) int {
	g := newGenerator(lines, cfg)
	_ = g.search(context.Background()) // never cancelled
	return g.charsetsTried
}

// Prune is the pruning step: it keeps the topM candidates by assimilation
// score (§4.2). cands must already be sorted by Generate; Prune re-sorts
// defensively so it can be used on merged candidate lists.
func Prune(cands []Candidate, topM int) []Candidate {
	sortCandidates(cands)
	if topM > 0 && len(cands) > topM {
		cands = cands[:topM]
	}
	return cands
}

// shapeFieldMark is the byte standing for a field run in shape keys (it
// cannot collide with literal tokens: RT-CharSet candidates are printable
// ASCII and whitespace, never 0x01).
const shapeFieldMark = 0x01

// winExt names a window of lines by extension: the window [i, j) is the
// window [i, j-1) (its id) plus the shape of line j-1. Chains of
// extensions intern whole shape sequences without materializing them.
// The hot path resolves extensions through the per-shape transition
// tables; winExt keys only the rare overflow spill (see insertTrans).
type winExt struct {
	prev  int32 // window id of the s-1 prefix (-1 for s=1)
	shape int32 // shape id of the added line
}

// succEntryBudget caps the total int32 entries across all dense
// transition-table rows (16 MiB). Log-like data — few shapes, few window
// identities — stays far under it; a pathological high-entropy input
// whose rows would grow quadratically spills to the succOver map
// instead, trading the indexed load back for a hash probe rather than
// letting memory blow up. Purely a storage decision: lookups consult
// the row first and the spill second, so output is identical.
const succEntryBudget = 1 << 22

// binAcc accumulates one coverage bin for the current charset trial.
// Coverage counts greedily non-overlapping windows only (windows arrive
// in ascending start order), approximating Assumption 1's definition —
// the total length of instantiated records — rather than the
// overlap-inflated sum, which would let stacked multi-line repetitions of
// a one-line template dominate every true multi-line template.
type binAcc struct {
	tpl     int32 // interned template id
	cov     int
	fb      int
	lastEnd int
}

// found is what a Candidate says of its template — the charset it met the
// coverage threshold under, and by how much — while the template is still
// an id (generator.global is indexed by it).
type found struct {
	charSet chars.Set
	cov     int
	fb      int
}

func (f found) assimilation() float64 { return score.Assimilation(f.cov, f.fb) }

// generator holds the engine state. Everything below the per-trial
// section lives for the generator's lifetime: shapes, window identities
// and reduced templates discovered under one charset are reused by every
// later trial.
type generator struct {
	lines     *textio.Lines
	data      []byte
	n         int
	cfg       Config
	present   chars.Set
	threshold int

	// charsetsTried counts genST invocations (for complexity tests).
	charsetsTried int

	// Shape interner: shapeIDs maps a shape key (line bytes with field
	// runs collapsed to shapeFieldMark) to a shape id; the id's flat
	// tokens are toks[shapeOff[id]:shapeOff[id+1]].
	shapeIDs map[string]int32
	toks     []uint16
	shapeOff []int32
	keyBuf   []byte

	// Per-line tokenization state: the shape id and field bytes of every
	// line under the current trial's charset, and the postings of each
	// candidate character — the lines a one-character change re-shapes.
	lineIdx   *chars.LineIndex
	lineShape []int32
	lineFB    []int
	tokBuf    []uint16

	// Window-identity transition tables: succ[shape] is a successor row
	// indexed by prev+1 (row 0 is the root, prev = -1) holding the
	// window id of the (prev, shape) extension, -1 when not yet
	// interned. Rows grow geometrically per shape, bounded in total by
	// succBudget; insertions past the budget spill to succOver. winTpl
	// maps a window id to its reduced template id (-1 = not a valid
	// record template), memoized across all charset trials.
	succ       [][]int32
	succLen    int // total dense entries allocated across rows
	succBudget int
	succOver   map[winExt]int32
	winTpl     []int32
	winBuf     []uint16
	red        template.FlatReducer

	// Interned reduced templates. A template is the id sequence red
	// reduces a window to (template.FlatReducer: id sequence ↔ normalized
	// tree is a bijection), keyed by the ids' raw bytes; tplKeys[id] is
	// that key, from which results decodes the ids of the few templates it
	// returns. No tree exists before results builds one.
	tplIDs  map[string]int32
	tplKeys []string
	built   int // trees results has built (laziness tests)

	// Derived-shape state for the exhaustive search (initDerived /
	// toggleChar): after the first full-charset trial tokenizes every
	// line byte-level, later trials never touch line bytes again — a
	// line's shape under any subset charset is derived from its
	// full-charset shape by turning dropped literals into field runs
	// (memoized per (full shape, surviving-char mask)), and its field
	// bytes follow arithmetically from the per-line character counts.
	members   []byte           // capped present members, ascending
	memberBit [256]int8        // byte → index in members, -1 otherwise
	lineFull  []int32          // shape id under the full capped charset
	lineMask  []uint16         // current local literal mask (bits local to the line's full shape)
	lineCnt   []int32          // lineCnt[i*K+m]: occurrences of members[m] in line i
	fsInfo    []*fullShapeInfo // per shape id; non-nil only for full-charset shapes

	// Per-trial accumulators, reused across genST calls (binOf is reset
	// to -1 for the touched templates at the end of each trial; bins and
	// kept keep their capacity — after the first trial sizes them, the
	// steady state allocates nothing).
	binOf []int32
	bins  []binAcc
	kept  []found

	// Best find per template id across charsets (the global hash table of
	// Algorithm 1): same template from different charsets keeps the
	// higher-coverage estimate. cov is 0 until a charset finds the
	// template (a bin holds at least one non-empty window).
	global []found
}

func newGenerator(lines *textio.Lines, cfg Config) *generator {
	cfg = cfg.withDefaults()
	n := lines.N()
	g := &generator{
		lines:      lines,
		data:       lines.Data(),
		n:          n,
		cfg:        cfg,
		threshold:  int(cfg.Alpha * float64(len(lines.Data()))),
		shapeIDs:   make(map[string]int32, 64),
		shapeOff:   make([]int32, 1, 65),
		lineIdx:    chars.BuildLineIndex(n, lines.Line, cfg.Candidates),
		lineShape:  make([]int32, n),
		lineFB:     make([]int, n),
		succBudget: succEntryBudget,
		tplIDs:     make(map[string]int32, 64),
	}
	g.present = chars.Present(cfg.Candidates, g.data)
	return g
}

// search dispatches on the configured search mode. Generate and
// CharsetsTried share this one driver.
func (g *generator) search(ctx context.Context) error {
	switch g.cfg.Search {
	case Greedy:
		return g.greedySearch(ctx)
	default:
		return g.exhaustiveSearch(ctx)
	}
}

// maxDerivedChars bounds the charset width the exhaustive search handles
// (local masks are uint16, and per-shape memo rows are 2^k entries for a
// shape with k literal characters). Config.withDefaults holds
// MaxExhaustive (default 10) to it: past it a search would enumerate 2^17+
// subsets.
const maxDerivedChars = 16

// exhaustiveSearch enumerates all subsets of the present candidates
// (restricted to the MaxExhaustive most frequent characters when there are
// too many). chars.Subsets walks the masks in Gray-code order, so
// consecutive trials differ by exactly one character: after the first
// trial tokenizes every line under the full set, each later trial only
// toggles that character's postings — deriving each affected line's new
// shape from its full-charset shape without touching the line's bytes
// (every other line's charset intersection, and so its shape, is
// provably unchanged).
func (g *generator) exhaustiveSearch(ctx context.Context) error {
	present := capCharset(g.lines, g.cfg, g.present)
	first := true
	var prev chars.Set
	var err error
	chars.Subsets(present, func(s chars.Set) bool {
		if err = ctx.Err(); err != nil {
			return false
		}
		if first {
			first = false
			g.genST(s)
			g.initDerived(present)
		} else {
			diff := s.Minus(prev).Union(prev.Minus(s))
			for _, c := range diff.Bytes() {
				g.toggleChar(c, s.Contains(c))
			}
			g.accumulate(s)
		}
		prev = s
		return true
	})
	return err
}

// fullShapeInfo is the derived-shape memo of one full-charset shape:
// which member characters appear as literals (localBit, assigning each a
// bit local to this shape) and the interned shape id of every literal
// subset already derived (row, indexed by local mask; the all-ones mask
// is the full shape itself).
type fullShapeInfo struct {
	localBit [maxDerivedChars]int8
	row      []int32
}

// initDerived prepares the derived-shape state after the first
// exhaustive trial: per-line member-character counts (one pass over the
// data — the last time any line's bytes are read), the full-charset
// shape and all-literals mask of every line, and the per-shape memo rows.
func (g *generator) initDerived(present chars.Set) {
	g.members = present.Bytes()
	k := len(g.members)
	for i := range g.memberBit {
		g.memberBit[i] = -1
	}
	for m, c := range g.members {
		g.memberBit[c] = int8(m)
	}
	g.lineFull = append([]int32(nil), g.lineShape...)
	g.lineMask = make([]uint16, g.n)
	g.lineCnt = make([]int32, g.n*k)
	g.fsInfo = make([]*fullShapeInfo, len(g.shapeOff)-1)
	for i := 0; i < g.n; i++ {
		if k > 0 {
			cnt := g.lineCnt[i*k : i*k+k]
			for _, b := range g.lines.Line(i) {
				if m := g.memberBit[b]; m >= 0 {
					cnt[m]++
				}
			}
		}
		info := g.fullInfo(g.lineShape[i])
		g.lineMask[i] = uint16(len(info.row) - 1)
	}
}

// fullInfo returns (building on first use) the derived-shape memo of a
// full-charset shape id.
func (g *generator) fullInfo(id int32) *fullShapeInfo {
	if info := g.fsInfo[id]; info != nil {
		return info
	}
	info := &fullShapeInfo{}
	var inShape [maxDerivedChars]bool
	for _, tok := range g.toks[g.shapeOff[id]:g.shapeOff[id+1]] {
		if tok < 256 && tok != '\n' {
			if m := g.memberBit[byte(tok)]; m >= 0 {
				inShape[m] = true
			}
		}
	}
	bits := 0
	for m := range info.localBit {
		info.localBit[m] = -1
		if inShape[m] {
			info.localBit[m] = int8(bits)
			bits++
		}
	}
	info.row = make([]int32, 1<<bits)
	for j := range info.row {
		info.row[j] = -1
	}
	info.row[len(info.row)-1] = id
	g.fsInfo[id] = info
	return info
}

// toggleChar updates every line containing c for a trial charset that
// added or removed exactly c: the line's field bytes move by its count
// of c (a dropped formatting character's occurrences become field
// bytes), and its shape follows from the memo row of its full-charset
// shape — deriving and interning the subset shape once per (full shape,
// mask), not per line per trial.
func (g *generator) toggleChar(c byte, added bool) {
	m := int(g.memberBit[c])
	k := len(g.members)
	for _, li := range g.lineIdx.Lines(c) {
		i := int(li)
		full := g.lineFull[i]
		info := g.fsInfo[full]
		lb := info.localBit[m]
		if lb < 0 {
			// c is in the line's bytes, so under the full charset it
			// must be one of the shape's literals.
			panic("generation: posted character missing from full shape")
		}
		cnt := int(g.lineCnt[i*k+m])
		mask := g.lineMask[i]
		if added {
			mask |= 1 << uint(lb)
			g.lineFB[i] -= cnt
		} else {
			mask &^= 1 << uint(lb)
			g.lineFB[i] += cnt
		}
		g.lineMask[i] = mask
		id := info.row[mask]
		if id < 0 {
			id = g.deriveShape(full, info, mask)
			info.row[mask] = id
		}
		g.lineShape[i] = id
	}
}

// deriveShape builds the shape of a full-charset shape restricted to the
// literal characters in mask: dropped literals become field runs, merged
// with any adjacent field runs — exactly the tokenization the byte-level
// path would produce under the smaller charset, without reading any line
// bytes. The result is interned like any other shape.
func (g *generator) deriveShape(full int32, info *fullShapeInfo, mask uint16) int32 {
	buf := g.tokBuf[:0]
	prevField := false
	for _, tok := range g.toks[g.shapeOff[full]:g.shapeOff[full+1]] {
		lit := false
		if tok != template.TokField {
			if b := byte(tok); b == '\n' {
				lit = true
			} else if lb := info.localBit[g.memberBit[b]]; mask&(1<<uint(lb)) != 0 {
				lit = true
			}
		}
		if lit {
			buf = append(buf, tok)
			prevField = false
		} else if !prevField {
			buf = append(buf, template.TokField)
			prevField = true
		}
	}
	g.tokBuf = buf
	return g.internShape(buf)
}

// greedySearch implements Algorithm 1's GreedySearch: starting from the
// empty charset, repeatedly add the character whose charset yields the
// best assimilation score, until a round produces no template with α%
// coverage. Each trial charset is the current charset plus one character,
// so only that character's postings are re-tokenized; every other line
// keeps its shape id from the current-charset snapshot.
func (g *generator) greedySearch(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	var cur chars.Set
	g.genST(cur) // the empty charset still yields line templates F\n etc.

	// Snapshot the tokenization under cur; trials restore it.
	baseShape := append([]int32(nil), g.lineShape...)
	baseFB := append([]int(nil), g.lineFB...)

	remaining := g.present.Bytes()
	for len(remaining) > 0 {
		bestScore := -1.0
		bestIdx := -1
		for i, c := range remaining {
			if err := ctx.Err(); err != nil {
				return err
			}
			trial := cur
			trial.Add(c)
			posted := g.lineIdx.Lines(c)
			for _, li := range posted {
				g.shapeLine(int(li), trial)
			}
			for _, f := range g.accumulate(trial) {
				if a := f.assimilation(); a > bestScore {
					bestScore = a
					bestIdx = i
				}
			}
			for _, li := range posted {
				g.lineShape[li] = baseShape[li]
				g.lineFB[li] = baseFB[li]
			}
		}
		if bestIdx < 0 {
			break // no charset this round produced an α%-coverage template
		}
		c := remaining[bestIdx]
		cur.Add(c)
		for _, li := range g.lineIdx.Lines(c) {
			g.shapeLine(int(li), cur)
			baseShape[li] = g.lineShape[li]
			baseFB[li] = g.lineFB[li]
		}
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
	}
	return nil
}

// capCharset restricts an oversized charset to the most frequent
// MaxExhaustive characters in the data. Equal frequencies tie-break on
// byte value: the comparator must be a total order, or which character
// survives the cut would depend on sort.Slice's (unstable, Go-release-
// dependent) internals — and since the reference engine shares this
// helper, the oracle suite could never catch that drift.
func capCharset(lines *textio.Lines, cfg Config, present chars.Set) chars.Set {
	if present.Len() <= cfg.MaxExhaustive {
		return present
	}
	var freq [256]int
	for _, b := range lines.Data() {
		if present.Contains(b) {
			freq[b]++
		}
	}
	members := present.Bytes()
	sort.Slice(members, func(i, j int) bool {
		if freq[members[i]] != freq[members[j]] {
			return freq[members[i]] > freq[members[j]]
		}
		return members[i] < members[j]
	})
	var capped chars.Set
	for _, b := range members[:cfg.MaxExhaustive] {
		capped.Add(b)
	}
	return capped
}

// shapeLine tokenizes line i under rtset (template.AppendFlatTokens is
// the one flat tokenizer), interning the resulting shape.
func (g *generator) shapeLine(i int, rtset chars.Set) {
	var fb int
	g.tokBuf, fb = template.AppendFlatTokens(g.tokBuf[:0], g.lines.Line(i), rtset)
	g.lineShape[i] = g.internShape(g.tokBuf)
	g.lineFB[i] = fb
}

// internShape interns a flat token sequence, returning its shape id
// (allocating the id, its arena block, and its transition row on first
// sight). Shared by the byte-level tokenizer (shapeLine) and the
// derived-shape path (deriveShape), so both produce the same ids for the
// same token sequence.
func (g *generator) internShape(toks []uint16) int32 {
	key := g.keyBuf[:0]
	for _, tok := range toks {
		if tok == template.TokField {
			key = append(key, shapeFieldMark)
		} else {
			key = append(key, byte(tok))
		}
	}
	g.keyBuf = key
	id, ok := g.shapeIDs[string(key)]
	if !ok {
		id = int32(len(g.shapeOff) - 1)
		g.shapeIDs[string(key)] = id
		g.toks = append(g.toks, toks...)
		g.shapeOff = append(g.shapeOff, int32(len(g.toks)))
		g.succ = append(g.succ, nil) // transition row, grown on demand
	}
	return id
}

// genST is Algorithm 1's GenST for one RT-CharSet value: tokenize every
// line (shape-memoized), then run the window accumulation.
func (g *generator) genST(rtset chars.Set) []found {
	for i := 0; i < g.n; i++ {
		g.shapeLine(i, rtset)
	}
	return g.accumulate(rtset)
}

// accumulate enumerates all potential records (line-boundary pairs at
// most L apart) over the current per-line shapes and accumulates coverage
// per reduced template. It returns the candidates from this charset that
// meet the coverage threshold. Expensive work — reducing a window to its
// minimal template — happens once per distinct window identity across ALL
// trials; each window's identity resolves from its one-line-shorter
// prefix's through the flat per-shape transition tables, so the 10·n loop
// below is indexed loads and flat slices — no hashing at all on the
// steady path. Besides those interned tables, which depend only on the
// shape sequences they were built from, the loop reads nothing but the
// lines' current shapes and field bytes: a trial's finds depend on its
// charset alone (TestTrialDependsOnlyOnCharset).
func (g *generator) accumulate(rtset chars.Set) []found {
	g.charsetsTried++
	if len(g.data) == 0 {
		return nil
	}
	n := g.n
	for i := 0; i < n; i++ {
		start := g.lines.Start(i)
		hi := i + min(g.cfg.MaxSpan, n-i) // the last window end
		prev := int32(-1)
		fb := 0
		for j := i + 1; j <= hi; j++ {
			end := g.lines.Start(j)
			if end-start > g.cfg.MaxRecordBytes {
				break
			}
			shape := g.lineShape[j-1]
			wid := g.lookupTrans(prev, shape)
			if wid < 0 {
				wid = int32(len(g.winTpl))
				g.insertTrans(prev, shape, wid)
				g.winTpl = append(g.winTpl, g.resolveWindow(i, j))
			}
			prev = wid
			fb += g.lineFB[j-1]
			ti := g.winTpl[wid]
			if ti < 0 {
				continue
			}
			bi := g.binOf[ti]
			if bi < 0 {
				bi = int32(len(g.bins))
				g.binOf[ti] = bi
				g.bins = append(g.bins, binAcc{tpl: ti})
			}
			b := &g.bins[bi]
			if i >= b.lastEnd {
				b.cov += end - start
				b.fb += fb
				b.lastEnd = j
			}
		}
	}

	// Keep templates meeting the coverage threshold; merge into the
	// global bins, then reset the per-trial state for the next charset.
	kept := g.kept[:0]
	for bi := range g.bins {
		b := &g.bins[bi]
		g.binOf[b.tpl] = -1
		if b.cov < g.threshold {
			continue
		}
		f := found{charSet: rtset, cov: b.cov, fb: b.fb}
		kept = append(kept, f)
		if f.cov > g.global[b.tpl].cov {
			g.global[b.tpl] = f
		}
	}
	g.bins = g.bins[:0]
	g.kept = kept
	return kept
}

// lookupTrans resolves the (prev, shape) window extension to its window
// id, or -1 when the extension has not been interned yet. The dense row
// is authoritative for ids it holds; a -1 slot falls through to the
// overflow spill, which may have received the insert when the row was
// shorter (rows only grow, and fresh growth is filled with -1).
func (g *generator) lookupTrans(prev, shape int32) int32 {
	row := g.succ[shape]
	if idx := int(prev) + 1; idx < len(row) {
		if wid := row[idx]; wid >= 0 {
			return wid
		}
	}
	if g.succOver != nil {
		if wid, ok := g.succOver[winExt{prev: prev, shape: shape}]; ok {
			return wid
		}
	}
	return -1
}

// insertTrans records the (prev, shape) → wid extension, growing shape's
// dense row geometrically while the total stays under succBudget and
// spilling to the overflow map beyond it.
func (g *generator) insertTrans(prev, shape, wid int32) {
	idx := int(prev) + 1
	row := g.succ[shape]
	if idx >= len(row) {
		need := idx + 1
		newLen := 2 * len(row)
		if newLen < need {
			newLen = need
		}
		if newLen < 8 {
			newLen = 8
		}
		if g.succLen+newLen-len(row) > g.succBudget {
			if g.succLen+need-len(row) <= g.succBudget {
				newLen = need // no headroom for geometric growth, exact fit
			} else {
				if g.succOver == nil {
					g.succOver = make(map[winExt]int32)
				}
				g.succOver[winExt{prev: prev, shape: shape}] = wid
				return
			}
		}
		grown := make([]int32, newLen)
		copy(grown, row)
		for k := len(row); k < newLen; k++ {
			grown[k] = -1
		}
		g.succLen += newLen - len(row)
		g.succ[shape] = grown
		row = grown
	}
	row[idx] = wid
}

// resolveWindow reduces the window of lines [i, j) to the id sequence of
// its minimal structure template and interns it, returning the template id
// or -1 when the window is not a valid record template (no fields, or not
// newline-terminated). Called once per distinct window identity; a window
// whose template is already interned allocates nothing, a new template its
// table entry.
func (g *generator) resolveWindow(i, j int) int32 {
	if g.data[g.lines.Start(j)-1] != '\n' {
		return -1 // final line without a trailing newline
	}
	w := g.winBuf[:0]
	for k := i; k < j; k++ {
		sid := g.lineShape[k]
		w = append(w, g.toks[g.shapeOff[sid]:g.shapeOff[sid+1]]...)
	}
	g.winBuf = w
	ids := g.red.ReduceIDs(w)
	if len(ids) == 0 || !g.red.EndsLine(ids[len(ids)-1]) {
		return -1
	}
	hasField := false
	for _, id := range ids {
		if g.red.NumFields(id) > 0 {
			hasField = true
			break
		}
	}
	if !hasField {
		return -1
	}
	g.keyBuf = template.AppendIDKey(g.keyBuf[:0], ids)
	id, ok := g.tplIDs[string(g.keyBuf)]
	if !ok {
		id = int32(len(g.tplKeys))
		key := string(g.keyBuf)
		g.tplIDs[key] = id
		g.tplKeys = append(g.tplKeys, key)
		g.binOf = append(g.binOf, -1)
		g.global = append(g.global, found{})
	}
	return id
}

// ranked is a found template while it is still an id sequence, with what
// the candidate order needs: its ids (ids[lo:hi] of the slice rank returns
// beside it), its Len, and its Key once a tie has asked for it.
type ranked struct {
	found
	lo, hi int
	assim  float64
	length int
	key    string
}

// results turns the global table into the candidate list, on ids until the
// last step: drop the periodic stacks, order by assimilation, cut to
// MaxCandidates, and only then build a tree per survivor.
func (g *generator) results() []Candidate {
	return g.build(g.rank())
}

// rank returns the found templates in candidate order, periodic stacks
// dropped and the list cut to MaxCandidates, as runs of ids.
func (g *generator) rank() ([]ranked, []int32) {
	n := 0
	for _, f := range g.global {
		if f.cov > 0 {
			n++
		}
	}
	out := make([]ranked, 0, n)
	var ids []int32
	for ti, f := range g.global {
		if f.cov == 0 {
			continue
		}
		lo := len(ids)
		ids = template.DecodeIDs(ids, g.tplKeys[ti])
		if g.red.IsPeriodicStack(ids[lo:]) {
			// A k-fold stack of a shorter template (its 1-period
			// form is a separate bin with at least the same
			// coverage). Stacks flood the top-M pool with
			// near-duplicates of every popular one-record shape.
			ids = ids[:lo]
			continue
		}
		r := ranked{found: f, lo: lo, hi: len(ids), assim: f.assimilation()}
		for _, id := range ids[lo:] {
			r.length += g.red.Len(id)
		}
		out = append(out, r)
	}
	keyOf := func(r *ranked) string {
		if r.key == "" {
			g.keyBuf = g.red.AppendKey(g.keyBuf[:0], ids[r.lo:r.hi])
			r.key = string(g.keyBuf)
		}
		return r.key
	}
	// The order of sortCandidates; Template.Len and Template.Key come
	// from the ids.
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.assim != b.assim {
			return a.assim > b.assim
		}
		if a.length != b.length {
			return a.length < b.length
		}
		return keyOf(a) < keyOf(b)
	})
	if len(out) > g.cfg.MaxCandidates {
		out = out[:g.cfg.MaxCandidates]
	}
	return out, ids
}

// build makes the candidates of ranked templates: a tree each.
func (g *generator) build(out []ranked, ids []int32) []Candidate {
	cands := make([]Candidate, len(out))
	for k, r := range out {
		g.built++
		cands[k] = Candidate{
			Template:   g.red.Build(ids[r.lo:r.hi]),
			CharSet:    r.charSet,
			Coverage:   r.cov,
			FieldBytes: r.fb,
		}
	}
	return cands
}

// sortCandidates orders candidates by assimilation, best first.
func sortCandidates(cands []Candidate) {
	sort.Slice(cands, func(i, j int) bool {
		ai, aj := cands[i].Assimilation(), cands[j].Assimilation()
		if ai != aj {
			return ai > aj
		}
		// Deterministic tie-break: the shorter template wins (a
		// k-fold stack of a true multi-line template ties its
		// coverage but is k times longer), then key order.
		li, lj := cands[i].Template.Len(), cands[j].Template.Len()
		if li != lj {
			return li < lj
		}
		return cands[i].Template.Key() < cands[j].Template.Key()
	})
}
