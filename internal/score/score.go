// Package score implements Datamaran's two scoring functions:
//
//   - the assimilation score G(T,S) = Cov(T,S) × Non_Field_Cov(T,S) used
//     by the pruning step (§4.2), and
//   - the default regularity score F(T,S): a minimum-description-length
//     measure of the dataset under a structure template (§9.2, Alg 2),
//     where a lower bit count means a more plausible structure.
//
// The regularity score is pluggable by design (the paper stresses that
// Datamaran works with any reasonable scoring modality); the pipeline
// accepts any Scorer.
package score

import (
	"math"

	"datamaran/internal/parser"
	"datamaran/internal/textio"
)

// Assimilation computes G(T,S) from a template's byte coverage and the
// byte total of its field values. It distinguishes both redundancy
// sources of Figure 11: sub-templates of multi-line templates lose
// coverage, and templates that demote formatting characters to field
// values lose non-field coverage.
func Assimilation(coverage, fieldBytes int) float64 {
	nonField := coverage - fieldBytes
	if nonField < 0 {
		nonField = 0
	}
	return float64(coverage) * float64(nonField)
}

// FieldType is the value type assigned to a field column when computing
// the description length (§9.2).
type FieldType uint8

const (
	// TInt is an integer column: values cost ⌈log2(max−min+1)⌉ bits.
	TInt FieldType = iota
	// TReal is a fixed-point real column: values cost
	// ⌈log2((max−min)·10^exp+1)⌉ bits.
	TReal
	// TEnum is an enumerated column: values cost ⌈log2 n_distinct⌉ bits.
	TEnum
	// TString is a free string column: values cost (len+1)·8 bits.
	TString
)

func (t FieldType) String() string {
	switch t {
	case TInt:
		return "int"
	case TReal:
		return "real"
	case TEnum:
		return "enum"
	case TString:
		return "string"
	}
	return "?"
}

// enumMaxDistinct caps the number of distinct values a column may have and
// still be typed as enumerated.
const enumMaxDistinct = 64

// enumHashSlots sizes the open-addressed distinct-value set: a power of
// two with at most 50% load at the enum cap, so probes stay short and the
// table never fills.
const enumHashSlots = 128

// colStats accumulates per-column statistics during the scan pass. The
// distinct-value set is a fixed open-addressed table of 64-bit FNV-1a
// hashes — no per-value string allocation, no map — sized for the
// enumMaxDistinct cap (a 2⁻⁶⁴-scale hash collision can at worst merge two
// distinct values in a heuristic score).
type colStats struct {
	count         int
	allInt        bool
	allReal       bool
	minI, maxI    int64
	minR, maxR    float64
	maxExp        int
	distinct      int  // number of distinct values inserted
	distinctBytes int  // total byte length of the distinct values
	overflow      bool // too many distinct values to be an enum
	hashes        [enumHashSlots]uint64
}

func (c *colStats) init() {
	c.allInt, c.allReal = true, true
}

func hashValue(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, x := range b {
		h ^= uint64(x)
		h *= prime64
	}
	if h == 0 {
		h = offset64 // reserve 0 as the empty-slot marker
	}
	return h
}

func (c *colStats) add(val []byte) {
	c.count++
	if !c.overflow {
		h := hashValue(val)
		i := h & (enumHashSlots - 1)
		for c.hashes[i] != 0 && c.hashes[i] != h {
			i = (i + 1) & (enumHashSlots - 1)
		}
		if c.hashes[i] == 0 {
			c.hashes[i] = h
			c.distinct++
			c.distinctBytes += len(val)
			if c.distinct > enumMaxDistinct {
				c.overflow = true
			}
		}
	}
	if c.allInt {
		if v, ok := parseInt(val); ok {
			if c.count == 1 || v < c.minI {
				c.minI = v
			}
			if c.count == 1 || v > c.maxI {
				c.maxI = v
			}
		} else {
			c.allInt = false
		}
	}
	if c.allReal {
		if v, exp, ok := parseReal(val); ok {
			if c.count == 1 || v < c.minR {
				c.minR = v
			}
			if c.count == 1 || v > c.maxR {
				c.maxR = v
			}
			if exp > c.maxExp {
				c.maxExp = exp
			}
		} else {
			c.allReal = false
		}
	}
}

// resolve picks the column type by analyzing the accumulated values:
// integer if every value is an integer, else real if every value is a
// fixed-point number, else enumerated if the distinct-value count is
// small, else string.
func (c *colStats) resolve() FieldType {
	switch {
	case c.count == 0:
		return TString
	case c.allInt:
		return TInt
	case c.allReal:
		return TReal
	case !c.overflow:
		return TEnum
	default:
		return TString
	}
}

// bits returns the per-value description cost for resolved type t,
// plus a one-time model cost (the enum dictionary).
func (c *colStats) bits(t FieldType) (perValue float64, model float64) {
	switch t {
	case TInt:
		return ceilLog2(float64(c.maxI-c.minI) + 1), 0
	case TReal:
		span := (c.maxR - c.minR) * math.Pow(10, float64(c.maxExp))
		return ceilLog2(span + 1), 0
	case TEnum:
		// Dictionary: each distinct value costs (len+1)·8 bits.
		dict := float64(c.distinctBytes+c.distinct) * 8
		return ceilLog2(float64(c.distinct)), dict
	default: // TString: cost depends on each value's length.
		return 0, 0
	}
}

func ceilLog2(x float64) float64 {
	if x <= 1 {
		return 0
	}
	return math.Ceil(math.Log2(x))
}

func parseInt(b []byte) (int64, bool) {
	if len(b) == 0 || len(b) > 18 {
		return 0, false
	}
	i := 0
	neg := false
	if b[0] == '-' || b[0] == '+' {
		neg = b[0] == '-'
		i++
		if i == len(b) {
			return 0, false
		}
	}
	var v int64
	for ; i < len(b); i++ {
		if b[i] < '0' || b[i] > '9' {
			return 0, false
		}
		v = v*10 + int64(b[i]-'0')
	}
	if neg {
		v = -v
	}
	return v, true
}

// negPow10[e] is math.Pow(10, -e), the weight of the e-th fractional
// digit, for every e a parseReal input (at most 24 bytes) can reach.
var negPow10 = func() (t [24]float64) {
	for e := range t {
		t[e] = math.Pow(10, -float64(e))
	}
	return t
}()

// parseReal accepts optional sign, digits, optional '.digits'. It returns
// the value and the number of digits after the decimal point.
func parseReal(b []byte) (float64, int, bool) {
	if len(b) == 0 || len(b) > 24 {
		return 0, 0, false
	}
	i := 0
	neg := false
	if b[0] == '-' || b[0] == '+' {
		neg = b[0] == '-'
		i++
	}
	digits := 0
	var v float64
	for ; i < len(b); i++ {
		if b[i] < '0' || b[i] > '9' {
			break
		}
		v = v*10 + float64(b[i]-'0')
		digits++
	}
	exp := 0
	if i < len(b) && b[i] == '.' {
		i++
		for ; i < len(b); i++ {
			if b[i] < '0' || b[i] > '9' {
				return 0, 0, false
			}
			exp++
			v += float64(b[i]-'0') * negPow10[exp]
			digits++
		}
	}
	if i != len(b) || digits == 0 {
		return 0, 0, false
	}
	if neg {
		v = -v
	}
	return v, exp, true
}

// Result holds the outcome of scoring one template against a dataset.
type Result struct {
	// Bits is the total description length F(T,S); lower is better.
	Bits float64
	// Records is the number of matched records.
	Records int
	// Coverage is the total byte length of matched records.
	Coverage int
	// NoiseLines is the number of uncovered lines.
	NoiseLines int
	// ColumnTypes lists the resolved type of each field column.
	ColumnTypes []FieldType
}

// Scorer evaluates the regularity of a template over a dataset. Datamaran
// treats this as a black box (§4, "The Regularity Scoring Function").
type Scorer interface {
	Score(m *parser.Matcher, lines *textio.Lines) Result
}

// Scan is a template's scan together with the column statistics scoring
// it gathered. Refinement keeps one per member of a template's lineage —
// the parent its unfold variants are derived from, the round's best
// variant, the variant being scored — so a variant's statistics can be
// copied from its parent's where it kept the parent's columns, and a
// winning variant's carried forward as the next parent's.
type Scan struct {
	parser.ScanResult
	cols []colStats
}

// ScanCache is the scan storage the evaluation passes of one discovery
// round share — plain scoring and refinement. It owns the arena every
// Score through it scans into, whose scan does not outlive the next one;
// the three scans of a refinement lineage (see Lineage), which do, each
// until refinement writes it again; and the MDL scorer's per-column
// scratch. A round that scores thousands of templates holds four
// ScanResults, not one per template. A nil *ScanCache is valid: every scan
// is then made fresh. A ScanCache is not safe for concurrent use.
type ScanCache struct {
	scan    Scan
	lineage [3]Scan
	// Scratch of MDL.Score, reused across calls.
	perVal    []float64
	arrayMax  []int
	arrayBits []float64
}

// NewScanCache returns an empty cache.
func NewScanCache() *ScanCache { return new(ScanCache) }

// Lineage returns the cache's three refinement scans (see Scan). Their
// storage outlives a refinement and is reused by the next one; which of
// them holds what is the caller's to track.
func (c *ScanCache) Lineage() (*Scan, *Scan, *Scan) {
	return &c.lineage[0], &c.lineage[1], &c.lineage[2]
}

// MDL is the default minimum-description-length Scorer (§9.2). The zero
// value scans into a fresh arena per call; set Cache to score the templates
// of one evaluation round through one reused arena (see ScanCache).
type MDL struct {
	// Cache, when non-nil, owns the arena and scratch Score works in.
	Cache *ScanCache
}

// NoiseBudget returns the number of uncovered line bytes a template must
// stay below to score under bits: Score charges 32 bits for the block
// count and 8 per byte of noise line, and every other term is
// non-negative, so a template leaving NoiseBudget(bits) bytes or more as
// noise has Bits ≥ bits. Evaluation prunes its refinement set with it (see
// refine.CertainNoise).
func (MDL) NoiseBudget(bits float64) int {
	switch budget := math.Ceil((bits - 32) / 8); {
	case budget <= 0:
		return 0
	case budget >= math.MaxInt:
		return math.MaxInt
	default:
		return int(budget)
	}
}

// Score parses the dataset with the template and computes the total
// description length:
//
//	len(ST)·8 + 32 + m  (structure template, block count, record/noise flags)
//	+ Σ_noise len·8
//	+ Σ_records D(RT|ST) + D(record|RT)
//
// where D(RT|ST) describes array repetition counts and D(record|RT)
// describes field values under per-column types. It consumes the scan's
// flat occurrence arenas directly — no parse trees are walked.
func (s MDL) Score(m *parser.Matcher, lines *textio.Lines) Result {
	c := s.Cache
	if c == nil {
		c = new(ScanCache)
	}
	m.ScanInto(lines, &c.scan.ScanResult)
	return c.score(m, lines, &c.scan, nil, parser.Derivation{})
}

// ScoreScan is Score over a scan of m's template handed in: scan, made by
// the caller — with Matcher.ScanInto, or with Matcher.DeriveScan from
// from, the scan of the template m's unfolds, itself scored through
// ScoreScan, d being what DeriveScan reported (from nil when scan was not
// derived). The result is Score's,
// bit for bit. Where d says the variant kept every parent record, the
// statistics of the columns outside the split ones are copied from from's
// instead of gathered again: each holds the same values as its parent
// column, and every statistic the score reads — count, integer and real
// ranges, decimal places, the distinct set up to the enum cap — is a
// function of a column's values, not of their order. scan keeps the
// statistics it was scored with, so it can be the next derivation's from.
func (s MDL) ScoreScan(m *parser.Matcher, lines *textio.Lines, scan, from *Scan, d parser.Derivation) Result {
	c := s.Cache
	if c == nil {
		c = new(ScanCache)
	}
	return c.score(m, lines, scan, from, d)
}

// score is Score's description length of scan, gathering scan's column
// statistics on the way (see ScoreScan for from and d).
func (c *ScanCache) score(m *parser.Matcher, lines *textio.Lines, scan, from *Scan, d parser.Derivation) Result {
	data := lines.Data()

	// Pass 1: per-column stats and per-array repetition stats.
	scan.cols = append(scan.cols[:0], make([]colStats, m.Columns())...)
	cols := scan.cols
	copied := from != nil && d.KeptAll
	for i := range cols {
		if copied && (i < d.Lo || i >= d.Hi) {
			cols[i] = from.cols[d.Parent(i)]
		} else {
			cols[i].init()
		}
	}
	for _, f := range scan.AllFields() {
		if copied && (f.Col < d.Lo || f.Col >= d.Hi) {
			continue
		}
		cols[f.Col].add(data[f.Start:f.End])
	}
	c.arrayMax = append(c.arrayMax[:0], make([]int, m.NumArrays())...)
	for _, a := range scan.AllArrays() {
		c.arrayMax[a.Arr] = max(c.arrayMax[a.Arr], a.Reps)
	}
	types := make([]FieldType, len(cols))
	c.perVal = append(c.perVal[:0], make([]float64, len(cols))...)
	perVal := c.perVal
	var modelBits float64
	for i := range cols {
		types[i] = cols[i].resolve()
		pv, mb := cols[i].bits(types[i])
		perVal[i] = pv
		modelBits += mb
	}

	// Pass 2: total description length.
	blocks := len(scan.Records) + len(scan.NoiseLines)
	bits := float64(m.Len())*8 + 32 + float64(blocks) + modelBits
	for _, li := range scan.NoiseLines {
		bits += float64(len(lines.Line(li))) * 8
	}
	// D(RT|ST): repetition counts per array instance, each costing what
	// its array's largest count does.
	c.arrayBits = c.arrayBits[:0]
	for _, max := range c.arrayMax {
		c.arrayBits = append(c.arrayBits, ceilLog2(float64(max)+1))
	}
	for _, a := range scan.AllArrays() {
		bits += c.arrayBits[a.Arr]
	}
	// D(record|RT): field values.
	for _, f := range scan.AllFields() {
		switch types[f.Col] {
		case TString:
			bits += float64(f.End-f.Start+1) * 8
		default:
			bits += perVal[f.Col]
		}
	}
	return Result{
		Bits:        bits,
		Records:     len(scan.Records),
		Coverage:    scan.Coverage,
		NoiseLines:  len(scan.NoiseLines),
		ColumnTypes: types,
	}
}
