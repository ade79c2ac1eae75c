package template

import (
	"encoding/binary"

	"datamaran/internal/chars"
)

// TokField is the flat-token encoding of the field placeholder. Flat
// tokens are uint16 values: 0..255 is a one-byte literal, TokField is 'F'.
// The flat form carries exactly the information of a record template's
// tree form (templatetest.ExtractRecordTemplate: fields and
// single-character literals) without a heap node per token, so the
// generation step can keep whole tokenized datasets in one arena slice.
const TokField uint16 = 256

// AppendFlatTokens extracts the record template of an instantiated record
// under an RT-CharSet (step 3 of the generation step, Assumption 2): every
// maximal run of bytes outside rtset is a field, every byte inside it (and
// '\n', always structural per Definition 2.4) a one-byte literal. It
// appends the template to dst, one uint16 per token, and returns the
// extended slice plus the bytes the fields replaced. The token
// sequence is identical, token for token, to
// templatetest.ExtractRecordTemplate's.
func AppendFlatTokens(dst []uint16, record []byte, rtset chars.Set) ([]uint16, int) {
	fieldBytes := 0
	i := 0
	for i < len(record) {
		b := record[i]
		if b == '\n' || rtset.Contains(b) {
			dst = append(dst, uint16(b))
			i++
			continue
		}
		j := i
		for j < len(record) && record[j] != '\n' && !rtset.Contains(record[j]) {
			j++
		}
		dst = append(dst, TokField)
		fieldBytes += j - i
		i = j
	}
	return dst, fieldBytes
}

// MaxUnitTokens bounds the repeated-unit length considered during
// reduction, by FlatReducer and by the tree reducer it is held to. Units
// longer than this (entire repeated paragraphs of over a hundred tokens)
// are outside any realistic log structure and searching for them is
// quadratic.
const MaxUnitTokens = 160

// The ids of a FlatReducer. Below firstArrayID an id is the flat token
// itself: 0..255 a one-byte literal, fieldID (TokField) the field
// placeholder; arrays are numbered from firstArrayID as they are interned.
const (
	fieldID      = int32(TokField)
	firstArrayID = fieldID + 1
)

// FlatReducer reduces flat token sequences (see TokField) to minimal
// structure templates without building trees. A reduced template is a
// sequence of int32 ids: a flat token is its own id, and an array gets the
// next free id the first time its (body ids, separator, terminator) is
// seen. Folds rewrite the reducer's buffer in place, in exactly the
// (unit length, position) order the tree reducer (templatetest.Reduce)
// searches, so the id sequence ReduceIDs returns is, token for token, the
// sequence that reducer normalizes
// into its result — and since merging adjacent one-byte literals loses
// nothing, id sequence ↔ normalized tree is a bijection: two windows have
// the same template exactly when they reduce to the same ids (and, over
// the candidate alphabet of printable ASCII and whitespace, where Key is
// unambiguous, exactly when their trees have the same Key). What the
// generation step asks of a tree it can ask of an id (NumFields, Len,
// EndsLine); Build makes the tree, for the few templates somebody reads.
//
// Ids are meaningful only to the reducer that issued them, and stay valid
// for its lifetime. The zero value is ready to use. Not safe for
// concurrent use.
type FlatReducer struct {
	arrays  []flatArray
	bodies  []int32          // arena of array bodies, see flatArray
	arrayID map[string]int32 // separator, terminator, body ids as raw bytes → id
	seq     []int32
	key     []byte
}

// flatArray is an interned array: body ids bodies[off:off+n], plus the
// answers a caller would otherwise walk the tree for.
type flatArray struct {
	off, n    int32
	sep, term byte
	fields    int32
	length    int32
	// onlyNewlines: no formatting character but '\n' anywhere in the
	// array; freeLine: the array is (F\n)* or holds one (see Structureless).
	onlyNewlines, freeLine bool
}

// ReduceIDs reduces a flat token sequence to the id sequence of its
// minimal structure template. The result aliases the reducer's buffer and
// is valid until the next ReduceIDs or Reduce.
func (fr *FlatReducer) ReduceIDs(toks []uint16) []int32 {
	seq := fr.seq[:0]
	for _, t := range toks {
		seq = append(seq, int32(t))
	}
	for folded := true; folded; {
		seq, folded = fr.foldOnce(seq)
	}
	fr.seq = seq
	return seq
}

// foldOnce is the tree reducer's fold step over ids, rewriting seq in place: the
// first applicable fold by (unit length, position) becomes one array id
// and the tail moves down over the tokens it replaced.
func (fr *FlatReducer) foldOnce(seq []int32) ([]int32, bool) {
	n := len(seq)
	maxL := n / 2
	if maxL > MaxUnitTokens {
		maxL = MaxUnitTokens
	}
	for l := 1; 2*l+2 <= n && l <= maxL; l++ {
		for i := 0; i+2*l+2 <= n; i++ {
			sep := seq[i+l]
			if sep >= fieldID {
				continue // not a one-byte literal
			}
			if !eqRun(seq, i, i+l+1, l) {
				continue
			}
			// Count consecutive [U sep] blocks starting at i.
			j := i
			for j+l < n && seq[j+l] == sep && eqRun(seq, i, j, l) {
				j += l + 1
			}
			// Expect a final U followed by a distinct terminator.
			if j+l >= n || !eqRun(seq, i, j, l) {
				continue
			}
			term := seq[j+l]
			if term >= fieldID || term == sep {
				continue
			}
			// Intern reads the body before seq[i] is overwritten.
			seq[i] = fr.internArray(seq[i:i+l], byte(sep), byte(term))
			return append(seq[:i+1], seq[j+l+1:]...), true
		}
	}
	return seq, false
}

func (fr *FlatReducer) internArray(body []int32, sep, term byte) int32 {
	key := AppendIDKey(append(fr.key[:0], sep, term), body)
	fr.key = key
	if id, ok := fr.arrayID[string(key)]; ok {
		return id
	}
	if fr.arrayID == nil {
		fr.arrayID = map[string]int32{}
	}
	id := firstArrayID + int32(len(fr.arrays))
	fr.arrayID[string(key)] = id
	a := flatArray{off: int32(len(fr.bodies)), n: int32(len(body)), sep: sep, term: term}
	a.onlyNewlines = sep == '\n' && term == '\n'
	a.freeLine = sep == '\n' && len(body) == 1 && body[0] == fieldID
	bodyLen := 0
	for _, b := range body {
		a.fields += int32(fr.NumFields(b))
		bodyLen += fr.Len(b)
		switch {
		case b < fieldID:
			a.onlyNewlines = a.onlyNewlines && b == '\n'
		case b > fieldID:
			a.onlyNewlines = a.onlyNewlines && fr.array(b).onlyNewlines
			a.freeLine = a.freeLine || fr.array(b).freeLine
		}
	}
	a.length = int32(1 + bodyLen + 1 + 2 + bodyLen + 1) // as Node.Len
	fr.bodies = append(fr.bodies, body...)
	fr.arrays = append(fr.arrays, a)
	return id
}

// AppendIDKey appends to dst the raw bytes of ids, four an id. Distinct id
// sequences give distinct keys, so the result identifies a reduced
// template in a hash table without a tree or a Key; DecodeIDs reverses it.
func AppendIDKey(dst []byte, ids []int32) []byte {
	for _, id := range ids {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(id))
	}
	return dst
}

// DecodeIDs appends to dst the id sequence AppendIDKey encoded in key.
func DecodeIDs(dst []int32, key string) []int32 {
	for ; len(key) >= 4; key = key[4:] {
		dst = append(dst, int32(uint32(key[0])|uint32(key[1])<<8|uint32(key[2])<<16|uint32(key[3])<<24))
	}
	return dst
}

func (fr *FlatReducer) array(id int32) *flatArray { return &fr.arrays[id-firstArrayID] }

func (fr *FlatReducer) body(a *flatArray) []int32 { return fr.bodies[a.off : a.off+a.n] }

// NumFields is Node.NumFields of the token id stands for.
func (fr *FlatReducer) NumFields(id int32) int {
	switch {
	case id < fieldID:
		return 0
	case id == fieldID:
		return 1
	}
	return int(fr.array(id).fields)
}

// Len is Node.Len of the token id stands for.
func (fr *FlatReducer) Len(id int32) int {
	if id < firstArrayID {
		return 1
	}
	return int(fr.array(id).length)
}

// EndsLine reports whether id is the newline literal or an array
// terminated by a newline — the tokens that end a line of a template.
func (fr *FlatReducer) EndsLine(id int32) bool {
	if id < firstArrayID {
		return id == '\n'
	}
	return fr.array(id).term == '\n'
}

// IsPeriodicStack is IsPeriodicStack(fr.Build(ids)) computed on the ids.
// Segments end at EndsLine tokens, so the segments repeat with period p
// exactly when some prefix of whole segments, of a length dividing
// len(ids), equals the sequence shifted by it.
func (fr *FlatReducer) IsPeriodicStack(ids []int32) bool {
	n := len(ids)
	for p := 1; 2*p <= n; p++ {
		if n%p == 0 && fr.EndsLine(ids[p-1]) && eqRun(ids, 0, p, n-p) {
			return true
		}
	}
	return false
}

// Structureless is Structureless(fr.Build(ids)) computed on the ids.
func (fr *FlatReducer) Structureless(ids []int32) bool {
	onlyNewlines := true
	for _, id := range ids {
		switch {
		case id < fieldID:
			onlyNewlines = onlyNewlines && id == '\n'
		case id > fieldID:
			a := fr.array(id)
			if a.freeLine {
				return true
			}
			onlyNewlines = onlyNewlines && a.onlyNewlines
		}
	}
	return onlyNewlines
}

// Build returns the normalized tree of a reduced id sequence: what
// templatetest.Reduce returns for the tokens that reduced to ids. Every call builds a fresh
// tree.
func (fr *FlatReducer) Build(ids []int32) *Node {
	out := fr.buildSeq(ids)
	if len(out) == 1 {
		return out[0]
	}
	return Struct(out...)
}

// buildSeq is normalizeSeq over ids: runs of one-byte literals merge into
// one literal node.
func (fr *FlatReducer) buildSeq(ids []int32) []*Node {
	var out []*Node
	for k := 0; k < len(ids); k++ {
		switch id := ids[k]; {
		case id < fieldID:
			lit := append(fr.key[:0], byte(id))
			for k+1 < len(ids) && ids[k+1] < fieldID {
				k++
				lit = append(lit, byte(ids[k]))
			}
			fr.key = lit
			out = append(out, Lit(string(lit)))
		case id == fieldID:
			out = append(out, Field())
		default:
			a := fr.array(id)
			out = append(out, Array(fr.buildSeq(fr.body(a)), a.sep, a.term))
		}
	}
	return out
}

// AppendKey appends fr.Build(ids).Key() to dst without building the tree.
func (fr *FlatReducer) AppendKey(dst []byte, ids []int32) []byte {
	// As Build: a sequence of one node is that node, bare; anything else
	// is a struct.
	start := len(dst)
	dst = append(dst, "\x01S"...)
	dst, nodes := fr.appendSeqKey(dst, ids)
	if nodes == 1 {
		return append(dst[:start], dst[start+2:]...)
	}
	return append(dst, '\x02')
}

// appendSeqKey appends the keys of the nodes ids normalize to (a run of
// literals is one node) and returns how many there were.
func (fr *FlatReducer) appendSeqKey(dst []byte, ids []int32) ([]byte, int) {
	nodes := 0
	inLit := false
	for _, id := range ids {
		if id < fieldID {
			if !inLit {
				dst = append(dst, "\x01L"...)
				inLit = true
				nodes++
			}
			dst = append(dst, byte(id))
			continue
		}
		if inLit {
			dst = append(dst, '\x02')
			inLit = false
		}
		nodes++
		if id == fieldID {
			dst = append(dst, "\x01F"...)
			continue
		}
		a := fr.array(id)
		dst = append(dst, '\x01', 'A', a.sep, a.term)
		dst, _ = fr.appendSeqKey(dst, fr.body(a))
		dst = append(dst, '\x02')
	}
	if inLit {
		dst = append(dst, '\x02')
	}
	return dst, nodes
}

// Reduce reduces a flat token sequence to its minimal structure template.
// The result is identical to templatetest.Reduce over the equivalent
// []*Node tokens.
func (fr *FlatReducer) Reduce(toks []uint16) *Node {
	return fr.Build(fr.ReduceIDs(toks))
}

// ReduceFlat reduces a flat token sequence with a throwaway reducer; use a
// FlatReducer to amortize interning across many sequences.
func ReduceFlat(toks []uint16) *Node {
	var fr FlatReducer
	return fr.Reduce(toks)
}

// eqRun reports whether seq[a:a+l] equals seq[b:b+l].
func eqRun(seq []int32, a, b, l int) bool {
	if a == b {
		return true
	}
	for k := 0; k < l; k++ {
		if seq[a+k] != seq[b+k] {
			return false
		}
	}
	return true
}
