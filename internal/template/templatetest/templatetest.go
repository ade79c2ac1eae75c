// Package templatetest holds the tree reducer the generation step no
// longer runs: ExtractRecordTemplate and Reduce build a record template and
// its minimal structure template (steps 3 and 4 of the generation step,
// §9.1) as template trees, one node per token. Generation goes through
// template.FlatReducer on flat tokens instead; the tests hold it to this
// reducer, and build their candidate templates with it.
package templatetest

import (
	"slices"

	"datamaran/internal/chars"
	"datamaran/internal/template"
)

// ExtractRecordTemplate extracts the record template from an instantiated
// record, given the RT-CharSet (step 3 of the generation step). Under
// Assumption 2 this is deterministic: every maximal run of bytes outside
// rtset becomes a single field placeholder, every byte inside rtset (plus
// '\n', which is always structural per Definition 2.4) becomes a one-byte
// literal token.
//
// The result is a flat token sequence: KField and single-character
// KLiteral nodes. It also returns the total number of bytes replaced by
// field placeholders (the field coverage used by the assimilation score).
func ExtractRecordTemplate(record []byte, rtset chars.Set) (tokens []*template.Node, fieldBytes int) {
	tokens = make([]*template.Node, 0, len(record)/2+1)
	i := 0
	for i < len(record) {
		b := record[i]
		if b == '\n' || rtset.Contains(b) {
			tokens = append(tokens, template.Lit(string(b)))
			i++
			continue
		}
		j := i
		for j < len(record) && record[j] != '\n' && !rtset.Contains(record[j]) {
			j++
		}
		tokens = append(tokens, template.Field())
		fieldBytes += j - i
		i = j
	}
	return tokens, fieldBytes
}

// Reduce reduces a token sequence to its minimal structure template
// (step 4 of the generation step): repeated patterns of the form
// U sep U sep ... U term (sep != term, at least two occurrences of U) are
// folded into Array(U, sep, term), innermost-first, until no reduction
// applies. The result is a normalized tree.
//
// The choice among conflicting reductions is deterministic (shortest unit,
// leftmost position first), matching the paper's "choose one arbitrarily".
//
// Tokens are interned to integer ids so the quadratic repeat search
// compares ints rather than recursing over trees. Every fold builds an
// Array node and the result is a fresh tree; the generation step, which
// reduces every distinct candidate window, goes through FlatReducer
// instead, and this function is the oracle FlatReducer is held to.
func Reduce(tokens []*template.Node) *template.Node {
	r := reducer{byKey: map[string]int32{}}
	seq := make([]int32, len(tokens))
	for i, t := range tokens {
		seq[i] = r.intern(t)
	}
	return r.reduceSeq(seq)
}

// reduceSeq runs the fold loop to fixpoint and builds the normalized tree.
func (r *reducer) reduceSeq(seq []int32) *template.Node {
	for {
		next, ok := r.reduceOnce(seq)
		if !ok {
			break
		}
		seq = next
	}
	nodes := make([]*template.Node, len(seq))
	for i, id := range seq {
		nodes[i] = r.nodes[id]
	}
	return template.Struct(nodes...).Normalize()
}

// reducer is the tree-building reducer behind Reduce. It interns template
// tokens by Key: equal tokens (deep equality) share one id, and every id
// has its node. charOf[id] holds the byte of single-char literal tokens,
// or -1. FlatReducer is the same fold search with no node behind an id.
type reducer struct {
	byKey  map[string]int32
	nodes  []*template.Node
	charOf []int16
	// fast paths: ids+1 for the field token and single-char literals
	// (0 means unassigned).
	fieldID int32
	charIDs [256]int32
}

func (r *reducer) intern(n *template.Node) int32 {
	// Fast paths for the two token kinds that dominate generation.
	if n.Kind == template.KField {
		if r.fieldID != 0 {
			return r.fieldID - 1
		}
	} else if n.Kind == template.KLiteral && len(n.Lit) == 1 {
		if id := r.charIDs[n.Lit[0]]; id != 0 {
			return id - 1
		}
	}
	key := n.Key()
	if id, ok := r.byKey[key]; ok {
		return id
	}
	id := int32(len(r.nodes))
	r.byKey[key] = id
	r.nodes = append(r.nodes, n)
	c := int16(-1)
	if n.Kind == template.KField {
		r.fieldID = id + 1
	} else if n.Kind == template.KLiteral && len(n.Lit) == 1 {
		c = int16(n.Lit[0])
		r.charIDs[n.Lit[0]] = id + 1
	}
	r.charOf = append(r.charOf, c)
	return id
}

// reduceOnce applies the first applicable fold and reports whether one was
// found.
func (r *reducer) reduceOnce(seq []int32) ([]int32, bool) {
	n := len(seq)
	maxL := n / 2
	if maxL > template.MaxUnitTokens {
		maxL = template.MaxUnitTokens
	}
	// l is the unit length in tokens (the repeated body U), so the
	// repeated block [U sep] has l+1 tokens. We need at least
	// [U sep][U term] = 2l+2 tokens.
	for l := 1; 2*l+2 <= n && l <= maxL; l++ {
		for i := 0; i+2*l+2 <= n; i++ {
			sep := r.charOf[seq[i+l]]
			if sep < 0 {
				continue
			}
			if !eqRun(seq, i, i+l+1, l) {
				continue
			}
			// Count consecutive [U sep] blocks starting at i.
			j := i
			for j+l < n && seq[j+l] == seq[i+l] && eqRun(seq, i, j, l) {
				j += l + 1
			}
			// Expect a final U followed by a distinct terminator.
			if j == i || j+l >= n {
				continue
			}
			if !eqRun(seq, i, j, l) {
				continue
			}
			term := r.charOf[seq[j+l]]
			if term < 0 || term == sep {
				continue
			}
			body := make([]*template.Node, l)
			for k := 0; k < l; k++ {
				body[k] = r.nodes[seq[i+k]]
			}
			arr := r.intern(template.Array(body, byte(sep), byte(term)))
			out := make([]int32, 0, n-(j+l+1-i)+1)
			out = append(out, seq[:i]...)
			out = append(out, arr)
			out = append(out, seq[j+l+1:]...)
			return out, true
		}
	}
	return seq, false
}

// MinimalFromRecord extracts and reduces in one call: the minimal
// structure template of an instantiated record under rtset, plus the field
// byte count.
func MinimalFromRecord(record []byte, rtset chars.Set) (*template.Node, int) {
	toks, fb := ExtractRecordTemplate(record, rtset)
	return Reduce(toks), fb
}

// eqRun reports whether seq[a:a+l] equals seq[b:b+l].
func eqRun(seq []int32, a, b, l int) bool {
	return slices.Equal(seq[a:a+l], seq[b:b+l])
}
