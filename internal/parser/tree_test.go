package parser

import (
	"datamaran/internal/chars"
	"datamaran/internal/template"
)

// TreeMatcher is the pair of tree walkers the compiled program replaced —
// a validate walk and an extract walk over *template.Node, the array
// bodies looked up per node — kept as a second oracle beside parsertest's
// tree-building one, and exported to the external tests from this test
// file. It numbers arrays per node, not per occurrence, so it agrees with
// the matcher only on templates whose array nodes are distinct (every
// normalized template).
type TreeMatcher struct {
	st     *template.Node
	rtset  chars.Set
	arrays map[*template.Node]arrInfo
}

// arrInfo is the per-array state of a TreeMatcher.
type arrInfo struct {
	// body is the KStruct wrapper over the array's children.
	body *template.Node
	// fields is the number of field columns in one repetition of body.
	fields int
	// idx is the array's dense index in DFS order.
	idx int
}

// NewTreeMatcher builds the tree walkers for st.
func NewTreeMatcher(st *template.Node) *TreeMatcher {
	m := &TreeMatcher{st: st, rtset: st.RTCharSet(), arrays: map[*template.Node]arrInfo{}}
	var walk func(n *template.Node)
	walk = func(n *template.Node) {
		if n.Kind == template.KArray {
			body := &template.Node{Kind: template.KStruct, Children: n.Children}
			m.arrays[n] = arrInfo{body: body, fields: body.NumFields(), idx: len(m.arrays)}
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(st)
	return m
}

// MatchEnds is Matcher.MatchEnds by the validate walk.
func (m *TreeMatcher) MatchEnds(data []byte, pos int) (end int, ok, truncated bool) {
	return m.matchEnds(m.st, data, pos)
}

// AppendRecord is Matcher.AppendRecord by the extract walk.
func (m *TreeMatcher) AppendRecord(data []byte, pos int, occs []FieldOcc, arrays []ArrayOcc) ([]FieldOcc, []ArrayOcc, bool) {
	a := arena{occs: occs, arrays: arrays}
	if _, _, ok := m.extract(m.st, data, pos, 0, 0, &a); !ok {
		return a.occs[:len(occs)], a.arrays[:len(arrays)], false
	}
	return a.occs, a.arrays, true
}

func (m *TreeMatcher) matchEnds(n *template.Node, data []byte, pos int) (int, bool, bool) {
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

// extract appends the occurrences of a record validated by matchEnds.
// col is the column of the leftmost field under n; rep the enclosing
// (innermost) repetition ordinal.
func (m *TreeMatcher) extract(n *template.Node, data []byte, pos, col, rep int, a *arena) (end, nextCol int, ok bool) {
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
