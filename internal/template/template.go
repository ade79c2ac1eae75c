// Package template implements the record/structure template language of
// Datamaran (§2 and §3.3 of the paper).
//
// A record template is a string over ordinary characters plus the field
// placeholder 'F' (Definition 2.1). A structure template is a restricted
// regular expression over record templates (Definition 2.3) whose form is
// constrained by Assumption 3: every template is a tree of
//
//	Struct: a fixed sequence  {A}{B}{C}...
//	Array:  ({A}x)*{A}y   — body A repeated, separated by character x,
//	        terminated by the distinct character y
//	Field:  the placeholder 'F'
//	Literal: a run of formatting characters
//
// The package provides construction, canonical serialization (a template's
// identity as a string: score memos, candidate tie-breaks, the reference
// generation engine's hash key), structural equality, extraction of a
// record template from an instantiated record given an RT-CharSet
// (Assumption 2), and reduction of a record template to its minimal
// structure template (step 4 of the generation step, §9.1) as interned
// ids (FlatReducer; the tree reducer it is held to is templatetest's), and
// array unfolding by path copy (Unfold).
package template

import (
	"fmt"
	"strings"

	"datamaran/internal/chars"
)

// Kind discriminates template tree nodes.
type Kind uint8

const (
	// KField is the field placeholder 'F'.
	KField Kind = iota
	// KLiteral is a run of formatting characters.
	KLiteral
	// KStruct is a fixed sequence of children.
	KStruct
	// KArray is ({body}sep)*{body}term with sep != term.
	KArray
)

func (k Kind) String() string {
	switch k {
	case KField:
		return "Field"
	case KLiteral:
		return "Literal"
	case KStruct:
		return "Struct"
	case KArray:
		return "Array"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Node is a node of a structure-template tree. Nodes are immutable once
// built; transforms return new trees.
type Node struct {
	Kind Kind
	// Lit holds the text of a KLiteral node.
	Lit string
	// Children holds the sequence for KStruct, or the array body for
	// KArray (the body is the concatenation of Children).
	Children []*Node
	// Sep and Term are the separator and terminator characters of a
	// KArray node. The structural-form assumption requires Sep != Term.
	Sep, Term byte
}

// Field returns a field placeholder node.
func Field() *Node { return &Node{Kind: KField} }

// Lit returns a literal node holding text.
func Lit(text string) *Node { return &Node{Kind: KLiteral, Lit: text} }

// Struct returns a struct node over children. Adjacent literals are not
// merged here; use Normalize for canonical form.
func Struct(children ...*Node) *Node {
	return &Node{Kind: KStruct, Children: children}
}

// Array returns an array node ({body}sep)*{body}term.
func Array(body []*Node, sep, term byte) *Node {
	return &Node{Kind: KArray, Children: body, Sep: sep, Term: term}
}

// Clone returns a deep copy of the tree.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	c := &Node{Kind: n.Kind, Lit: n.Lit, Sep: n.Sep, Term: n.Term}
	if n.Children != nil {
		c.Children = make([]*Node, len(n.Children))
		for i, ch := range n.Children {
			c.Children[i] = ch.Clone()
		}
	}
	return c
}

// Equal reports deep structural equality.
func (n *Node) Equal(m *Node) bool {
	if n == nil || m == nil {
		return n == m
	}
	if n.Kind != m.Kind || n.Lit != m.Lit || n.Sep != m.Sep || n.Term != m.Term {
		return false
	}
	if len(n.Children) != len(m.Children) {
		return false
	}
	for i := range n.Children {
		if !n.Children[i].Equal(m.Children[i]) {
			return false
		}
	}
	return true
}

// NumFields returns the number of field placeholders in the tree. Fields
// inside an array body are counted once (they correspond to columns of a
// child table, not to per-record value counts).
func (n *Node) NumFields() int {
	switch n.Kind {
	case KField:
		return 1
	case KLiteral:
		return 0
	default:
		t := 0
		for _, c := range n.Children {
			t += c.NumFields()
		}
		return t
	}
}

// HasArray reports whether the tree contains an array node.
func (n *Node) HasArray() bool {
	if n.Kind == KArray {
		return true
	}
	for _, c := range n.Children {
		if c.HasArray() {
			return true
		}
	}
	return false
}

// Depth returns the nesting depth of the tree (a bare field or literal has
// depth 1).
func (n *Node) Depth() int {
	d := 0
	for _, c := range n.Children {
		if cd := c.Depth(); cd > d {
			d = cd
		}
	}
	return d + 1
}

// RTCharSet returns the set of formatting characters appearing in the
// template (literal text plus array separators/terminators).
func (n *Node) RTCharSet() chars.Set {
	var s chars.Set
	n.addChars(&s)
	return s
}

func (n *Node) addChars(s *chars.Set) {
	switch n.Kind {
	case KLiteral:
		for i := 0; i < len(n.Lit); i++ {
			s.Add(n.Lit[i])
		}
	case KArray:
		s.Add(n.Sep)
		s.Add(n.Term)
	}
	for _, c := range n.Children {
		c.addChars(s)
	}
}

// String renders the template in the paper's notation: fields as 'F',
// literals verbatim (with \n, \t escaped for display), arrays as
// "({body}sep)*{body}term".
func (n *Node) String() string {
	var b strings.Builder
	n.display(&b)
	return b.String()
}

func (n *Node) display(b *strings.Builder) {
	switch n.Kind {
	case KField:
		b.WriteByte('F')
	case KLiteral:
		for i := 0; i < len(n.Lit); i++ {
			writeDisplayByte(b, n.Lit[i])
		}
	case KStruct:
		for _, c := range n.Children {
			c.display(b)
		}
	case KArray:
		b.WriteByte('(')
		for _, c := range n.Children {
			c.display(b)
		}
		writeDisplayByte(b, n.Sep)
		b.WriteString(")*")
		for _, c := range n.Children {
			c.display(b)
		}
		writeDisplayByte(b, n.Term)
	}
}

func writeDisplayByte(b *strings.Builder, c byte) {
	switch c {
	case '\n':
		b.WriteString(`\n`)
	case '\t':
		b.WriteString(`\t`)
	case '\r':
		b.WriteString(`\r`)
	default:
		b.WriteByte(c)
	}
}

// Key returns a canonical serialization usable as a hash-table key.
// Unlike String it is unambiguous: structural markers are escaped so
// literal parentheses cannot collide with array syntax.
func (n *Node) Key() string {
	var b strings.Builder
	n.key(&b)
	return b.String()
}

func (n *Node) key(b *strings.Builder) {
	switch n.Kind {
	case KField:
		b.WriteString("\x01F")
	case KLiteral:
		b.WriteString("\x01L")
		b.WriteString(n.Lit)
		b.WriteByte('\x02')
	case KStruct:
		b.WriteString("\x01S")
		for _, c := range n.Children {
			c.key(b)
		}
		b.WriteByte('\x02')
	case KArray:
		b.WriteString("\x01A")
		b.WriteByte(n.Sep)
		b.WriteByte(n.Term)
		for _, c := range n.Children {
			c.key(b)
		}
		b.WriteByte('\x02')
	}
}

// Len returns the serialized length of the template in characters, the
// len(ST) quantity of the MDL score (§9.2). Fields count 1, literals their
// length, arrays the body plus separator, repetition marker, body and
// terminator — matching the paper's regular-expression string form.
func (n *Node) Len() int {
	switch n.Kind {
	case KField:
		return 1
	case KLiteral:
		return len(n.Lit)
	case KStruct:
		t := 0
		for _, c := range n.Children {
			t += c.Len()
		}
		return t
	case KArray:
		body := 0
		for _, c := range n.Children {
			body += c.Len()
		}
		// "(" body sep ")*" body term
		return 1 + body + 1 + 2 + body + 1
	}
	return 0
}

// Normalize returns a canonical form: nested structs are flattened,
// adjacent literals merged, empty literals and single-child structs
// collapsed. Equal templates normalize to equal trees.
func (n *Node) Normalize() *Node {
	switch n.Kind {
	case KField:
		return Field()
	case KLiteral:
		if n.Lit == "" {
			return nil
		}
		return Lit(n.Lit)
	case KArray:
		body := normalizeSeq(n.Children)
		return Array(body, n.Sep, n.Term)
	case KStruct:
		out := normalizeSeq(n.Children)
		if len(out) == 1 {
			return out[0]
		}
		return Struct(out...)
	}
	return nil
}

func normalizeSeq(children []*Node) []*Node {
	var out []*Node
	var push func(c *Node)
	push = func(c *Node) {
		c = c.Normalize()
		if c == nil {
			return
		}
		if c.Kind == KStruct {
			for _, g := range c.Children {
				push(g)
			}
			return
		}
		if c.Kind == KLiteral && len(out) > 0 && out[len(out)-1].Kind == KLiteral {
			out[len(out)-1] = Lit(out[len(out)-1].Lit + c.Lit)
			return
		}
		out = append(out, c)
	}
	for _, c := range children {
		push(c)
	}
	return out
}

// IsPeriodicStack reports whether the template's newline-delimited
// segments repeat with a period shorter than the whole — i.e. the
// template is a k-fold stack of a shorter template. Stacks describe the
// same records as their 1-period form but with wrong boundaries, and they
// flood candidate pools with near-duplicates.
func IsPeriodicStack(st *Node) bool {
	var segs []string
	var buf strings.Builder
	for _, t := range Tokens(st) {
		buf.WriteString(t.Key())
		if (t.Kind == KLiteral && t.Lit == "\n") ||
			(t.Kind == KArray && t.Term == '\n') {
			segs = append(segs, buf.String())
			buf.Reset()
		}
	}
	if buf.Len() > 0 {
		segs = append(segs, buf.String())
	}
	n := len(segs)
	for p := 1; p <= n/2; p++ {
		if n%p != 0 {
			continue
		}
		periodic := true
		for i := p; i < n && periodic; i++ {
			periodic = segs[i] == segs[i%p]
		}
		if periodic {
			return true
		}
	}
	return false
}

// Structureless reports whether the template imposes no real structure on
// the lines it matches: its only formatting character is the newline (F\n
// and its stacks), or it contains a free-line array (F\n)*. Both absorb
// arbitrary lines — noise, and the other record types of an interleaved
// dataset — so neither is a candidate structure.
func Structureless(st *Node) bool {
	var nl chars.Set
	nl.Add('\n')
	return st.RTCharSet().Minus(nl).Empty() || HasFreeLineArray(st)
}

// HasFreeLineArray reports whether the template contains an array of the
// form (F\n)* — a single bare field repeated with the newline separator.
// Such an array absorbs arbitrary whole lines, imposing no structure on
// them; like the bare template F\n it can "explain" anything (including
// the other record types of an interleaved dataset) and must be excluded
// from candidate structures.
func HasFreeLineArray(st *Node) bool {
	if st.Kind == KArray && st.Sep == '\n' &&
		len(st.Children) == 1 && st.Children[0].Kind == KField {
		return true
	}
	for _, c := range st.Children {
		if HasFreeLineArray(c) {
			return true
		}
	}
	return false
}

// Tokens flattens a template tree back into the token sequence form used
// by the reducers: fields, single-char literals, and array nodes as atomic
// tokens. Multi-character literals are split into chars.
func Tokens(n *Node) []*Node {
	var out []*Node
	var walk func(n *Node)
	walk = func(n *Node) {
		switch n.Kind {
		case KField, KArray:
			out = append(out, n)
		case KLiteral:
			for i := 0; i < len(n.Lit); i++ {
				out = append(out, Lit(n.Lit[i:i+1]))
			}
		case KStruct:
			for _, c := range n.Children {
				walk(c)
			}
		}
	}
	walk(n)
	return out
}
