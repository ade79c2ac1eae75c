package template

// Unfold returns n with its array occurrence arr unfolded (array
// unfolding, §4.3.1), arrays counted in depth-first pre-order — the order
// parser.Matcher numbers them in. The array ({body}sep)*{body}term becomes
// k copies of its body separated by sep and closed by term (a full
// unfold) or, partial, k copies each followed by sep and then the array
// itself (a partial unfold). It returns nil when n has no such array.
//
// n must be in normal form (IsNormal). The result is then in normal form
// too, Equal to what Normalize makes of a copy of n with the array
// replaced, and built by path copy: only the nodes on the path from the
// root to the array are new, literals merge only at the two seams where
// the unfolded array meets its neighbours, and every other subtree — the
// array's body included — is shared with n.
func (n *Node) Unfold(arr, k int, partial bool) *Node {
	return n.unfoldIn(&arr, k, partial)
}

// unfoldIn is Unfold with arr counting down as arrays are passed: nil
// when the array is not in n.
func (n *Node) unfoldIn(arr *int, k int, partial bool) *Node {
	if n.Kind == KArray {
		if *arr == 0 {
			return n.unfolded(k, partial)
		}
		*arr--
	}
	for i, c := range n.Children {
		if r := c.unfoldIn(arr, k, partial); r != nil {
			return n.withChild(i, r)
		}
	}
	return nil
}

// unfolded returns the normal form of the array n unfolded k times.
func (n *Node) unfolded(k int, partial bool) *Node {
	sep, term := Lit(string([]byte{n.Sep})), Lit(string([]byte{n.Term}))
	seq := make([]*Node, 0, k*(len(n.Children)+1)+1)
	for i := 0; i < k; i++ {
		if i > 0 && !partial {
			seq = appendSeq(seq, sep)
		}
		seq = appendSeq(seq, n.Children...)
		if partial {
			seq = appendSeq(seq, sep)
		}
	}
	if partial {
		seq = append(seq, n)
	} else {
		seq = appendSeq(seq, term)
	}
	if len(seq) == 1 {
		return seq[0]
	}
	return Struct(seq...)
}

// withChild returns the normal form of n with child i replaced by r, both
// in normal form: a struct r is spliced in flat, and the literals on
// either side of the splice merge.
func (n *Node) withChild(i int, r *Node) *Node {
	mid := []*Node{r}
	if r.Kind == KStruct {
		mid = r.Children
	}
	seq := make([]*Node, 0, len(n.Children)-1+len(mid))
	seq = append(seq, n.Children[:i]...)
	seq = appendSeq(seq, mid...)
	seq = appendSeq(seq, n.Children[i+1:]...)
	if n.Kind == KArray {
		return Array(seq, n.Sep, n.Term)
	}
	if len(seq) == 1 {
		return seq[0]
	}
	return Struct(seq...)
}

// appendSeq appends nodes in normal form to seq, merging a literal into a
// literal seq ends with — normalizeSeq's rule. seq's own nodes are never
// changed: a merge puts a new literal in their place.
func appendSeq(seq []*Node, nodes ...*Node) []*Node {
	for _, c := range nodes {
		if last := len(seq) - 1; c.Kind == KLiteral && last >= 0 && seq[last].Kind == KLiteral {
			seq[last] = Lit(seq[last].Lit + c.Lit)
			continue
		}
		seq = append(seq, c)
	}
	return seq
}

// IsNormal reports whether n is in the form Normalize returns: no struct
// inside a struct or an array body, no single-child struct, no empty
// literal and no two adjacent literals.
func (n *Node) IsNormal() bool {
	return !(n.Kind == KStruct && len(n.Children) == 1) && n.normalBelow()
}

func (n *Node) normalBelow() bool {
	if n.Kind == KLiteral {
		return n.Lit != ""
	}
	for i, c := range n.Children {
		if c.Kind == KStruct || !c.normalBelow() ||
			(i > 0 && c.Kind == KLiteral && n.Children[i-1].Kind == KLiteral) {
			return false
		}
	}
	return true
}
