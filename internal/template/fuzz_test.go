package template_test

import (
	"slices"
	"strings"
	"testing"

	"datamaran/internal/chars"
	"datamaran/internal/template"
	"datamaran/internal/template/templatetest"
)

// FuzzReduce holds the id-level reducer to the tree reducer on arbitrary
// records and charsets. For a record: Build of the reduced ids is the tree
// Reduce returns, cold and through a warm reducer, with the same Key, and
// AppendKey spells that Key without the tree; what generation reads off
// the ids — fields, length, the closing newline, periodic stacks — is what
// the tree says. For two records through one reducer: equal id sequences
// exactly when equal Keys, the bijection generation's template table rests
// on. Plus the reduction invariants: the result is normalized (idempotent
// under Normalize) and field byte counts agree between the extraction
// paths.
func FuzzReduce(f *testing.F) {
	f.Add([]byte("a,b,c,d\n"), []byte("a,b\n"), ",")
	f.Add([]byte("k=v k=v k=v\n"), []byte("k=v k=v\n"), "= ")
	f.Add([]byte("BEGIN 1\nv=7\nEND\n"), []byte("BEGIN 1\nv=7\nv=8\nEND\n"), "= ")
	f.Add([]byte("[12:08] (a,b) x\n[12:09] (c,d) y\n"), []byte("[12:08] (a,b) x\n"), "[]:(), ")
	f.Add([]byte("a,b;c,d;e\n"), []byte("a;b;c\n"), ",;")
	f.Add([]byte("x\ny\nx\ny\n"), []byte("x\ny\n"), "")
	f.Add([]byte("no specials at all"), []byte(",,"), "")
	f.Add([]byte(""), []byte("\n"), ",;")
	f.Add([]byte("a\nb\nc;\n"), []byte("k=a\nb\nc;x\n"), ";=") // a free-line array (F\n)*F;, bare and inside a struct

	f.Fuzz(func(t *testing.T, record, other []byte, charset string) {
		if len(record) > 4096 || len(other) > 4096 {
			t.Skip("bounded so the quadratic repeat search stays fast")
		}
		// Restrict the charset to the candidate alphabet real charsets
		// are drawn from (rtsets are always subsets of it).
		rtset := chars.NewSet(charset).Intersect(chars.DefaultCandidates())

		toks, fb := templatetest.ExtractRecordTemplate(record, rtset)
		tree := templatetest.Reduce(toks)
		if norm := tree.Normalize(); norm != nil && !tree.Equal(norm) {
			t.Fatalf("Reduce result not normalized: %v vs %v", tree, norm)
		}
		if nf := tree.NumFields(); nf < 0 || (fb > 0 && nf == 0) {
			t.Fatalf("field bytes %d but %d fields in %v", fb, nf, tree)
		}

		flat, flatFB := template.AppendFlatTokens(nil, record, rtset)
		if fb != flatFB {
			t.Fatalf("field bytes diverge: tree %d, flat %d", fb, flatFB)
		}
		if len(flat) != len(toks) {
			t.Fatalf("token counts diverge: tree %d, flat %d", len(toks), len(flat))
		}
		var fr template.FlatReducer
		ids := slices.Clone(fr.ReduceIDs(flat))
		checkIDsAgainstTree(t, &fr, ids, tree)

		// The other record warms the reducer (its arrays take ids first on
		// a second pass over record) and is the second side of the
		// bijection.
		otherFlat, _ := template.AppendFlatTokens(nil, other, rtset)
		otherIDs := slices.Clone(fr.ReduceIDs(otherFlat))
		otherToks, _ := templatetest.ExtractRecordTemplate(other, rtset)
		otherTree := templatetest.Reduce(otherToks)
		checkIDsAgainstTree(t, &fr, otherIDs, otherTree)
		if sameIDs, sameKey := slices.Equal(ids, otherIDs), tree.Key() == otherTree.Key(); sameIDs != sameKey {
			t.Fatalf("ids equal = %v but keys equal = %v:\n %v %v\n %v %v", sameIDs, sameKey, ids, tree, otherIDs, otherTree)
		}
		if warm := fr.ReduceIDs(flat); !slices.Equal(warm, ids) {
			t.Fatalf("warm reducer changed the ids of a record: %v, then %v", ids, warm)
		}
		if again := fr.Reduce(flat); !tree.Equal(again) {
			t.Fatalf("warm template.FlatReducer diverges: %v vs %v", tree, again)
		}
	})
}

// checkIDsAgainstTree checks everything a FlatReducer answers about a
// reduced id sequence against the tree the reference reduced the same
// tokens to.
func checkIDsAgainstTree(t *testing.T, fr *template.FlatReducer, ids []int32, tree *template.Node) {
	t.Helper()
	built := fr.Build(ids)
	if !tree.Equal(built) {
		t.Fatalf("reductions diverge:\n tree: %v\n  ids: %v", tree, built)
	}
	if tree.Key() != built.Key() {
		t.Fatalf("equal trees with different keys: %q vs %q", tree.Key(), built.Key())
	}
	if key := string(fr.AppendKey(nil, ids)); key != tree.Key() {
		t.Fatalf("AppendKey = %q, tree key %q", key, tree.Key())
	}
	if back := template.DecodeIDs(nil, string(template.AppendIDKey(nil, ids))); !slices.Equal(back, ids) {
		t.Fatalf("id key round trip: %v became %v", ids, back)
	}
	fields, length := 0, 0
	for _, id := range ids {
		fields += fr.NumFields(id)
		length += fr.Len(id)
	}
	if fields != tree.NumFields() || length != tree.Len() {
		t.Fatalf("ids say %d fields, length %d; tree %v says %d, %d", fields, length, tree, tree.NumFields(), tree.Len())
	}
	if got := len(ids) > 0 && fr.EndsLine(ids[len(ids)-1]); got != endsLine(tree) {
		t.Fatalf("EndsLine(last id) = %v for %v", got, tree)
	}
	if got, want := fr.IsPeriodicStack(ids), template.IsPeriodicStack(tree); got != want {
		t.Fatalf("IsPeriodicStack on ids = %v, on the tree %v = %v", got, tree, want)
	}
	if got, want := fr.Structureless(ids), template.Structureless(tree); got != want {
		t.Fatalf("Structureless on ids = %v, on the tree %v = %v", got, tree, want)
	}
}

// endsLine reports whether the last character a template matches is the
// newline.
func endsLine(n *template.Node) bool {
	switch n.Kind {
	case template.KLiteral:
		return strings.HasSuffix(n.Lit, "\n")
	case template.KArray:
		return n.Term == '\n'
	case template.KStruct:
		return len(n.Children) > 0 && endsLine(n.Children[len(n.Children)-1])
	}
	return false
}
