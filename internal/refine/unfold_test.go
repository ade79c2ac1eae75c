package refine

import (
	"fmt"
	"testing"

	"datamaran/internal/parser"
	"datamaran/internal/template"
	"datamaran/internal/textio"
)

// checkUnfolds holds every unfold of pm's template st that its arrays
// admit — the ones Refine scores, read off a scan over lines, plus a full
// unfold at one and two repetitions and a partial one at one — to the
// reference tree forms: the path-copied tree (template.Node.Unfold) is
// Equal to the whole-tree Clone + Normalize, in normal form, and the tree
// a spliced matcher (parser.Matcher.Unfolded) builds; the spliced matcher
// has the length, columns and arrays NewMatcher compiles from that tree,
// and scans lines exactly as it does. Down to depth, each variant's own
// unfolds are checked from its spliced matcher in turn, as Refine's next
// round splices them.
func checkUnfolds(t *testing.T, pm *parser.Matcher, st *template.Node, lines *textio.Lines, depth int) {
	t.Helper()
	stats := allRepStats(pm, pm.Scan(lines))
	for arr, path := range arrayPaths(st) {
		us := append(unfolds(arr, stats[arr]),
			parser.Unfold{Arr: arr, K: 1}, parser.Unfold{Arr: arr, K: 2}, parser.Unfold{Arr: arr, K: 1, Partial: true})
		for _, u := range us {
			label := fmt.Sprintf("%v unfolded by %+v", st, u)
			want := unfoldReference(st, path, nodeAt(st, path), u)
			if got := st.Unfold(u.Arr, u.K, u.Partial); !got.Equal(want) || !got.IsNormal() {
				t.Fatalf("%s: path copy %v (normal %v), want %v", label, got, got.IsNormal(), want)
			}
			fresh, spliced := parser.NewMatcher(want), pm.Unfolded(u)
			if spliced.Len() != fresh.Len() || fresh.Len() != want.Len() ||
				spliced.Columns() != fresh.Columns() || spliced.NumArrays() != fresh.NumArrays() {
				t.Fatalf("%s: spliced Len %d, Columns %d, NumArrays %d; compiled %d (tree %d), %d, %d", label,
					spliced.Len(), spliced.Columns(), spliced.NumArrays(), fresh.Len(), want.Len(), fresh.Columns(), fresh.NumArrays())
			}
			requireScansEqual(t, label, fresh.Scan(lines), spliced.Scan(lines))
			if got := spliced.Template(); !got.Equal(want) || spliced.Key() != want.Key() {
				t.Fatalf("%s: the spliced matcher's tree is %v, want %v", label, got, want)
			}
			if depth > 1 {
				checkUnfolds(t, spliced, want, lines, depth-1)
			}
		}
	}
}

// TestUnfoldMatchesReference runs checkUnfolds two rounds deep on the
// refinement inputs — CSV, syslog, a nested array, a multi-line stack —
// and on the input whose one-repetition full unfold drops the separator.
func TestUnfoldMatchesReference(t *testing.T) {
	inputs := refineInputs()
	st, lines := droppedSeparator()
	inputs["separator dropped at k=1"] = struct {
		st    *template.Node
		lines *textio.Lines
	}{st, lines}
	for name, in := range inputs {
		t.Run(name, func(t *testing.T) {
			checkUnfolds(t, parser.NewMatcher(in.st), in.st, in.lines, 2)
		})
	}
}

// FuzzUnfoldVariant runs checkUnfolds two rounds deep on the candidates
// FuzzRefineLowerBound draws.
func FuzzUnfoldVariant(f *testing.F) {
	addCandidateSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte, charset string, start, span uint8) {
		st, lines := drawCandidate(t, data, charset, start, span)
		checkUnfolds(t, parser.NewMatcher(st), st, lines, 2)
	})
}
