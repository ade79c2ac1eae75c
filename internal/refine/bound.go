package refine

import (
	"datamaran/internal/chars"
	"datamaran/internal/parser"
	"datamaran/internal/template"
	"datamaran/internal/textio"
)

// CertainNoise bounds from below the noise of everything Refine(st, lines)
// can score: it returns min(U, limit), U being the byte total of the lines
// that stay uncovered under st, under every template array unfolding can
// turn st into, and under every rotation Shift can pick of those. ok is
// false when the argument below does not hold for st and nothing can be
// said.
//
// Unfolding narrows a template's language: a full unfold fixes an array's
// repetition count, a partial unfold raises its minimum, and as long as the
// RT-CharSet stays what it was, fields end where they ended before. The
// matcher is deterministic, so a record an unfold-descendant of st matches
// at some line, st matches at that line with the same end — the
// descendant's greedy scan covers only lines that lie inside some aligned
// match of st, started at any line, skipped by st's own greedy scan or not.
// The lines outside all of those are noise for the whole lineage. Shift
// returns a rotation of the template's line segments; an array that holds
// no newline in its body or as separator sits inside one segment, so
// rotating commutes with unfolding and the minimum over st's rotations
// covers Refine's last step.
//
// The RT-CharSet does change when a full unfold at one repetition drops
// the last occurrence of a separator: fields then run across that
// character and the descendant can match lines st cannot. Refine unfolds
// an array at its modal count, so this needs a record in which such an
// array repeats once, and that record is an aligned match of st. When st
// has one, ok is false.
func CertainNoise(st *template.Node, lines *textio.Lines, limit int) (noise int, ok bool) {
	droppable, ok := boundable(st)
	if !ok {
		return 0, false
	}
	m := parser.NewMatcher(st)
	if !droppable.Empty() && repeatsOnce(m, lines, droppable) {
		return 0, false
	}
	noise = uncoveredBytes(m, lines, limit)
	segs := lineSegments(st)
	for r := 1; r < len(segs) && noise > 0; r++ {
		noise = uncoveredBytes(parser.NewMatcher(rotation(segs, r)), lines, noise)
	}
	return noise, true
}

// boundable reports whether CertainNoise's argument applies to st — every
// array has distinct separator and terminator and no newline in its body
// or as separator — and returns the separators a one-repetition unfold
// could remove from the RT-CharSet: those that no literal and no array
// terminator holds, both of which every unfold keeps.
func boundable(st *template.Node) (droppable chars.Set, ok bool) {
	var kept, seps chars.Set
	ok = true
	var walk func(n *template.Node)
	walk = func(n *template.Node) {
		switch n.Kind {
		case template.KLiteral:
			for i := 0; i < len(n.Lit); i++ {
				kept.Add(n.Lit[i])
			}
		case template.KArray:
			body := template.Node{Kind: template.KStruct, Children: n.Children}
			if n.Sep == n.Term || n.Sep == '\n' || body.RTCharSet().Contains('\n') {
				ok = false
			}
			seps.Add(n.Sep)
			kept.Add(n.Term)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(st)
	return seps.Minus(kept), ok
}

// repeatsOnce reports whether any aligned match of m's template, started at
// any line, instantiates an array whose separator is in seps with a single
// repetition.
func repeatsOnce(m *parser.Matcher, lines *textio.Lines, seps chars.Set) bool {
	// drops[a] reports whether array occurrence a separates with a byte
	// in seps; the walk numbers arrays as the matcher does.
	var drops []bool
	var walk func(n *template.Node)
	walk = func(n *template.Node) {
		if n.Kind == template.KArray {
			drops = append(drops, seps.Contains(n.Sep))
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(m.Template())
	data := lines.Data()
	var occs []parser.FieldOcc
	var arrays []parser.ArrayOcc
	for i, n := 0, lines.N(); i < n; i++ {
		end, ok, _ := m.MatchEnds(data, lines.Start(i))
		if !ok {
			continue
		}
		if j, aligned := lines.AlignedLine(end); !aligned || j <= i {
			continue
		}
		occs, arrays, _ = m.AppendRecord(data, lines.Start(i), occs[:0], arrays[:0])
		for _, a := range arrays {
			if a.Reps == 1 && drops[a.Arr] {
				return true
			}
		}
	}
	return false
}

// uncoveredBytes returns the byte total of the lines that lie in no aligned
// match of m's template started at any line, or stop once the total has
// reached it. Matches are tried at every line, not greedily: a line is
// covered exactly when a match started at or above it ends below it.
func uncoveredBytes(m *parser.Matcher, lines *textio.Lines, stop int) int {
	data, n := lines.Data(), lines.N()
	covered, bytes := 0, 0 // lines below covered lie inside a match
	for i := 0; i < n; i++ {
		if end, ok, _ := m.MatchEnds(data, lines.Start(i)); ok {
			if end == lines.Start(i+1) { // a one-line record, the common case
				covered = max(covered, i+1)
			} else if j, aligned := lines.AlignedLine(end); aligned && j > i {
				covered = max(covered, j)
			}
		}
		if i >= covered {
			if bytes += len(lines.Line(i)); bytes >= stop {
				return stop
			}
		}
	}
	return bytes
}
