package parser

import (
	"bytes"
	"fmt"
	"testing"
	"unsafe"

	"datamaran/internal/template"
	"datamaran/internal/textio"
)

// TestOverlappingRecordsKeepLinearOccurrences: a hand-written format whose
// records start inside one another — here every line of a group starts a
// record running to the group's end — must not make MatchLines keep every
// overlapping match, which would grow with the square of the group. A
// range keeps only records that do not start inside the last one it kept,
// so the kept occurrences stay within a window's worth per range.
func TestOverlappingRecordsKeepLinearOccurrences(t *testing.T) {
	tm := template.Struct(
		template.Array([]*template.Node{template.Field()}, '\n', ';'), template.Lit("\n")).Normalize()
	var b bytes.Buffer
	for i := range 1000 {
		fmt.Fprintf(&b, "v%d\n", i)
	}
	b.WriteString("end;\n")
	lines := textio.NewLines(b.Bytes())
	n := lines.N()
	m := NewMatcher(tm)
	quadratic := n * n / 2 * int(unsafe.Sizeof(FieldOcc{}))
	var c Candidates
	for _, workers := range []int{1, 2, 8} {
		m.MatchLines(&c, lines, workers)
		kept, shadowed := 0, 0
		for i := range c.arenas {
			kept += len(c.arenas[i].occs)
		}
		for _, e := range c.Ends() {
			if e.EndLine != n {
				t.Fatalf("workers %d: %+v, want every line to start a record ending at line %d", workers, e, n)
			}
			if e.shadowed {
				shadowed++
			}
		}
		if shadowed == 0 {
			t.Fatalf("workers %d: test is vacuous: no record shadowed", workers)
		}
		if kept > workers*n {
			t.Errorf("workers %d: %d field occurrences kept for %d lines", workers, kept, n)
		}
		if fp := c.Footprint(); fp > quadratic/8 {
			t.Errorf("workers %d: footprint %d B, overlapping matches would need %d B", workers, fp, quadratic)
		}
	}
}
