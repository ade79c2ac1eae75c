package parser_test

import (
	"testing"

	"datamaran/internal/parser"
	"datamaran/internal/template"
	"datamaran/internal/textio"
)

// TestDeriveScanRefusesSeparatorTerminator: an array whose separator is its
// terminator never terminates, so its template matches nothing, while its
// full unfold, which spells the terminator out, matches. DeriveScan must
// refuse it rather than derive the empty scan.
func TestDeriveScanRefusesSeparatorTerminator(t *testing.T) {
	lines := textio.NewLines([]byte("a,b,\nc,d,\n"))
	tm := st(template.Array([]*template.Node{fld()}, ',', ','), lit("\n"))
	full := st(fld(), lit(","), fld(), lit(",\n"))
	parent, m := parser.NewMatcher(tm), parser.NewMatcher(full)
	from := parent.Scan(lines)
	if len(from.Records) != 0 || len(m.Scan(lines).Records) != 2 {
		t.Fatalf("%v matches %d records, %v %d; the case exercises nothing", tm, len(from.Records), full, len(m.Scan(lines).Records))
	}
	if _, ok := m.DeriveScan(parent, parser.Unfold{Arr: 0, K: 2}, lines, from, new(parser.ScanResult)); ok {
		t.Fatalf("%v derived from %v", full, tm)
	}
}
