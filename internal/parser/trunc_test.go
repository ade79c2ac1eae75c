package parser

import (
	"testing"

	"datamaran/internal/template"
	"datamaran/internal/textio"
)

// TestMatchTruncDistinguishesFailures pins the contract the streaming
// engine depends on: a failure caused by running off the buffer is
// flagged (more bytes could flip it), a mismatch on resident bytes is
// not (no amount of extra data can).
func TestMatchTruncDistinguishesFailures(t *testing.T) {
	csv := NewMatcher(template.Struct(
		template.Field(), template.Lit(","), template.Field(), template.Lit("\n"),
	).Normalize())
	multi := NewMatcher(template.Struct(
		template.Lit("BEGIN "), template.Field(), template.Lit("\nEND;\n"),
	).Normalize())
	arr := NewMatcher(template.Array([]*template.Node{template.Field()}, ',', '\n'))
	arrLit := NewMatcher(template.Array(
		[]*template.Node{template.Field(), template.Lit(":")}, ',', '\n'))

	cases := []struct {
		name      string
		m         *Matcher
		data      string
		ok        bool
		truncated bool
	}{
		{"csv complete", csv, "a,b\n", true, false},
		{"csv cut mid-field", csv, "a,b", false, true},
		{"csv cut before comma", csv, "ab", false, true},
		{"csv definitive mismatch", csv, "ab\n", false, false},
		{"multi complete", multi, "BEGIN x\nEND;\n", true, false},
		{"multi cut inside literal", multi, "BEGIN x\nEN", false, true},
		{"multi literal mismatch", multi, "BEGIN x\nEXD;\n", false, false},
		{"multi cut at start", multi, "BEG", false, true},
		{"multi wrong head", multi, "BOGUS\n", false, false},
		{"array complete", arr, "a,b,c\n", true, false},
		{"array cut after sep", arr, "a,b", false, true},
		{"array bad delimiter", arrLit, "a:,b:x\n", false, false},
	}
	for _, c := range cases {
		_, ok, trunc := c.m.MatchEnds([]byte(c.data), 0)
		if ok != c.ok || trunc != c.truncated {
			t.Errorf("%s: MatchEnds(%q) = ok %v, truncated %v; want %v, %v",
				c.name, c.data, ok, trunc, c.ok, c.truncated)
		}
	}
}

// TestMatchCandidatesTruncatedFlag checks candidates near the buffer end
// carry the deferral flag while interior failures do not.
func TestMatchCandidatesTruncatedFlag(t *testing.T) {
	m := NewMatcher(template.Struct(
		template.Field(), template.Lit(","), template.Field(), template.Lit("\n"),
	).Normalize())
	lines := textio.NewLines([]byte("a,b\n~~noise~~\nc,d\ne,f"))
	var c Candidates
	m.MatchLines(&c, lines, 2)
	cands := c.Ends()
	if cands[0].EndLine != 1 {
		t.Errorf("line 0: %+v, want match ending at line 1", cands[0])
	}
	if cands[1].EndLine != 0 || cands[1].Truncated {
		t.Errorf("line 1 (interior noise): %+v, want definitive failure", cands[1])
	}
	if cands[2].EndLine != 3 {
		t.Errorf("line 2: %+v, want match", cands[2])
	}
	if cands[3].EndLine != 0 || !cands[3].Truncated {
		t.Errorf("line 3 (cut record): %+v, want truncated failure", cands[3])
	}
}
