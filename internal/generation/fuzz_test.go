package generation_test

import (
	"fmt"
	"strings"
	"testing"

	"datamaran/internal/chars"
	"datamaran/internal/datagen"
	"datamaran/internal/generation"
	"datamaran/internal/textio"
)

// FuzzGenerate drives the shape-interned engine against the frozen
// reference on arbitrary inputs and configs: beyond not panicking, the
// candidate lists must be identical (the oracle property of the
// equivalence suite, extended by the fuzzer to adversarial inputs), and
// every candidate must be a well-formed record template — at least one
// field, newline-terminated, coverage within the input length. A span
// byte from 0xF0 up asks for a span past any input's line count, up to
// 1<<40 at 0xFF: the engine must bound it by the lines there are, as the
// reference's window loop does, and size nothing by the span itself.
func FuzzGenerate(f *testing.F) {
	for i, d := range datagen.GitHubCorpus(42) {
		if i%25 != 0 {
			continue
		}
		lines := strings.SplitAfter(string(d.Data), "\n")
		n := 12
		if n > len(lines) {
			n = len(lines)
		}
		f.Add([]byte(strings.Join(lines[:n], "")), byte(0), byte(0))
		f.Add([]byte(strings.Join(lines[:n], "")), byte(1), byte(4))
	}
	f.Add([]byte("a,b\nc,d\ne,f\n"), byte(1), byte(1))
	f.Add([]byte("x=1\ny:2\nx=3\ny:4\n"), byte(0), byte(10))
	f.Add([]byte(""), byte(0), byte(0))
	f.Add([]byte("no trailing newline"), byte(1), byte(3))
	var short strings.Builder
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&short, "%d,%d\n", i, i%7)
	}
	f.Add([]byte(short.String()), byte(0), byte(0xFF))

	f.Fuzz(func(t *testing.T, data []byte, mode, span byte) {
		if len(data) > 2048 {
			t.Skip("large inputs are the bench's job; fuzz explores shapes")
		}
		cfg := generation.Config{
			MaxSpan: int(span%12) + 1,
			Search:  generation.SearchMode(mode % 2),
		}
		lines := textio.NewLines(data)
		if span >= 0xF0 {
			// Every pair of line boundaries is a window at such spans,
			// and both engines intern each one under every charset
			// tried (at most 2^10): keep the total in the tens of
			// thousands, as spans of 12 lines do.
			n := lines.N()
			trials := 1 << min(chars.Present(chars.DefaultCandidates(), data).Len(), 10)
			if n*(n+1)/2*trials > 1<<16 {
				t.Skip("n² windows under every charset: the bench's job, not the fuzzer's")
			}
			cfg.MaxSpan = 1 << (span - 0xF0 + 25) // 1<<25 … 1<<40
		}
		got := generation.Generate(lines, cfg)
		want := generation.GenerateReference(lines, cfg)
		if len(got) != len(want) {
			t.Fatalf("engine returned %d candidates, reference %d (cfg %+v)", len(got), len(want), cfg)
		}
		for i := range got {
			g, w := got[i], want[i]
			if !g.Template.Equal(w.Template) || !g.CharSet.Equal(w.CharSet) ||
				g.Coverage != w.Coverage || g.FieldBytes != w.FieldBytes {
				t.Fatalf("candidate %d diverges: engine {%v %v %d %d} reference {%v %v %d %d}",
					i, g.Template, g.CharSet, g.Coverage, g.FieldBytes,
					w.Template, w.CharSet, w.Coverage, w.FieldBytes)
			}
			if g.Template.NumFields() == 0 {
				t.Fatalf("candidate %d has no fields: %v", i, g.Template)
			}
			if s := g.Template.String(); !strings.HasSuffix(s, `\n`) {
				t.Fatalf("candidate %d not newline-terminated: %v", i, g.Template)
			}
			if g.Coverage <= 0 || g.Coverage > len(data) {
				t.Fatalf("candidate %d coverage %d outside (0, %d]", i, g.Coverage, len(data))
			}
			if g.FieldBytes < 0 || g.FieldBytes > g.Coverage {
				t.Fatalf("candidate %d field bytes %d outside [0, coverage %d]", i, g.FieldBytes, g.Coverage)
			}
		}
	})
}
