package generation

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// interleavedData is two record types interleaved, one- and two-line
// windows of several shapes: enough special characters for a few hundred
// exhaustive charset trials and enough templates over any α to rank.
func interleavedData(rows int) string {
	var b strings.Builder
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&b, "GET /page/%d 200\n", i)
		if i%2 == 0 {
			fmt.Fprintf(&b, "ERR code=%d msg=timeout;retry=%d\n", i, i%3)
		}
	}
	return b.String()
}

// cancelAfter reports cancelled from its (polls+1)-th Err call on: a
// deterministic stand-in for a context cancelled mid-generation.
type cancelAfter struct {
	context.Context
	polls int
}

func (c *cancelAfter) Err() error {
	if c.polls == 0 {
		return context.Canceled
	}
	c.polls--
	return nil
}

// TestGenerateContextStopsWithinOneTrial: generation polls its context once
// per charset trial, so a context that turns cancelled after N polls stops
// the search with ctx.Err() and at most N+1 charsets tried — in both
// searches, which would otherwise run a few hundred (exhaustive) or a few
// dozen (greedy) trials on this input.
func TestGenerateContextStopsWithinOneTrial(t *testing.T) {
	lines := linesOf(interleavedData(60))
	for _, search := range []SearchMode{Exhaustive, Greedy} {
		cfg := Config{Search: search}
		full := CharsetsTried(lines, cfg)
		for _, n := range []int{0, 1, 5} {
			if full <= n+1 {
				t.Fatalf("%v: an uncancelled search tries %d charsets, too few to cancel after %d", search, full, n)
			}
			g := newGenerator(lines, cfg)
			err := g.search(&cancelAfter{Context: context.Background(), polls: n})
			if err != context.Canceled {
				t.Fatalf("%v, cancelled after %d polls: search returned %v, want context.Canceled", search, n, err)
			}
			if g.charsetsTried > n+1 {
				t.Fatalf("%v, cancelled after %d polls: %d charsets tried, want at most %d", search, n, g.charsetsTried, n+1)
			}
			cands, err := GenerateContext(&cancelAfter{Context: context.Background(), polls: n}, lines, cfg)
			if err != context.Canceled || cands != nil {
				t.Fatalf("%v: GenerateContext = %d candidates, %v; want none, context.Canceled", search, len(cands), err)
			}
		}
		// Never cancelled, GenerateContext is Generate.
		cands, err := GenerateContext(context.Background(), lines, cfg)
		if err != nil {
			t.Fatalf("%v: GenerateContext: %v", search, err)
		}
		if err := sameCandidates(cands, Generate(lines, cfg)); err != nil {
			t.Fatalf("%v: GenerateContext differs from Generate: %v", search, err)
		}
	}
}
