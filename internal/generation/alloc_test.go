package generation

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"datamaran/internal/chars"
	"datamaran/internal/textio"
)

// warmGenST is the steady state of BenchmarkGenSTSteadyState and its
// zero-allocation pin: a generator whose first trial over two
// interleaved line shapes has interned its shapes, window identities and
// templates and sized its bins. The returned func repeats the trial.
func warmGenST() func() {
	var b strings.Builder
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&b, "%d,%d,%d\nstatus=%d ok\n", i, i*2, i*3, i%7)
	}
	g := newGenerator(textio.NewLines([]byte(b.String())), Config{})
	rtset := chars.NewSet(",= ")
	g.genST(rtset)
	return func() { g.genST(rtset) }
}

// TestGenSTSteadyStateAllocs pins the arena contract of the
// shape-interned engine: once a charset's shapes, window identities and
// reduced templates are interned (the first trial pays for them), a
// repeated genST over the same input re-tokenizes every line into the
// reused token buffer, finds its shape interned, resolves every window
// through the transition tables and accumulates into the reused
// per-trial bins — zero heap allocations. This is the
// generation-step counterpart of the parser's ScanArenaReuse pin, and
// what keeps the O(c²) greedy trials off the allocator on repeated
// shapes.
func TestGenSTSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	if allocs := testing.AllocsPerRun(100, warmGenST()); allocs > 0 {
		t.Fatalf("steady-state genST allocated %.1f objects per run, want 0", allocs)
	}
}

// BenchmarkGenSTSteadyState times the window accumulation loop that
// TestGenSTSteadyStateAllocs pins at 0 allocs/op.
func BenchmarkGenSTSteadyState(b *testing.B) {
	trial := warmGenST()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trial()
	}
}

// TestGenSTSteadyStateAllocsAcrossCharsets extends the pin to the greedy
// search's access pattern: alternating between charsets whose shapes are
// all interned must also stay allocation-free — the cross-trial sharing
// is the point of the generator-lifetime interning.
func TestGenSTSteadyStateAllocsAcrossCharsets(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	var b strings.Builder
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&b, "%d,%d|%d\n", i, i*2, i*3)
	}
	lines := textio.NewLines([]byte(b.String()))
	g := newGenerator(lines, Config{})
	sets := []chars.Set{chars.NewSet(","), chars.NewSet("|"), chars.NewSet(",|")}
	for _, s := range sets {
		g.genST(s) // warm every charset once
	}
	allocs := testing.AllocsPerRun(20, func() {
		for _, s := range sets {
			g.genST(s)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state charset alternation allocated %.1f objects per run, want 0", allocs)
	}
}

// TestResolveWindowAllocs pins what a distinct window costs. Its template
// is an id sequence in the reducer's buffer until it is interned: a window
// landing on a template the table already holds allocates nothing, and one
// landing on a new template allocates its table entry and the arrays it is
// first to fold — a constant, where a tree was an object per token and
// per fold (each line below is ≈270 tokens and 41 folds).
func TestResolveWindowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const fresh = 256
	var b strings.Builder
	b.WriteString("1,2,3\n1,2,3,4\n") // two shapes, one template: (F,)*F\n
	for k := 0; k < fresh; k++ {
		// A prefix spelling k in two literals makes every line a template
		// of its own; the groups behind it all fold to the same array.
		for bit := 0; bit < 8; bit++ {
			b.WriteByte(":|"[k>>bit&1])
		}
		for grp := 0; grp < 40; grp++ {
			b.WriteString("x,y,z;")
		}
		b.WriteString("\n")
	}
	lines := textio.NewLines([]byte(b.String()))
	g := newGenerator(lines, Config{})
	rtset := chars.NewSet(",;:|")
	for i := 0; i < g.n; i++ {
		g.shapeLine(i, rtset)
	}

	known := g.resolveWindow(0, 1)
	if known < 0 || g.resolveWindow(1, 2) != known {
		t.Fatalf("lines 0 and 1 resolve to templates %d and %d, want one valid template", known, g.resolveWindow(1, 2))
	}
	g.resolveWindow(2, 3) // sizes the reducer's buffers for the long lines
	if allocs := testing.AllocsPerRun(20, func() { g.resolveWindow(1, 2) }); allocs > 0 {
		t.Fatalf("resolving a window of a known template allocated %.1f objects, want 0", allocs)
	}

	before := len(g.tplKeys)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 3; i < g.n; i++ {
		g.resolveWindow(i, i+1)
	}
	runtime.ReadMemStats(&m1)
	added := len(g.tplKeys) - before
	if added != fresh-1 {
		t.Fatalf("%d new templates interned, want %d", added, fresh-1)
	}
	// One key string a template, plus the amortized growth of the table
	// and the arrays the prefixes fold into.
	if perTpl := float64(m1.Mallocs-m0.Mallocs) / float64(added); perTpl > 3 {
		t.Fatalf("a new template allocated %.1f objects, want O(1) (at most 3)", perTpl)
	}
}

// TestGenerateBuildsOnlyWhatItReturns pins late materialisation: templates
// are ids through search, filter, sort and cut, and a tree is built only
// for a candidate Generate returns — not for the templates that met α
// under some charset and were then dropped as periodic stacks or cut by
// MaxCandidates, let alone for every window.
func TestGenerateBuildsOnlyWhatItReturns(t *testing.T) {
	// The one-off lines make windows whose templates never reach α.
	lines := linesOf(interleavedData(60) + "# a|b\n## c|d|e f\n")
	for _, search := range []SearchMode{Exhaustive, Greedy} {
		g := newGenerator(lines, Config{Search: search, MaxCandidates: 7})
		if err := g.search(context.Background()); err != nil {
			t.Fatal(err)
		}
		metAlpha := 0
		for _, f := range g.global {
			if f.cov > 0 {
				metAlpha++
			}
		}
		out := g.results()
		if len(out) != 7 || metAlpha <= len(out) || len(g.tplKeys) <= metAlpha {
			t.Fatalf("%v: %d templates, %d met α, %d returned: the input must exercise threshold, filter and cut",
				search, len(g.tplKeys), metAlpha, len(out))
		}
		if g.built != len(out) {
			t.Fatalf("%v: built %d trees for %d returned candidates", search, g.built, len(out))
		}
		if err := sameCandidates(out, generateReference(lines, Config{Search: search, MaxCandidates: 7})); err != nil {
			t.Fatalf("%v: %v", search, err)
		}
		// A caller that keeps the top M has M trees built, not MaxCandidates.
		g = newGenerator(lines, Config{Search: search})
		if err := g.search(context.Background()); err != nil {
			t.Fatal(err)
		}
		if top, generated := g.pruned(3); len(top) != 3 || generated <= 3 || g.built != 3 {
			t.Fatalf("%v: %d trees built for the top %d of %d structured candidates", search, g.built, len(top), generated)
		}
	}
}
