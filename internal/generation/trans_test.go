package generation

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"datamaran/internal/chars"
	"datamaran/internal/textio"
)

// TestCapCharsetTieBreak: characters with equal frequency straddling the
// MaxExhaustive boundary must be cut deterministically (by byte value),
// not by whatever order sort.Slice's unstable internals leave equal
// elements in. ',' ':' and ';' all appear twice; only one fits next to
// '=' under MaxExhaustive=2, and it must be ',' (the smallest byte).
func TestCapCharsetTieBreak(t *testing.T) {
	lines := textio.NewLines([]byte(",,::;;===\n"))
	cfg := Config{MaxExhaustive: 2}.withDefaults()
	present := chars.Present(cfg.Candidates, lines.Data())
	if present.Len() != 4 {
		t.Fatalf("present = %v, want 4 members", present)
	}
	capped := capCharset(lines, cfg, present)
	if want := chars.NewSet("=,"); !capped.Equal(want) {
		t.Fatalf("capCharset = %v, want %v", capped, want)
	}
}

// TestTransTableMatchesMapReference drives random (prev, shape) window
// extensions through lookupTrans/insertTrans and checks every lookup
// against a plain map — the structure the transition tables replaced.
// The small-budget runs force rows to stop growing mid-stream so
// insertions spill to the overflow map and dense -1 slots shadow spilled
// entries, the exact interleavings a real trace rarely produces.
func TestTransTableMatchesMapReference(t *testing.T) {
	for _, budget := range []int{succEntryBudget, 64, 8, 0} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(budget) + 1))
			const shapes = 12
			g := &generator{succBudget: budget, succ: make([][]int32, shapes)}
			ref := make(map[winExt]int32)
			next := int32(0)
			for op := 0; op < 5000; op++ {
				prev := int32(rng.Intn(int(next)+2)) - 1 // -1 (root) .. next
				shape := int32(rng.Intn(shapes))
				e := winExt{prev: prev, shape: shape}
				want, ok := ref[e]
				if !ok {
					want = -1
				}
				if got := g.lookupTrans(prev, shape); got != want {
					t.Fatalf("op %d: lookupTrans(%d, %d) = %d, want %d", op, prev, shape, got, want)
				}
				if want < 0 {
					g.insertTrans(prev, shape, next)
					ref[e] = next
					next++
				}
			}
			if g.succLen > budget {
				t.Fatalf("dense entries %d exceed budget %d", g.succLen, budget)
			}
			// Re-check every extension ever interned at the end: row
			// growth after a spill must not shadow spilled entries.
			for e, want := range ref {
				if got := g.lookupTrans(e.prev, e.shape); got != want {
					t.Fatalf("final lookupTrans(%d, %d) = %d, want %d", e.prev, e.shape, got, want)
				}
			}
		})
	}
}

// TestTransTableRandomShapeSequences exercises the tables through the
// real engine: random shape sequences (few distinct line forms, many
// windows) must produce identical candidates from the transition-table
// engine and the frozen map-based reference.
func TestTransTableRandomShapeSequences(t *testing.T) {
	forms := []string{"%d,%d\n", "x=%d\n", "%d|%d|%d\n", "## %d\n"}
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var b strings.Builder
		for i := 0; i < 200; i++ {
			form := forms[rng.Intn(len(forms))]
			n := strings.Count(form, "%d")
			args := make([]interface{}, n)
			for j := range args {
				args[j] = rng.Intn(1000)
			}
			fmt.Fprintf(&b, form, args...)
		}
		lines := textio.NewLines([]byte(b.String()))
		for _, cfg := range []Config{{}, {Search: Greedy}} {
			got := Generate(lines, cfg)
			want := generateReference(lines, cfg)
			if err := sameCandidates(got, want); err != nil {
				t.Fatalf("seed %d, %v search: %v", seed, cfg.Search, err)
			}
		}
	}
}

func sameCandidates(got, want []Candidate) error {
	if len(got) != len(want) {
		return fmt.Errorf("candidate count = %d, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Template.Key() != w.Template.Key() || !g.CharSet.Equal(w.CharSet) ||
			g.Coverage != w.Coverage || g.FieldBytes != w.FieldBytes {
			return fmt.Errorf("candidate %d differs: got {%s %v %d %d}, want {%s %v %d %d}",
				i, g.Template.Key(), g.CharSet, g.Coverage, g.FieldBytes,
				w.Template.Key(), w.CharSet, w.Coverage, w.FieldBytes)
		}
	}
	return nil
}
