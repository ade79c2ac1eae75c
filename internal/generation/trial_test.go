package generation

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"datamaran/internal/chars"
	"datamaran/internal/template"
	"datamaran/internal/textio"
)

// trialFinds runs one trial and returns its finds by template key. global
// holds the best find per template id across trials, and a trial finds a
// template at most once, so with global zeroed beforehand it holds exactly
// this trial's finds afterwards. Zeroing it only loses the cross-trial
// best, which nothing here reads.
func trialFinds(t *testing.T, g *generator, trial func() []found) map[string]found {
	t.Helper()
	clear(g.global)
	kept := trial()
	out := make(map[string]found, len(kept))
	for ti, f := range g.global {
		if f.cov == 0 {
			continue
		}
		ids := template.DecodeIDs(nil, g.tplKeys[ti])
		out[string(g.red.AppendKey(nil, ids))] = f
	}
	if len(out) != len(kept) {
		t.Fatalf("trial returned %d finds, recorded %d", len(kept), len(out))
	}
	return out
}

// freshFinds is the oracle: a new generator's genST of rtset, with no
// state carried over from any earlier trial.
func freshFinds(t *testing.T, lines *textio.Lines, cfg Config, rtset chars.Set) map[string]found {
	t.Helper()
	g := newGenerator(lines, cfg)
	return trialFinds(t, g, func() []found { return g.genST(rtset) })
}

func sameFinds(got, want map[string]found) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d finds, want %d", len(got), len(want))
	}
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			return fmt.Errorf("template %q missing", key)
		}
		if g != w {
			return fmt.Errorf("template %q: {%v %d %d}, want {%v %d %d}",
				key, g.charSet, g.cov, g.fb, w.charSet, w.cov, w.fb)
		}
	}
	return nil
}

// trialInput mixes one- and two-line records over several formatting
// characters, so toggling any one of them re-shapes some lines and not
// others, and windows span records of different forms.
func trialInput(seed int64) *textio.Lines {
	forms := []string{
		"%d,%d,%d\n",
		"[%d] k=%d v:%d\n",
		"%d|%d\n",
		"<%d>\n  a=%d, b=%d;\n",
		"x %d - %d\n",
	}
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	for i := 0; i < 120; i++ {
		form := forms[rng.Intn(len(forms))]
		args := make([]any, strings.Count(form, "%d"))
		for j := range args {
			args[j] = rng.Intn(500)
		}
		fmt.Fprintf(&b, form, args...)
	}
	return textio.NewLines([]byte(b.String()))
}

// TestTrialDependsOnlyOnCharset: a trial's finds depend on its charset
// alone, never on which trials the generator ran before. One generator
// walks the capped charset a character at a time — in random order,
// revisiting sets — through toggleChar + accumulate as the exhaustive
// search does, and another runs greedy-style trials that add a character
// through shapeLine and restore the snapshot, or keep it. Every trial
// must find what a fresh generator's genST of the same charset finds:
// the same templates, each with the same coverage and field bytes.
func TestTrialDependsOnlyOnCharset(t *testing.T) {
	cfg := Config{MaxExhaustive: 6}
	for seed := int64(1); seed <= 3; seed++ {
		lines := trialInput(seed)
		fresh := map[chars.Set]map[string]found{}
		want := func(s chars.Set) map[string]found {
			f, ok := fresh[s]
			if !ok {
				f = freshFinds(t, lines, cfg, s)
				fresh[s] = f
			}
			return f
		}
		rng := rand.New(rand.NewSource(seed))

		t.Run(fmt.Sprintf("seed=%d/exhaustive", seed), func(t *testing.T) {
			g := newGenerator(lines, cfg)
			capped := capCharset(lines, g.cfg, g.present)
			members := capped.Bytes()
			if len(members) < 4 {
				t.Fatalf("capped charset %v too small to walk", capped)
			}
			cur := capped
			got := trialFinds(t, g, func() []found { return g.genST(cur) })
			g.initDerived(capped)
			if err := sameFinds(got, want(cur)); err != nil {
				t.Fatalf("first trial %v: %v", cur, err)
			}
			seen := map[chars.Set]bool{}
			for step := 0; step < 120; step++ {
				c := members[rng.Intn(len(members))]
				if cur.Contains(c) {
					cur.Remove(c)
				} else {
					cur.Add(c)
				}
				seen[cur] = true
				got := trialFinds(t, g, func() []found {
					g.toggleChar(c, cur.Contains(c))
					return g.accumulate(cur)
				})
				if err := sameFinds(got, want(cur)); err != nil {
					t.Fatalf("step %d, charset %v: %v", step, cur, err)
				}
			}
			if len(seen) == 120 {
				t.Fatal("the walk never revisited a charset")
			}
		})

		t.Run(fmt.Sprintf("seed=%d/greedy", seed), func(t *testing.T) {
			g := newGenerator(lines, cfg)
			var cur chars.Set
			got := trialFinds(t, g, func() []found { return g.genST(cur) })
			if err := sameFinds(got, want(cur)); err != nil {
				t.Fatalf("empty charset: %v", err)
			}
			baseShape := append([]int32(nil), g.lineShape...)
			baseFB := append([]int(nil), g.lineFB...)
			members := g.present.Bytes()
			for step := 0; step < 80 && cur.Len() < len(members); step++ {
				c := members[rng.Intn(len(members))]
				if cur.Contains(c) {
					continue
				}
				trial := cur
				trial.Add(c)
				posted := g.lineIdx.Lines(c)
				got := trialFinds(t, g, func() []found {
					for _, li := range posted {
						g.shapeLine(int(li), trial)
					}
					return g.accumulate(trial)
				})
				if err := sameFinds(got, want(trial)); err != nil {
					t.Fatalf("step %d, charset %v: %v", step, trial, err)
				}
				if rng.Intn(4) == 0 {
					// Keep c, as a greedy round keeps its best character.
					cur = trial
					for _, li := range posted {
						baseShape[li] = g.lineShape[li]
						baseFB[li] = g.lineFB[li]
					}
					continue
				}
				for _, li := range posted {
					g.lineShape[li] = baseShape[li]
					g.lineFB[li] = baseFB[li]
				}
			}
		})
	}
}
