package generation

import (
	"strings"

	"datamaran/internal/chars"
	"datamaran/internal/template"
	"datamaran/internal/template/templatetest"
	"datamaran/internal/textio"
)

// This file preserves the pre-interning generation engine verbatim as the
// oracle for the shape-interned engine in generation.go: generateReference
// re-tokenizes every line and re-reduces every window from scratch for
// each charset trial, exactly as the engine shipped before the rewrite.
// It is deliberately simple and slow; the equivalence property tests pin
// Generate's candidate set, order, Coverage and FieldBytes to its output,
// which is what lets the hot path keep changing safely. Do not optimize
// this file.

// generateReference runs the generation step with the reference engine.
// Its output is the contract for Generate.
func generateReference(lines *textio.Lines, cfg Config) []Candidate {
	cfg = cfg.withDefaults()
	present := chars.Present(cfg.Candidates, lines.Data())
	g := &refGenerator{lines: lines, cfg: cfg, bins: map[string]*Candidate{}}
	switch cfg.Search {
	case Greedy:
		g.greedySearch(present)
	default:
		g.exhaustiveSearch(present)
	}
	return g.results()
}

type refGenerator struct {
	lines *textio.Lines
	cfg   Config
	bins  map[string]*Candidate
}

func (g *refGenerator) exhaustiveSearch(present chars.Set) {
	present = capCharset(g.lines, g.cfg, present)
	chars.Subsets(present, func(s chars.Set) bool {
		g.genST(s)
		return true
	})
}

func (g *refGenerator) greedySearch(present chars.Set) {
	var cur chars.Set
	g.genST(cur) // the empty charset still yields line templates F\n etc.
	remaining := present.Bytes()
	for len(remaining) > 0 {
		bestScore := -1.0
		bestIdx := -1
		for i, c := range remaining {
			trial := cur
			trial.Add(c)
			found := g.genST(trial)
			for _, cand := range found {
				if a := cand.Assimilation(); a > bestScore {
					bestScore = a
					bestIdx = i
				}
			}
		}
		if bestIdx < 0 {
			break // no charset this round produced an α%-coverage template
		}
		cur.Add(remaining[bestIdx])
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
	}
}

// genST enumerates all potential records under one RT-CharSet value,
// reducing each distinct window from scratch (per-line []*template.Node
// tokens, per-call shape and window maps).
func (g *refGenerator) genST(rtset chars.Set) []Candidate {
	lines := g.lines
	n := lines.N()
	data := lines.Data()
	total := len(data)
	if total == 0 {
		return nil
	}
	threshold := int(g.cfg.Alpha * float64(total))

	lineToks := make([][]*template.Node, n)
	lineFB := make([]int, n)
	lineShape := make([]int32, n)
	shapeIDs := map[string]int32{}
	for i := 0; i < n; i++ {
		toks, fb := templatetest.ExtractRecordTemplate(lines.Line(i), rtset)
		lineToks[i] = toks
		lineFB[i] = fb
		raw := rawKey(toks)
		id, ok := shapeIDs[raw]
		if !ok {
			id = int32(len(shapeIDs))
			shapeIDs[raw] = id
		}
		lineShape[i] = id
	}

	type winExtRef struct {
		prev  int32
		shape int32
	}
	winIDs := map[winExtRef]int32{}
	var winBin []int32

	type binAccRef struct {
		cand    Candidate
		lastEnd int
	}
	var binList []*binAccRef
	binIdx := map[string]int32{}

	resolveWindow := func(i, j int) int32 {
		tokCount := 0
		for k := i; k < j; k++ {
			tokCount += len(lineToks[k])
		}
		toks := make([]*template.Node, 0, tokCount)
		for k := i; k < j; k++ {
			toks = append(toks, lineToks[k]...)
		}
		tpl := templatetest.Reduce(toks)
		if tpl.NumFields() == 0 || !endsWithNewline(tpl) {
			return -1
		}
		key := tpl.Key()
		bi, ok := binIdx[key]
		if !ok {
			bi = int32(len(binList))
			binIdx[key] = bi
			binList = append(binList, &binAccRef{cand: Candidate{Template: tpl, CharSet: rtset}})
		}
		return bi
	}

	for i := 0; i < n; i++ {
		prev := int32(-1)
		fb := 0
		for s := 1; s <= g.cfg.MaxSpan && i+s <= n; s++ {
			j := i + s
			fb += lineFB[j-1]
			blockLen := lines.Start(j) - lines.Start(i)
			if blockLen > g.cfg.MaxRecordBytes {
				break
			}
			ext := winExtRef{prev: prev, shape: lineShape[j-1]}
			wid, ok := winIDs[ext]
			if !ok {
				wid = int32(len(winBin))
				winIDs[ext] = wid
				if data[lines.Start(j)-1] != '\n' {
					winBin = append(winBin, -1)
				} else {
					winBin = append(winBin, resolveWindow(i, j))
				}
			}
			prev = wid
			bi := winBin[wid]
			if bi < 0 {
				continue
			}
			b := binList[bi]
			if i >= b.lastEnd {
				b.cand.Coverage += blockLen
				b.cand.FieldBytes += fb
				b.lastEnd = j
			}
		}
	}

	var kept []Candidate
	for key, bi := range binIdx {
		b := binList[bi]
		if b.cand.Coverage < threshold {
			continue
		}
		kept = append(kept, b.cand)
		if prev, ok := g.bins[key]; !ok || b.cand.Coverage > prev.Coverage {
			cc := b.cand
			g.bins[key] = &cc
		}
	}
	return kept
}

func (g *refGenerator) results() []Candidate {
	out := make([]Candidate, 0, len(g.bins))
	for _, c := range g.bins {
		if template.IsPeriodicStack(c.Template) {
			continue
		}
		out = append(out, *c)
	}
	sortCandidates(out)
	if len(out) > g.cfg.MaxCandidates {
		out = out[:g.cfg.MaxCandidates]
	}
	return out
}

// rawKey builds a cheap pre-reduction key for a token run: 0x01 for
// fields, the character for literals.
func rawKey(toks []*template.Node) string {
	var b strings.Builder
	b.Grow(len(toks))
	for _, t := range toks {
		if t.Kind == template.KField {
			b.WriteByte(0x01)
		} else {
			b.WriteString(t.Lit)
		}
	}
	return b.String()
}

// endsWithNewline reports whether a template's last character is the
// newline: the record-template condition the engine reads off the last id.
func endsWithNewline(st *template.Node) bool {
	switch st.Kind {
	case template.KLiteral:
		return len(st.Lit) > 0 && st.Lit[len(st.Lit)-1] == '\n'
	case template.KArray:
		return st.Term == '\n'
	case template.KStruct:
		if len(st.Children) == 0 {
			return false
		}
		return endsWithNewline(st.Children[len(st.Children)-1])
	}
	return false
}
