package refine

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"datamaran/internal/parser"
	"datamaran/internal/score"
	"datamaran/internal/template"
	"datamaran/internal/textio"
)

// refineReference is Refine as it stood before unfold variants were scored
// from their parent's scan: each round reads the repetition counts from a
// fresh scan of its template, and every variant is compiled and scored
// through scorer.Score — for a score.MDL, a scan of the variant over every
// line. It is the oracle Refine is held to.
func refineReference(st *template.Node, lines *textio.Lines, scorer score.Scorer) (*template.Node, score.Result) {
	best := st
	bestRes := scorer.Score(parser.NewMatcher(best), lines)
	for {
		var roundBest *template.Node
		roundRes := bestRes
		stats := repStats(best, lines)
		for arr, path := range arrayPaths(best) {
			for _, v := range unfoldVariants(best, path, arr, stats[arr]) {
				if res := scorer.Score(parser.NewMatcher(v.tpl), lines); res.Bits < roundRes.Bits {
					roundBest, roundRes = v.tpl, res
				}
			}
		}
		if roundBest == nil {
			break
		}
		best, bestRes = roundBest, roundRes
	}
	if shifted := Shift(best, lines); !shifted.Equal(best) {
		best = shifted
		bestRes = scorer.Score(parser.NewMatcher(best), lines)
	}
	return best, bestRes
}

// freshScorer is a bare score.MDL that cannot score a scan handed to it:
// Refine gives it every variant through Score, a fresh scan each.
type freshScorer struct{}

func (freshScorer) Score(m *parser.Matcher, lines *textio.Lines) score.Result {
	return score.MDL{}.Score(m, lines)
}

// deriveChecker is an MDL scorer that holds every scan Refine derived to
// a fresh scan of the same template, and every score of a scan handed to
// it to the fresh scan's score, and counts the scans it was handed,
// derived or not.
type deriveChecker struct {
	t                *testing.T
	mdl              score.MDL
	derived, scanned int
}

func (c *deriveChecker) Score(m *parser.Matcher, lines *textio.Lines) score.Result {
	return c.mdl.Score(m, lines)
}

func (c *deriveChecker) ScanCache() *score.ScanCache { return c.mdl.Cache }

func (c *deriveChecker) ScoreScan(m *parser.Matcher, lines *textio.Lines, scan, from *score.Scan, d parser.Derivation) score.Result {
	c.t.Helper()
	if from == nil {
		c.scanned++
	} else {
		c.derived++
		requireScansEqual(c.t, m.Template().String(), m.Scan(lines), &scan.ScanResult)
	}
	res := c.mdl.ScoreScan(m, lines, scan, from, d)
	if want := (score.MDL{}).Score(m, lines); !reflect.DeepEqual(res, want) || math.Float64bits(res.Bits) != math.Float64bits(want.Bits) {
		c.t.Fatalf("%v: scored %+v from the scan handed in, %+v from a fresh scan", m.Template(), res, want)
	}
	return res
}

// requireScansEqual fails t unless got holds want's records — spans and
// occurrences —, noise lines, coverage and field bytes.
func requireScansEqual(t *testing.T, label string, want, got *parser.ScanResult) {
	t.Helper()
	if !slices.Equal(got.Records, want.Records) || !slices.Equal(got.NoiseLines, want.NoiseLines) ||
		got.Coverage != want.Coverage || got.FieldBytes != want.FieldBytes {
		t.Fatalf("%s: %d records, noise %v, coverage %d, field bytes %d; want %d, %v, %d, %d", label,
			len(got.Records), got.NoiseLines, got.Coverage, got.FieldBytes,
			len(want.Records), want.NoiseLines, want.Coverage, want.FieldBytes)
	}
	for i := range want.Records {
		if !slices.Equal(got.Fields(i), want.Fields(i)) || !slices.Equal(got.Arrays(i), want.Arrays(i)) {
			t.Fatalf("%s: record %d = %v %v, want %v %v", label, i, got.Fields(i), got.Arrays(i), want.Fields(i), want.Arrays(i))
		}
	}
	if !slices.Equal(got.AllFields(), want.AllFields()) || !slices.Equal(got.AllArrays(), want.AllArrays()) {
		t.Fatalf("%s: AllFields/AllArrays differ", label)
	}
}

// droppedSeparator is the input on which a full unfold at one repetition
// drops the separator from the RT-CharSet: F=F\n matches "a=b,c", a line
// whose parent record (F=F,)*F=F\n repeats twice.
func droppedSeparator() (*template.Node, *textio.Lines) {
	return template.Array([]*template.Node{fld(), lit("="), fld()}, ',', '\n'),
		linesOf(strings.Repeat("a=b\n", 60) + strings.Repeat("a=b,c\n", 50))
}

// TestUnfoldScanMatchesFreshScan: every variant scan Refine derives on the
// refinement inputs equals the variant's own scan, and the two kinds of
// variant the derivation does not apply to are refused by name — the full
// unfold at one repetition that drops the separator, whose fresh scan
// covers lines its parent's records do not, and the unfolds of an array
// inside another array or holding one.
func TestUnfoldScanMatchesFreshScan(t *testing.T) {
	checker := &deriveChecker{t: t, mdl: score.MDL{Cache: score.NewScanCache()}}
	for name, in := range refineInputs() {
		Refine(in.st, in.lines, checker)
		if name == "nested" {
			continue
		}
		if checker.derived == 0 {
			t.Errorf("%s: no variant was derived", name)
		}
	}
	if checker.scanned == 0 {
		t.Error("every variant was derived: the nested case exercises nothing")
	}

	t.Run("separator dropped at k=1", func(t *testing.T) {
		st, lines := droppedSeparator()
		pm := parser.NewMatcher(st)
		from := pm.Scan(lines)
		v := variant{replaceAt(st, nil, fullUnfold(st, 1)), parser.Unfold{Arr: 0, K: 1}}
		m := parser.NewMatcher(v.tpl)
		if _, ok := m.DeriveScan(pm, v.unfold, lines, from, new(parser.ScanResult)); ok {
			t.Fatalf("%v derived from %v", v.tpl, st)
		}
		once := 0
		for _, a := range from.AllArrays() {
			if a.Reps == 1 {
				once++
			}
		}
		if fresh := m.Scan(lines); len(fresh.Records) <= once {
			t.Fatalf("%v: %d records, its parent %d with one repetition; the case exercises nothing", v.tpl, len(fresh.Records), once)
		}
	})
	t.Run("nested", func(t *testing.T) {
		in := refineInputs()["nested"]
		pm := parser.NewMatcher(in.st)
		from := pm.Scan(in.lines)
		stats := allRepStats(pm, from)
		for arr, path := range arrayPaths(in.st) {
			vs := unfoldVariants(in.st, path, arr, stats[arr])
			if len(vs) == 0 {
				t.Fatalf("array %d of %v: no variant", arr, in.st)
			}
			for _, v := range vs {
				if _, ok := parser.NewMatcher(v.tpl).DeriveScan(pm, v.unfold, in.lines, from, new(parser.ScanResult)); ok {
					t.Errorf("%v derived from %v", v.tpl, in.st)
				}
			}
		}
	})
}

// TestRefineMatchesReference: Refine, deriving its variants' scans into
// storage the scorer's cache owns, ends where refineReference does — the
// same template and the same result, to the float64 bit — through a cache
// carried from input to input, as a round's is from candidate to
// candidate, a cache of its own, no cache, and a wrapper that scores every
// variant through Score; and each ends where the reference does scanning
// every variant into a fresh arena.
func TestRefineMatchesReference(t *testing.T) {
	inputs := refineInputs()
	st, lines := droppedSeparator()
	inputs["separator dropped at k=1"] = struct {
		st    *template.Node
		lines *textio.Lines
	}{st, lines}
	shared := score.MDL{Cache: score.NewScanCache()}
	for name, in := range inputs {
		fresh, freshRes := refineReference(in.st, in.lines, freshScorer{})
		if fresh.Equal(in.st) {
			t.Errorf("%s: %v was not refined; the case exercises nothing", name, in.st)
		}
		for scorerName, scorer := range map[string]score.Scorer{
			"shared cache": shared,
			"own cache":    score.MDL{Cache: score.NewScanCache()},
			"no cache":     score.MDL{},
			"wrapped":      &trajectory{mdl: shared},
		} {
			want, wantRes := refineReference(in.st, in.lines, scorer)
			if !want.Equal(fresh) || !reflect.DeepEqual(wantRes, freshRes) {
				t.Errorf("%s, %s: the reference ends at %v %+v, scanning into fresh arenas at %v %+v", name, scorerName, want, wantRes, fresh, freshRes)
			}
			// Twice: the second run finds the cache's storage grown.
			for run := 0; run < 2; run++ {
				got, gotRes := Refine(in.st, in.lines, scorer)
				if !got.Equal(want) || !reflect.DeepEqual(gotRes, wantRes) || math.Float64bits(gotRes.Bits) != math.Float64bits(wantRes.Bits) {
					t.Errorf("%s, %s, run %d:\n got %v %+v\nwant %v %+v", name, scorerName, run, got, gotRes, want, wantRes)
				}
			}
		}
	}
}
