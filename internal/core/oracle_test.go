package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"datamaran/internal/core"
	"datamaran/internal/datagen"
	"datamaran/internal/generation"
	"datamaran/internal/parser"
	"datamaran/internal/refine"
	"datamaran/internal/score"
	"datamaran/internal/template"
	"datamaran/internal/textio"
)

// evaluateReference is the evaluation step as it stood before candidates
// were pruned by refine.CertainNoise and scans shared an arena: every
// candidate is refined, in plain-score order, and every variant is scored
// by a bare score.MDL — a fresh Matcher.Scan into a fresh ScanResult, no
// memo of any kind. It is the oracle evaluate is held to.
func evaluateReference(ctx context.Context, top []generation.Candidate, evalLines *textio.Lines, opts core.Options, _ *core.Timing) (*template.Node, score.Result, error) {
	type scored struct {
		tpl *template.Node
		res score.Result
	}
	var plain []scored
	for _, cand := range top {
		if r := (score.MDL{}).Score(parser.NewMatcher(cand.Template), evalLines); r.Records > 0 {
			plain = append(plain, scored{cand.Template, r})
		}
	}
	sort.SliceStable(plain, func(i, j int) bool { return plain[i].res.Bits < plain[j].res.Bits })
	var best *template.Node
	var bestRes score.Result
	for _, s := range plain {
		tpl, r := s.tpl, s.res
		if !opts.DisableRefinement {
			tpl, r = refine.Refine(s.tpl, evalLines, score.MDL{})
		}
		if template.IsPeriodicStack(tpl) {
			continue
		}
		if best == nil || r.Bits < bestRes.Bits {
			best, bestRes = tpl, r
		}
	}
	return best, bestRes, nil
}

// family is a dataset generator with its base row count.
type family struct {
	gen  func(rows int, seed int64) *datagen.Dataset
	rows int
}

// table5 lists the generators of the 25 Table-5 analogs (datagen's own
// table pins its seeds).
var table5 = []family{
	{datagen.TransactionRecords, 300}, {datagen.CommaSepRecords, 300}, {datagen.WebServerLog, 400},
	{datagen.MacASLLog, 300}, {datagen.MacBootLog, 300}, {datagen.CrashLog, 150},
	{datagen.CrashLogModified, 150}, {datagen.LsOutput, 250}, {datagen.NetstatOutput, 300},
	{datagen.PrinterLogs, 250}, {datagen.PersonalIncomeRecords, 250}, {datagen.USRailroadInfo, 250},
	{datagen.ApplicationLog, 300}, {datagen.LoginWindowLog, 300}, {datagen.PkgInstallLog, 250},
	{datagen.ThailandDistricts, 120}, {datagen.StackexchangeXML, 500}, {datagen.VCFGenetic, 600},
	{datagen.FastqGenetic, 200}, {datagen.BlogXML, 100}, {datagen.LogFile1, 120},
	{datagen.LogFile2, 200}, {datagen.LogFile3, 300}, {datagen.LogFile4, 100}, {datagen.LogFile5, 150},
}

// TestPrunedEvaluationMatchesExhaustive holds evaluate to the exhaustive
// oracle on every residue round of every input: same template, same
// score.Result. The inputs are the 25 Table-5 analogs at the benchmark's
// scale over six generator seeds — the benchmark's four curated ones and
// two arbitrary ones, whose instances discovery partly gets wrong, which
// the equivalence must survive — plus core_test's multi-line, interleaved
// two-type and noisy inputs. Short and race runs keep every hand-made
// input and a five-family slice of one seed.
func TestPrunedEvaluationMatchesExhaustive(t *testing.T) {
	inputs := map[string][]byte{
		"multi-line":  multiLineNoisyInput(),
		"interleaved": interleavedTwoTypesInput(),
		"noisy":       junkEndsInput(),
	}
	seeds, families := []int64{1, 6, 29, 26, 3, 17}, table5
	if testing.Short() {
		seeds, families = seeds[:1], []family{table5[1], table5[5], table5[7], table5[18], table5[22]}
	}
	for _, seed := range seeds {
		for i, f := range families {
			d := f.gen(f.rows/2, seed*1000+int64(i))
			inputs[fmt.Sprintf("%s/seed%d", d.Name, seed)] = d.Data
		}
	}
	for name, data := range inputs {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rounds := 0
			both := func(ctx context.Context, top []generation.Candidate, lines *textio.Lines, opts core.Options, timing *core.Timing) (*template.Node, score.Result, error) {
				rounds++
				got, gotRes, err := core.Evaluate(ctx, top, lines, opts, timing)
				if err != nil {
					return nil, score.Result{}, err
				}
				want, wantRes, _ := evaluateReference(ctx, top, lines, opts, nil)
				if !got.Equal(want) || !reflect.DeepEqual(gotRes, wantRes) {
					t.Errorf("round %d:\n got %v %+v\nwant %v %+v", rounds, got, gotRes, want, wantRes)
				}
				return got, gotRes, nil
			}
			structures, _, err := core.DiscoverWith(context.Background(), data, core.Options{}, both)
			if err != nil {
				t.Fatal(err)
			}
			if rounds == 0 || len(structures) == 0 {
				t.Errorf("%d rounds, %d structures — nothing was compared", rounds, len(structures))
			}
		})
	}
}

// multiLineNoisyInput is 80 two-line records with a noise line after every
// tenth.
func multiLineNoisyInput() []byte {
	var b strings.Builder
	for i := 0; i < 80; i++ {
		fmt.Fprintf(&b, "id: %d\nval= %d.%d\n", i, i%5, i%9)
		if i%10 == 0 {
			b.WriteString("### noise noise noise\n")
		}
	}
	return []byte(b.String())
}

// interleavedTwoTypesInput is Example 2 of the paper: two record types
// randomly interleaved (truly aperiodic, so no stacked template can
// describe the mix).
func interleavedTwoTypesInput() []byte {
	rng := rand.New(rand.NewSource(9))
	var b strings.Builder
	for i := 0; i < 120; i++ {
		if rng.Intn(3) == 0 {
			fmt.Fprintf(&b, "B|%d|%d\n", i, rng.Intn(10000))
		} else {
			fmt.Fprintf(&b, "A;%d;%d.%d\n", i, rng.Intn(7), rng.Intn(3))
		}
	}
	return []byte(b.String())
}

// junkEndsInput is 200 CSV rows between a leading and a trailing junk
// line. Junk must stay below the α=10% coverage threshold, otherwise it
// legitimately qualifies as a record type under Assumption 1.
func junkEndsInput() []byte {
	var b strings.Builder
	b.WriteString("&&& leading junk &&&\n")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&b, "%d,%d\n", i, i*3)
	}
	b.WriteString("~~~ trailing junk ~~~\n")
	return []byte(b.String())
}
