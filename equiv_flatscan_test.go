package datamaran_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"datamaran"
	"datamaran/internal/core"
	"datamaran/internal/datagen"
	"datamaran/internal/parser"
	"datamaran/internal/parser/parsertest"
	"datamaran/internal/pipeline"
	"datamaran/internal/template"
	"datamaran/internal/textio"
)

// equivInputs gathers the property-test corpus: generated datasets from
// the GitHub-style corpus plus fixture files of the data lake. Each input
// costs at least one full discovery run (~seconds on the 1-CPU reference
// host, ~10x that under the race detector), so coverage is budgeted:
// the full run sweeps a broad stride, -short keeps one dataset per corpus
// stripe and one lake file per format, and the race build trims to a
// minimal cross-section — the per-line matcher's race coverage lives in
// the dedicated internal/parser and internal/pipeline race tests, this
// sweep only has to exercise the property end to end.
func equivInputs(t *testing.T) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	stride := 12
	if testing.Short() {
		stride = 33 // indices 0, 33, 66, 99 — one per corpus label family
	}
	if raceEnabled {
		stride = 99 // indices 0 and 99 only
	}
	for i, d := range datagen.GitHubCorpus(42) {
		if i%stride != 0 {
			continue
		}
		out[fmt.Sprintf("corpus/%02d-%s", i, d.Name)] = d.Data
	}
	err := filepath.Walk("testdata/lake", func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		if testing.Short() && !strings.Contains(path, "-1.") {
			return nil // one file per format is enough to catch a drift
		}
		if raceEnabled && !strings.Contains(path, "requests-1.") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		out[path] = data
		return nil
	})
	if err != nil {
		t.Fatalf("walk testdata/lake: %v", err)
	}
	return out
}

// sortedNames gives the map a deterministic iteration order so failures
// reproduce.
func sortedNames(m map[string][]byte) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestTwoPhaseScanMatchesTreePathOnCorpus discovers structures on every
// corpus input, then pins the arena-based Scan to the tree-building oracle
// — records, field occurrences, array occurrences in order, noise,
// coverage and field bytes must be identical — and the extraction engine,
// at 64-byte shards on eight workers, to the oracle's residue chain over
// all of the input's templates.
func TestTwoPhaseScanMatchesTreePathOnCorpus(t *testing.T) {
	inputs := equivInputs(t)
	for _, name := range sortedNames(inputs) {
		data := inputs[name]
		structures, _, err := core.Discover(context.Background(), data, core.Options{})
		if err != nil {
			t.Fatalf("%s: discovery: %v", name, err)
		}
		lines := textio.NewLines(data)
		var tpls []*template.Node
		for _, s := range structures {
			tpls = append(tpls, s.Template)
			want := parsertest.New(s.Template).Scan(lines)
			parsertest.RequireScanEqual(t, name+"/seq", want, parser.NewMatcher(s.Template).Scan(lines))
		}
		if len(tpls) == 0 {
			continue
		}
		got, err := pipeline.RunBytes(context.Background(), data, pipeline.Config{Templates: tpls, ShardSize: 64, Workers: 8})
		if err != nil {
			t.Fatalf("%s: engine: %v", name, err)
		}
		parsertest.RequireResultEqual(t, name+"/engine", parsertest.Apply(tpls, data), got)
	}
}

// extractionFingerprint renders an extraction to comparable bytes: every
// record with spans and field values, plus the CSV of every table.
func extractionFingerprint(t *testing.T, r *datamaran.Result) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, rec := range r.Records {
		fmt.Fprintf(&b, "rec t%d [%d,%d)", rec.Type, rec.StartLine, rec.EndLine)
		for _, f := range rec.Fields {
			fmt.Fprintf(&b, " %d.%d@%d-%d=%q", f.Column, f.Repetition, f.Start, f.End, f.Value)
		}
		b.WriteByte('\n')
	}
	for _, tab := range r.TablesWith(datamaran.TablesOptions{}) {
		fmt.Fprintf(&b, "table %s\n", tab.Name)
		if err := tab.WriteCSV(&b); err != nil {
			t.Fatalf("WriteCSV: %v", err)
		}
	}
	return b.Bytes()
}

// TestExtractWorkerInvariantOnCorpus pins the end-to-end output — records,
// field values and CSV tables — to be byte-identical across worker counts
// on every corpus input.
// Each input costs three full discovery runs, so it halves the input set
// on top of equivInputs' own trimming, and skips under the race detector
// (the scan-level sweep above and the parser/pipeline race suites carry
// the -race coverage at a fraction of the cost).
func TestExtractWorkerInvariantOnCorpus(t *testing.T) {
	if raceEnabled {
		t.Skip("three discovery runs per input; race coverage lives in the scan-level sweep")
	}
	inputs := equivInputs(t)
	for k, name := range sortedNames(inputs) {
		if k%2 == 1 {
			continue
		}
		data := inputs[name]
		base, err := datamaran.Extract(data, datamaran.Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := extractionFingerprint(t, base)
		for _, workers := range []int{2, 8} {
			got, err := datamaran.Extract(data, datamaran.Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if fp := extractionFingerprint(t, got); !bytes.Equal(fp, want) {
				t.Fatalf("%s: workers=%d output differs from workers=1", name, workers)
			}
		}
	}
}
