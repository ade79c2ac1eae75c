package datamaran_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"datamaran/internal/core"
	"datamaran/internal/datagen"
	"datamaran/internal/follow"
	"datamaran/internal/lake"
	"datamaran/internal/parser/parsertest"
	"datamaran/internal/pipeline"
	"datamaran/internal/relational"
	"datamaran/internal/template"
)

// followInputs gathers the resume-equivalence corpus: one lake fixture
// file per format (single-line, pipe-separated, and the multi-line jobs
// stanzas) plus a generated 10-line-record dataset. The race build
// trims to the multi-line cases, where resume boundaries are hardest.
func followInputs(t *testing.T) map[string][]byte {
	t.Helper()
	out := map[string][]byte{
		"blogxml": datagen.BlogXML(40, 21).Data,
	}
	lakeFiles := []string{
		"testdata/lake/jobs/job-1.log",
		"testdata/lake/metrics/metrics-1.log",
		"testdata/lake/web/requests-1.log",
	}
	if raceEnabled {
		lakeFiles = lakeFiles[:1]
	}
	for _, p := range lakeFiles {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(p)] = data
	}
	return out
}

// followGoldens names the committed CSV of each lake input.
var followGoldens = map[string]string{
	"job-1.log":      "testdata/lake_golden/csv/jobs__job-1.log.type0.csv",
	"metrics-1.log":  "testdata/lake_golden/csv/metrics__metrics-1.log.type0.csv",
	"requests-1.log": "testdata/lake_golden/csv/web__requests-1.log.type0.csv",
}

// followTemplates learns the profile of data once.
func followTemplates(t *testing.T, data []byte) []*template.Node {
	t.Helper()
	structures, _, err := core.Discover(context.Background(), data, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(structures) == 0 {
		t.Fatal("test is vacuous: no structure")
	}
	var tpls []*template.Node
	for _, s := range structures {
		tpls = append(tpls, s.Template)
	}
	return tpls
}

// tablesCSV renders a record stream as the indexer's CSV tables — the
// byte-level artifact the golden lake pins.
func tablesCSV(t *testing.T, tpls []*template.Node, records []core.RecordOut) []byte {
	t.Helper()
	var buf bytes.Buffer
	for typeID, tpl := range tpls {
		db := relational.Build(tpl, records, typeID, fmt.Sprintf("type%d", typeID))
		for _, tbl := range db.Tables {
			if err := tbl.WriteCSV(&buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	return buf.Bytes()
}

// TestFollowResumeEquivalence is the subsystem's acceptance property at
// the repository level: write ~55% of a file, index it, append the
// rest, resume from the checkpoint — the stitched records, as the
// crawl's OnBatch hook receives them, must be exactly the one-shot
// extraction of the full file, whose CSV tables are the committed
// goldens, at every worker count.
func TestFollowResumeEquivalence(t *testing.T) {
	workerSets := []int{1, 2, 8}
	if raceEnabled {
		workerSets = []int{1, 8}
	}
	for name, data := range followInputs(t) {
		t.Run(name, func(t *testing.T) {
			tpls := followTemplates(t, data)
			entry, _ := lake.NewRegistry().Add(tpls)
			oracle := parsertest.Apply(tpls, data)
			oracleCSV := tablesCSV(t, tpls, oracle.Records)
			// The lake files' tables are committed as literal goldens
			// (single-type formats, so one CSV is the whole rendering).
			if path, ok := followGoldens[name]; ok {
				golden, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(oracleCSV, golden) {
					t.Fatalf("one-shot CSV differs from %s", path)
				}
			}

			// Cut mid-byte (not line-aligned) to force the resume
			// machinery to cope with a dangling partial line.
			cut := len(data) * 55 / 100
			for _, workers := range workerSets {
				path := filepath.Join(t.TempDir(), "grow.log")
				// extract runs one incremental extraction and returns the
				// records and noise lines it delivered.
				extract := func(cp *follow.Checkpoint) ([]core.RecordOut, []int, *follow.Checkpoint) {
					var recs []core.RecordOut
					var noise []int
					_, ncp, err := follow.Extract(context.Background(), path, "grow.log", entry.Matchers(), "fp", cp, follow.Config{
						ShardSize: 1 << 10,
						Workers:   workers,
						OnBatch:   func(b *pipeline.Batch) error { recs = append(recs, batchRecords(b)...); return nil },
						OnNoise:   func(line int) error { noise = append(noise, line); return nil },
					})
					if err != nil {
						t.Fatal(err)
					}
					return recs, noise, ncp
				}

				if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				recs1, noise1, cp1 := extract(nil)
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				plan, err := follow.PlanFile(path, cp1)
				if err != nil {
					t.Fatal(err)
				}
				if plan.Action != follow.ActionResume {
					t.Fatalf("plan after append = %v (%s), want resume", plan.Action, plan.Reason)
				}
				recs2, noise2, cp2 := extract(cp1)

				// Stitch: run 1's output below the checkpoint is final;
				// run 2 re-emits everything from the checkpoint on.
				var stitched []core.RecordOut
				for typeID := range tpls {
					for _, r := range recs1 {
						if r.TypeID == typeID && r.StartLine < cp1.Line {
							stitched = append(stitched, r)
						}
					}
					for _, r := range recs2 {
						if r.TypeID == typeID {
							stitched = append(stitched, r)
						}
					}
				}
				// The oracle groups records by type too, so direct
				// comparison is exact — types, start lines, columns,
				// repetitions and values.
				if !reflect.DeepEqual(stitched, projectRecords(oracle.Records)) {
					t.Fatalf("workers=%d: stitched records (%d) != one-shot (%d)",
						workers, len(stitched), len(oracle.Records))
				}

				var noise []int
				for _, n := range noise1 {
					if n < cp1.Line {
						noise = append(noise, n)
					}
				}
				noise = append(noise, noise2...)
				if !reflect.DeepEqual(noise, oracle.NoiseLines) {
					t.Fatalf("workers=%d: stitched noise %v != one-shot %v", workers, noise, oracle.NoiseLines)
				}
				if cp2.TotalRecords != len(oracle.Records) {
					t.Fatalf("workers=%d: checkpoint total %d, want %d",
						workers, cp2.TotalRecords, len(oracle.Records))
				}
			}
		})
	}
}

// batchRecords reads a batch's records as the crawl's writer does: type,
// start line and, per field, its column, repetition and bytes.
func batchRecords(b *pipeline.Batch) []core.RecordOut {
	out := make([]core.RecordOut, b.Len())
	for k := range out {
		out[k] = core.RecordOut{TypeID: b.TypeID(), StartLine: b.StartLine(k)}
		for _, f := range b.Fields(k) {
			out[k].Fields = append(out[k].Fields, core.FieldValue{Column: f.Col, Repetition: f.Rep, Value: string(b.Data()[f.Start:f.End])})
		}
	}
	return out
}

// projectRecords keeps of each record what batchRecords reads.
func projectRecords(recs []core.RecordOut) []core.RecordOut {
	out := make([]core.RecordOut, len(recs))
	for i, r := range recs {
		out[i] = core.RecordOut{TypeID: r.TypeID, StartLine: r.StartLine}
		for _, f := range r.Fields {
			out[i].Fields = append(out[i].Fields, core.FieldValue{Column: f.Column, Repetition: f.Repetition, Value: f.Value})
		}
	}
	return out
}
