package follow

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"datamaran/internal/core"
	"datamaran/internal/datagen"
	"datamaran/internal/parser"
	"datamaran/internal/parser/parsertest"
	"datamaran/internal/pipeline"
	"datamaran/internal/template"
)

// learn discovers the template set of data.
func learn(t *testing.T, data []byte) []*template.Node {
	t.Helper()
	structures, _, err := core.Discover(context.Background(), data, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(structures) == 0 {
		t.Fatal("test is vacuous: no structures discovered")
	}
	var tpls []*template.Node
	for _, s := range structures {
		tpls = append(tpls, s.Template)
	}
	return tpls
}

// compile compiles a template set, in order, as a registry entry does.
func compile(tpls []*template.Node) []*parser.Matcher {
	ms := make([]*parser.Matcher, len(tpls))
	for i, t := range tpls {
		ms[i] = parser.NewMatcher(t)
	}
	return ms
}

// oneShot is the oracle: the whole file in one pass through the
// reference residue chain, which shares nothing with the engine the
// incremental runs go through.
func oneShot(t *testing.T, data []byte, tpls []*template.Node) *core.Result {
	t.Helper()
	return parsertest.Apply(tpls, data)
}

// incrementalRuns grows path through the given cut points and extracts
// incrementally at each step, stitching the per-run deltas into the
// whole-file record/noise streams the way a consumer of the subsystem
// does: each run's output below its successor checkpoint is final; the
// tail beyond it is replaced by the next run's re-emission. Records are
// taken from OnBatch, the crawl's own hook, as batchRecords reads them.
func incrementalRuns(t *testing.T, dir string, data []byte, cuts []int, tpls []*template.Node, cfg Config) ([]core.RecordOut, []int, *Checkpoint) {
	t.Helper()
	path := filepath.Join(dir, "grow.log")
	var finalRecs, tailRecs []core.RecordOut
	var finalNoise, tailNoise []int
	var cp *Checkpoint
	for _, cut := range append(cuts, len(data)) {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		plan, err := PlanFile(path, cp)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Action == ActionUnchanged {
			continue
		}
		if cp != nil && plan.Action != ActionResume {
			t.Fatalf("cut %d: plan = %v (%s), want resume", cut, plan.Action, plan.Reason)
		}
		var recs []core.RecordOut
		var noise []int
		rcfg := cfg
		rcfg.OnBatch = func(b *pipeline.Batch) error { recs = append(recs, batchRecords(b)...); return nil }
		rcfg.OnNoise = func(line int) error { noise = append(noise, line); return nil }
		n, ncp, err := Extract(context.Background(), path, "grow.log", compile(tpls), "fp", cp, rcfg)
		if err != nil {
			t.Fatal(err)
		}
		requireCounts(t, cut, n, ncp, cp, recs, noise)

		tailRecs, tailNoise = tailRecs[:0], tailNoise[:0]
		for _, r := range recs {
			if r.StartLine < ncp.Line {
				finalRecs = append(finalRecs, r)
			} else {
				tailRecs = append(tailRecs, r)
			}
		}
		for _, n := range noise {
			if n < ncp.Line {
				finalNoise = append(finalNoise, n)
			} else {
				tailNoise = append(tailNoise, n)
			}
		}
		cp = ncp
	}
	return append(finalRecs, tailRecs...), append(finalNoise, tailNoise...), cp
}

// requireCounts holds a run's counts and successor checkpoint to the
// records and noise lines it delivered: per type, how many there are and
// how many start at or past the new checkpoint; the checkpoint's
// finalized counters advance by what lies below it.
func requireCounts(t *testing.T, cut int, n Counts, ncp, cp *Checkpoint, recs []core.RecordOut, noise []int) {
	t.Helper()
	records, provisional := make([]int, len(n.Records)), make([]int, len(n.Records))
	below, noiseBelow := 0, 0
	for _, r := range recs {
		records[r.TypeID]++
		if r.StartLine >= ncp.Line {
			provisional[r.TypeID]++
		} else {
			below++
		}
	}
	for _, l := range noise {
		if l < ncp.Line {
			noiseBelow++
		}
	}
	base := checkpointOrZero(cp, "", "")
	if !slices.Equal(n.Records, records) || !slices.Equal(n.Provisional, provisional) || n.Noise != len(noise) ||
		ncp.Records != base.Records+below || ncp.Noise != base.Noise+noiseBelow {
		t.Fatalf("cut %d: counts %+v, checkpoint %d/%d finalized; delivered %v records (%v provisional), %d noise, %d/%d below line %d",
			cut, n, ncp.Records-base.Records, ncp.Noise-base.Noise, records, provisional, len(noise), below, noiseBelow, ncp.Line)
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

// project keeps of each record what batchRecords reads.
func project(recs []core.RecordOut) []core.RecordOut {
	out := make([]core.RecordOut, len(recs))
	for i, r := range recs {
		out[i] = core.RecordOut{TypeID: r.TypeID, StartLine: r.StartLine}
		for _, f := range r.Fields {
			out[i].Fields = append(out[i].Fields, core.FieldValue{Column: f.Column, Repetition: f.Repetition, Value: f.Value})
		}
	}
	return out
}

// sortByStart orders stitched records the way the one-shot result lays
// them out: grouped by type, in input order within a type.
func sortByType(recs []core.RecordOut) []core.RecordOut {
	out := make([]core.RecordOut, 0, len(recs))
	maxType := 0
	for _, r := range recs {
		if r.TypeID > maxType {
			maxType = r.TypeID
		}
	}
	for ty := 0; ty <= maxType; ty++ {
		for _, r := range recs {
			if r.TypeID == ty {
				out = append(out, r)
			}
		}
	}
	return out
}

func sortInts(ns []int) []int {
	out := append([]int(nil), ns...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// TestResumeEquivalence is the subsystem's core property: growing a file
// through arbitrary cut points (including mid-line and mid-record) and
// extracting incrementally yields exactly the records and noise of a
// one-shot extraction of the final file.
func TestResumeEquivalence(t *testing.T) {
	datasets := map[string][]byte{
		"single-line": datagen.CommaSepRecords(300, 5).Data,
		"multi-line":  datagen.BlogXML(60, 9).Data,
		"interleaved": datagen.InterleavedTypes(2, 120, 4).Data,
	}
	for name, data := range datasets {
		t.Run(name, func(t *testing.T) {
			tpls := learn(t, data)
			want := oneShot(t, data, tpls)
			// Cut points stress every boundary kind: mid-line,
			// mid-record, and whole-record growth.
			cuts := []int{
				len(data) / 7,
				len(data)/7 + 3,
				len(data) / 3,
				len(data)/2 + 11,
				len(data) - 5,
			}
			for _, workers := range []int{1, 2, 8} {
				dir := t.TempDir()
				gotRecs, gotNoise, cp := incrementalRuns(t, dir, data, cuts, tpls,
					Config{ShardSize: 512, Workers: workers})
				if !reflect.DeepEqual(sortByType(gotRecs), project(want.Records)) {
					t.Fatalf("workers=%d: stitched records (%d) != one-shot (%d)",
						workers, len(gotRecs), len(want.Records))
				}
				if !reflect.DeepEqual(sortInts(gotNoise), want.NoiseLines) {
					t.Fatalf("workers=%d: stitched noise %v != one-shot %v",
						workers, gotNoise, want.NoiseLines)
				}
				if cp.TotalRecords != len(want.Records) || cp.TotalNoise != len(want.NoiseLines) {
					t.Fatalf("workers=%d: checkpoint totals %d/%d, want %d/%d",
						workers, cp.TotalRecords, cp.TotalNoise, len(want.Records), len(want.NoiseLines))
				}
			}
		})
	}
}

// TestPlanFile covers the rotation/truncation/unchanged heuristics.
func TestPlanFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.log")
	data := datagen.CommaSepRecords(100, 1).Data
	tpls := learn(t, data)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	plan, err := PlanFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Action != ActionFull || plan.Reason != "new" {
		t.Fatalf("no checkpoint: plan = %+v, want full/new", plan)
	}

	_, cp, err := Extract(context.Background(), path, "f.log", compile(tpls), "fp", nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if cp.Offset <= 0 || cp.Line <= 0 {
		t.Fatalf("checkpoint did not advance: %+v", cp)
	}

	// Unchanged.
	if plan, err = PlanFile(path, cp); err != nil {
		t.Fatal(err)
	}
	if plan.Action != ActionUnchanged {
		t.Fatalf("unchanged file: plan = %+v", plan)
	}

	// Append → resume.
	if err := os.WriteFile(path, append(append([]byte{}, data...), []byte("1,2,3\n")...), 0o644); err != nil {
		t.Fatal(err)
	}
	if plan, err = PlanFile(path, cp); err != nil {
		t.Fatal(err)
	}
	if plan.Action != ActionResume {
		t.Fatalf("grown file: plan = %+v, want resume", plan)
	}

	// Truncation → full.
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if plan, err = PlanFile(path, cp); err != nil {
		t.Fatal(err)
	}
	if plan.Action != ActionFull || plan.Reason != "truncated" {
		t.Fatalf("truncated file: plan = %+v, want full/truncated", plan)
	}

	// Rotation (same or larger size, different content) → full.
	rot := datagen.WebServerLog(400, 2).Data
	for int64(len(rot)) < cp.Size {
		rot = append(rot, rot...)
	}
	if err := os.WriteFile(path, rot, 0o644); err != nil {
		t.Fatal(err)
	}
	if plan, err = PlanFile(path, cp); err != nil {
		t.Fatal(err)
	}
	if plan.Action != ActionFull || plan.Reason != "rotated" {
		t.Fatalf("rotated file: plan = %+v, want full/rotated", plan)
	}
}

// TestStoreRoundTrip pins the persistence discipline: deterministic
// bytes, atomic save, version validation.
func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "checkpoints.json")
	s := NewStore()
	s.Put(&Checkpoint{Path: "b/two.log", Fingerprint: "beef", Offset: 10, Line: 2, Size: 20, PrefixLen: 20, PrefixSHA: "aa", Records: 3, Noise: 1, TotalRecords: 4, TotalNoise: 1})
	s.Put(&Checkpoint{Path: "a/one.log", Fingerprint: "cafe", Offset: 5, Line: 1, Size: 9, PrefixLen: 9, PrefixSHA: "bb"})
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	raw1, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	raw2, _ := os.ReadFile(path)
	if !bytes.Equal(raw1, raw2) {
		t.Fatal("save is not deterministic")
	}
	// Paths must serialize sorted regardless of insertion order.
	if a, b := bytes.Index(raw1, []byte("a/one.log")), bytes.Index(raw1, []byte("b/two.log")); a < 0 || b < 0 || a > b {
		t.Fatalf("paths not in sorted order: %s", raw1)
	}

	got, err := LoadStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 || !reflect.DeepEqual(got.Get("a/one.log"), s.Get("a/one.log")) ||
		!reflect.DeepEqual(got.Get("b/two.log"), s.Get("b/two.log")) {
		t.Fatalf("round trip mismatch: %+v", got)
	}

	// Missing file → empty store.
	empty, err := LoadStore(filepath.Join(dir, "nope.json"))
	if err != nil || empty.Len() != 0 {
		t.Fatalf("missing store: %v / %d", err, empty.Len())
	}

	// Version discipline, and no checkpoint Extract or Observe could not
	// have written.
	one := func(fields string) string {
		return `{"version":1,"files":[{"path":"a.log","offset":5,"line":1,"size":9,"prefix_len":9,` + fields + `}]}`
	}
	for name, bad := range map[string]string{
		"missing version":      `{"files":[]}`,
		"wrong version":        `{"version":99,"files":[]}`,
		"type version":         `{"version":"1","files":[]}`,
		"null checkpoint":      `{"version":1,"files":[null]}`,
		"empty path":           `{"version":1,"files":[{"path":""}]}`,
		"duplicate path":       `{"version":1,"files":[{"path":"a.log"},{"path":"a.log"}]}`,
		"negative line":        one(`"line":-1`),
		"line past offset":     one(`"line":6`),
		"negative offset":      one(`"offset":-1,"line":0`),
		"offset past size":     one(`"offset":10`),
		"negative prefix":      one(`"prefix_len":-1`),
		"prefix past size":     one(`"prefix_len":10`),
		"negative records":     one(`"records":-1`),
		"records past total":   one(`"records":3,"total_records":2`),
		"negative total":       one(`"total_records":-5`),
		"negative noise":       one(`"noise":-1`),
		"noise past total":     one(`"noise":1`),
		"negative total noise": one(`"total_noise":-1`),
	} {
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadStore(path); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
	if err := os.WriteFile(path, []byte(one(`"records":2,"total_records":2,"noise":1,"total_noise":3`)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadStore(path); err != nil {
		t.Fatalf("a consistent checkpoint refused: %v", err)
	}
}

// TestRetainPrunes checks the stale-checkpoint prune.
func TestRetainPrunes(t *testing.T) {
	s := NewStore()
	s.Put(&Checkpoint{Path: "keep.log"})
	s.Put(&Checkpoint{Path: "gone.log"})
	s.Retain(func(p string) bool { return p == "keep.log" })
	if s.Len() != 1 || s.Get("keep.log") == nil || s.Get("gone.log") != nil {
		t.Fatalf("retain kept wrong set: %v", s.Paths())
	}
}
