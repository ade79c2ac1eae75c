package lake

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"datamaran/internal/follow"
	"datamaran/internal/pipeline"
	"datamaran/internal/template"
)

// incrementalIndex runs one incremental crawl over root.
func incrementalIndex(t *testing.T, root string, reg *Registry, cps *follow.Store) *Result {
	t.Helper()
	res, err := Index(root, reg, Config{Workers: 2, Checkpoints: cps})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// fileByPath finds one file result.
func fileByPath(t *testing.T, res *Result, rel string) *FileResult {
	t.Helper()
	for i := range res.Files {
		if res.Files[i].Path == rel {
			return &res.Files[i]
		}
	}
	t.Fatalf("file %s not in result", rel)
	return nil
}

// appendTo appends content to a lake file.
func appendTo(t *testing.T, root, rel, content string) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(root, filepath.FromSlash(rel)),
		os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(content); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalCrawl walks the subsystem through its lifecycle on one
// lake: initial index, no-op re-index, append, rotation, truncation and
// file deletion — checking at every step that whole-file totals agree
// with a from-scratch index of the same tree.
func TestIncrementalCrawl(t *testing.T) {
	root := buildLake(t)
	reg := NewRegistry()
	cps := follow.NewStore()

	// Initial incremental run behaves like a fresh index, plus it
	// checkpoints every file (structured and unstructured).
	res1 := incrementalIndex(t, root, reg, cps)
	if res1.Summary.Resumed != 0 || res1.Summary.Unchanged != 0 {
		t.Fatalf("first run: summary %+v", res1.Summary)
	}
	if got, want := cps.Len(), res1.Summary.Structured+res1.Summary.Unstructured; got != want {
		t.Fatalf("checkpoints = %d, want %d", got, want)
	}
	jobs1 := fileByPath(t, res1, "a/jobs-1.log")
	jobsFormat := reg.Lookup(jobs1.Fingerprint)
	if jobs1.Inc == nil || jobs1.Inc.Action != follow.ActionFull ||
		jobs1.Inc.TotalRecords != len(extractFile(t, root, "a/jobs-1.log", jobsFormat).Records) ||
		jobs1.Inc.Extracted != jobs1.Inc.TotalRecords {
		t.Fatalf("first run jobs-1: %+v", jobs1.Inc)
	}

	// Re-index with nothing changed: every file skips extraction.
	res2 := incrementalIndex(t, root, reg, cps)
	if res2.Summary.Unchanged != res2.Summary.Files || res2.Summary.Resumed != 0 {
		t.Fatalf("no-op run: summary %+v", res2.Summary)
	}
	for i := range res2.Files {
		f := &res2.Files[i]
		if f.Inc != nil && f.Inc.Extracted != 0 {
			t.Fatalf("no-op run extracted %s", f.Path)
		}
	}
	if fileByPath(t, res2, "a/jobs-1.log").Inc.TotalRecords != jobs1.Inc.TotalRecords {
		t.Fatal("no-op run lost the record totals")
	}

	// Append whole records plus a dangling partial stanza: the next
	// run must resume, and totals must match a from-scratch index.
	appendTo(t, root, "a/jobs-1.log", "JOB <123>\n  queue= q1;\n  state= DONE;\nJOB <77>\n  queue= q2;\n")
	before := cps.Get("a/jobs-1.log")
	res3 := incrementalIndex(t, root, reg, cps)
	if res3.Summary.Resumed != 1 || res3.Summary.Unchanged != res3.Summary.Files-1 {
		t.Fatalf("append run: summary %+v", res3.Summary)
	}
	jobs3 := fileByPath(t, res3, "a/jobs-1.log")
	if jobs3.Inc.Action != follow.ActionResume {
		t.Fatalf("append run jobs-1: %+v", jobs3.Inc)
	}
	// The resumed region covers exactly the records of the grown file
	// that start at or past the checkpoint the run resumed from.
	past := 0
	for _, r := range extractFile(t, root, "a/jobs-1.log", jobsFormat).Records {
		if r.StartLine >= before.Line {
			past++
		}
	}
	if jobs3.Inc.Extracted != past || before.Records+past != jobs3.Inc.TotalRecords {
		t.Fatalf("append run: %+v, want %d extracted past the %d finalized", jobs3.Inc, past, before.Records)
	}
	assertTotalsMatchScratch(t, root, reg, res3)

	// Rotation: replace content wholesale at a size no smaller than
	// the checkpointed size — caught by the prefix hash, reclassified.
	webRel := "b/req-1.log"
	info, err := os.Stat(filepath.Join(root, filepath.FromSlash(webRel)))
	if err != nil {
		t.Fatal(err)
	}
	var rotated []byte
	for int64(len(rotated)) <= info.Size() {
		rotated = append(rotated, []byte("metric|cpu1|10.00|\n")...)
	}
	if err := os.WriteFile(filepath.Join(root, filepath.FromSlash(webRel)), rotated, 0o644); err != nil {
		t.Fatal(err)
	}
	res4 := incrementalIndex(t, root, reg, cps)
	web4 := fileByPath(t, res4, webRel)
	if web4.Inc.Action != follow.ActionFull || web4.Inc.Reason != "rotated" {
		t.Fatalf("rotated file: %+v", web4.Inc)
	}
	if web4.Status != StatusMatched && web4.Status != StatusDiscovered {
		t.Fatalf("rotated file not reclassified: %v", web4.Status)
	}
	assertTotalsMatchScratch(t, root, reg, res4)

	// Truncation: shrink a file below its checkpoint.
	metricsRel := "c/metrics-1.log"
	mp := filepath.Join(root, filepath.FromSlash(metricsRel))
	data, err := os.ReadFile(mp)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mp, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	res5 := incrementalIndex(t, root, reg, cps)
	m5 := fileByPath(t, res5, metricsRel)
	if m5.Inc.Action != follow.ActionFull || m5.Inc.Reason != "truncated" {
		t.Fatalf("truncated file: %+v", m5.Inc)
	}
	assertTotalsMatchScratch(t, root, reg, res5)

	// Deletion: the stale checkpoint is pruned.
	if err := os.Remove(filepath.Join(root, "empty.log")); err != nil {
		t.Fatal(err)
	}
	incrementalIndex(t, root, reg, cps)
	if cps.Get("empty.log") != nil {
		t.Fatal("stale checkpoint for deleted file survived the prune")
	}
}

// assertTotalsMatchScratch indexes the same tree from scratch (fresh
// registry, no checkpoints) and checks every structured file's
// whole-file totals agree with the incremental run's bookkeeping.
func assertTotalsMatchScratch(t *testing.T, root string, reg *Registry, inc *Result) {
	t.Helper()
	scratch, err := Index(root, NewRegistry(), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range scratch.Files {
		sf := &scratch.Files[i]
		if sf.Fingerprint == "" {
			continue
		}
		f := fileByPath(t, inc, sf.Path)
		if f.Inc == nil {
			t.Fatalf("%s: no incremental info", sf.Path)
		}
		if f.Inc.TotalRecords != sf.Inc.TotalRecords || f.Inc.TotalNoise != sf.Inc.TotalNoise {
			t.Errorf("%s: incremental totals %d/%d, from-scratch %d/%d",
				sf.Path, f.Inc.TotalRecords, f.Inc.TotalNoise, sf.Inc.TotalRecords, sf.Inc.TotalNoise)
		}
	}
}

// TestIncrementalWorkerEquivalence pins worker-count invariance of the
// incremental path: the digests of a resumed crawl must be identical at
// any worker count.
func TestIncrementalWorkerEquivalence(t *testing.T) {
	root := buildLake(t)
	seed := crawlStart{reg: NewRegistry(), cps: follow.NewStore(), storeDir: t.TempDir()}
	s, err := OpenSegmentStore(seed.storeDir)
	if err != nil {
		t.Fatal(err)
	}
	crawlWithStore(t, root, seed.reg, seed.cps, s)
	appendTo(t, root, "a/jobs-2.log", "JOB <5>\n  queue= q9;\n  state= DONE;\n")
	appendTo(t, root, "c/metrics-2.log", "metric|cpu7|1.23|\n")

	var want string
	for _, workers := range []int{1, 2, 8} {
		res, reg, cps, store := runCrawl(t, IndexContext, root, seed, Config{Workers: workers})
		if res.Summary.Resumed != 2 {
			t.Fatalf("workers=%d: resumed %d, want 2", workers, res.Summary.Resumed)
		}
		requireStoreMatchesExtraction(t, root, res, reg, store)
		got := digest(t, res, reg) + storeDigest(t, cps) + storeRows(t, store)
		if want == "" {
			want = got
		} else if got != want {
			t.Fatalf("workers=%d: digest differs from workers=1", workers)
		}
	}
}

func cloneRegistry(t *testing.T, reg *Registry) *Registry {
	t.Helper()
	raw, err := reg.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	out := NewRegistry()
	if err := out.UnmarshalJSON(raw); err != nil {
		t.Fatal(err)
	}
	return out
}

func cloneStore(t *testing.T, s *follow.Store) *follow.Store {
	t.Helper()
	raw, err := s.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	out := follow.NewStore()
	if err := out.UnmarshalJSON(raw); err != nil {
		t.Fatal(err)
	}
	return out
}

func storeDigest(t *testing.T, s *follow.Store) string {
	t.Helper()
	raw, err := s.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestIndexContextCancelled: a cancelled context aborts the crawl with
// its error instead of producing a partial result.
func TestIndexContextCancelled(t *testing.T) {
	root := buildLake(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := IndexContext(ctx, root, NewRegistry(), Config{}); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRegistryConcurrentUse exercises the shared-handle contract under
// the race detector: readers (Snapshot, Lookup, Entries, MarshalJSON)
// race claim mutations and Adds without corruption.
func TestRegistryConcurrentUse(t *testing.T) {
	reg := NewRegistry()
	tpl := template.Struct(template.Field(), template.Lit(",\n")).Normalize()
	base, _ := reg.Add([]*template.Node{tpl})

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch i % 4 {
				case 0:
					reg.Claim(base)
				case 1:
					for _, fi := range reg.Snapshot() {
						_ = fi.Files
					}
				case 2:
					variant := template.Struct(template.Lit(fmt.Sprintf("w%d-%d ", w, i)),
						template.Field(), template.Lit("\n")).Normalize()
					if e, _ := reg.Add([]*template.Node{variant}); e != nil {
						reg.Claim(e)
					}
				case 3:
					if _, err := reg.MarshalJSON(); err != nil {
						t.Error(err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if reg.FilesClaimed(base) != 4*50 {
		t.Fatalf("claims = %d, want %d", reg.FilesClaimed(base), 4*50)
	}
	if _, err := pipeline.Run(strings.NewReader("x,\n"), pipeline.Config{Templates: reg.Entries()[0].Templates}); err != nil {
		t.Fatalf("entry unusable after concurrent churn: %v", err)
	}
}

// TestMultiTypeResumeMatchesOneShot: a file of two interleaved record
// types is crawled, grows, and is crawled again. The rows the first crawl
// left provisional — past its checkpoint, to be re-emitted by the resume —
// belong to both types, and the store must truncate each table by its own
// share of them: charged to the wrong table, one type keeps rows the resume
// then appends a second time and the other loses rows nothing brings back.
// The incremental store must equal a one-shot crawl of the grown file, row
// for row and span statistic for span statistic, at every worker count.
func TestMultiTypeResumeMatchesOneShot(t *testing.T) {
	lines := strings.SplitAfter(mixedLog(5, 200, 200), "\n")
	// firstCrawl crawls the first cut lines into a fresh store and reports
	// whether that left provisional rows in both tables.
	firstCrawl := func(cut, workers int) (root string, reg *Registry, cps *follow.Store, s *SegmentStore, both bool) {
		root = t.TempDir()
		writeFile(t, root, "x/mixed.log", strings.Join(lines[:cut], ""))
		reg, cps = NewRegistry(), follow.NewStore()
		s, err := OpenSegmentStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		res := crawlWithStoreWorkers(t, root, reg, cps, s, workers)
		// Counted from an extraction of the file outside the crawl, not
		// read back from the store whose count is under test: the records
		// of each type that start at or past the checkpoint's line.
		past := map[int]int{}
		format := reg.Lookup(fileByPath(t, res, "x/mixed.log").Fingerprint)
		for _, r := range extractFile(t, root, "x/mixed.log", format).Records {
			if r.StartLine >= cps.Get("x/mixed.log").Line {
				past[r.TypeID]++
			}
		}
		both = len(s.Tables()) == 2 && past[0] > 0 && past[1] > 0
		return root, reg, cps, s, both
	}
	// The scenario the test is about: the file ends on a line of the first
	// record type with one of the second just before it, so each stage of
	// the extraction is left holding an unfinalized record.
	cut := 0
	for c := 240; c < 270 && cut == 0; c++ {
		if _, _, _, _, both := firstCrawl(c, 2); both {
			cut = c
		}
	}
	if cut == 0 {
		t.Fatal("no prefix of the file leaves provisional rows in both tables: the resume would not exercise the count")
	}
	for _, workers := range []int{1, 2, 8} {
		root, reg, cps, s, both := firstCrawl(cut, workers)
		if !both {
			t.Fatalf("workers=%d: the first crawl's provisional rows depend on the worker count", workers)
		}
		learned := cloneRegistry(t, reg)
		appendTo(t, root, "x/mixed.log", strings.Join(lines[cut:], ""))
		res := crawlWithStoreWorkers(t, root, reg, cps, s, workers)
		if res.Summary.Resumed != 1 {
			t.Fatalf("workers=%d: the grown file was not resumed: %+v", workers, res.Summary)
		}

		oneShot, err := OpenSegmentStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		crawlWithStoreWorkers(t, root, learned, follow.NewStore(), oneShot, workers)
		if got, want := storeRows(t, s), storeRows(t, oneShot); got != want {
			t.Fatalf("workers=%d: the resumed store differs from a one-shot crawl of the grown file:\n%s", workers, firstDiff(got, want))
		}
		if got, want := spanStats(s), spanStats(oneShot); got != want {
			t.Fatalf("workers=%d: span statistics differ from the one-shot crawl:\n%s\n--- vs ---\n%s", workers, got, want)
		}
	}
}

// TestFailedStoreWriteKeepsRows: a file whose store write fails part-way
// keeps the rows it had. The grown two-type file's second segment is
// damaged without changing its size — its first block's row count is set
// to the end-of-blocks sentinel — so a crawl still trusts it and plans a
// resume, whose replay of it fails; the crawl fails the file and keeps
// its checkpoint — and must not have installed the first type's extended
// segment either, or every later crawl resumes from that checkpoint again
// and appends the same rows once more.
func TestFailedStoreWriteKeepsRows(t *testing.T) {
	lines := strings.SplitAfter(mixedLog(5, 200, 200), "\n")
	root := t.TempDir()
	writeFile(t, root, "x/mixed.log", strings.Join(lines[:250], ""))
	reg, cps := NewRegistry(), follow.NewStore()
	s, err := OpenSegmentStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res := crawlWithStoreWorkers(t, root, reg, cps, s, 1)
	fp := fileByPath(t, res, "x/mixed.log").Fingerprint
	if len(reg.Lookup(fp).Templates) != 2 {
		t.Fatalf("test is vacuous: the file has %d record types, not two", len(reg.Lookup(fp).Templates))
	}
	seg := segOf(s.snapshot().table(fp, 1), "x/mixed.log")
	if seg.Rows == seg.Provisional {
		t.Fatalf("test is vacuous: a resume replays none of the %d rows of %s", seg.Rows, seg.File)
	}
	f, err := os.OpenFile(filepath.Join(s.Dir(), seg.File), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0}, int64(len(segMagicV2))); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	appendTo(t, root, "x/mixed.log", strings.Join(lines[250:], ""))

	before := s.Tables()
	for crawl := 1; crawl <= 3; crawl++ {
		res := crawlWithStoreWorkers(t, root, reg, cps, s, 1)
		if f := fileByPath(t, res, "x/mixed.log"); f.Status != StatusFailed {
			t.Fatalf("crawl %d: the file whose segment is damaged is %v, not failed", crawl, f.Status)
		}
		if got := s.Tables(); got[0].Rows != before[0].Rows {
			t.Fatalf("crawl %d: table %s went from %d to %d rows while its file failed", crawl, got[0].Name, before[0].Rows, got[0].Rows)
		}
		entries, err := os.ReadDir(s.Dir())
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), ".stage-") {
				t.Fatalf("crawl %d left the staged file %s behind", crawl, e.Name())
			}
		}
	}
}

// writeV1Segment writes rows, ncols wide, as a segment of the retired v1
// format: its magic, then blocks of a uvarint row count followed by each
// column's uvarint-length-prefixed cells, ending at EOF with no footer.
func writeV1Segment(t *testing.T, path string, rows [][]string, ncols int) {
	t.Helper()
	raw := []byte("dmseg1\n")
	for lo := 0; lo < len(rows); lo += segBlockRows {
		block := rows[lo:min(lo+segBlockRows, len(rows))]
		raw = binary.AppendUvarint(raw, uint64(len(block)))
		for c := 0; c < ncols; c++ {
			for _, row := range block {
				raw = appendCell(raw, row[c])
			}
		}
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// scanAll drains a scan of every table of the store and returns the
// first error.
func scanAll(s *SegmentStore) error {
	for _, ti := range s.Tables() {
		sc, err := s.Scan(ti.Name)
		if err != nil {
			return err
		}
		for err == nil {
			_, err = sc.NextBatch()
		}
		sc.Close()
		if err != io.EOF {
			return err
		}
	}
	return nil
}

// TestMissingSegmentIsExtractedAgain: a two-type file whose first
// segment is not the file its manifest entry describes — removed, cut
// short, grown, replaced by a segment of the retired v1 format (whose
// entry, written before sizes were recorded, records none) — or whose
// entry records no size. Before the next crawl, a scan of its table fails
// naming the damaged file; only the entry with no size still scans. The
// next crawl must not trust the segment, whether the file is unchanged or
// grown: it extracts the file in full ("store-new"), and the store then
// equals a one-shot crawl and every table scans.
func TestMissingSegmentIsExtractedAgain(t *testing.T) {
	lines := strings.SplitAfter(mixedLog(5, 200, 200), "\n")
	damages := []struct {
		name string
		// damage harms the segment file at path, which holds rows and
		// which seg, an entry of a manifest written back afterwards,
		// describes.
		damage func(t *testing.T, path string, seg *manSeg, rows [][]string)
		// scanErr is what a scan's error says, "" where the table scans.
		scanErr string
	}{
		{"removed", func(t *testing.T, path string, _ *manSeg, _ [][]string) {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}, "no such file"},
		{"cut-short", func(t *testing.T, path string, seg *manSeg, _ [][]string) {
			if err := os.Truncate(path, seg.Size/2); err != nil {
				t.Fatal(err)
			}
		}, "the manifest records"},
		{"grown", func(t *testing.T, path string, _ *manSeg, _ [][]string) {
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err == nil {
				_, err = f.Write([]byte("more bytes"))
				f.Close()
			}
			if err != nil {
				t.Fatal(err)
			}
		}, "the manifest records"},
		{"dmseg1", func(t *testing.T, path string, seg *manSeg, rows [][]string) {
			writeV1Segment(t, path, rows, len(rows[0]))
			seg.Size = 0
		}, "bad magic"},
		{"no-size", func(_ *testing.T, _ string, seg *manSeg, _ [][]string) {
			seg.Size = 0
		}, ""},
	}
	for _, d := range damages {
		for _, grown := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/source-%s", d.name, map[bool]string{false: "unchanged", true: "grown"}[grown]), func(t *testing.T) {
				first := len(lines)
				if grown {
					first = 250
				}
				root := t.TempDir()
				writeFile(t, root, "x/mixed.log", strings.Join(lines[:first], ""))
				reg, cps := NewRegistry(), follow.NewStore()
				s, err := OpenSegmentStore(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				res := crawlWithStoreWorkers(t, root, reg, cps, s, 1)
				fp := fileByPath(t, res, "x/mixed.log").Fingerprint
				if len(reg.Lookup(fp).Templates) != 2 {
					t.Fatalf("test is vacuous: the file has %d record types, not two", len(reg.Lookup(fp).Templates))
				}
				learned := cloneRegistry(t, reg)
				man := s.snapshot().clone()
				seg := segOf(man.table(fp, 0), "x/mixed.log")
				if seg.Size == 0 {
					t.Fatalf("the crawl recorded no size for %s", seg.File)
				}
				// The table holds this one file's rows.
				rows := drainScan(t, mustScan(t, s, fp, ScanOptions{}))
				if len(rows) == 0 || len(rows) != seg.Rows {
					t.Fatalf("scanned %d rows, the span has %d", len(rows), seg.Rows)
				}
				d.damage(t, filepath.Join(s.Dir(), seg.File), seg, rows)
				if err := saveManifest(s.Dir(), man); err != nil {
					t.Fatal(err)
				}
				if s, err = OpenSegmentStore(s.Dir()); err != nil {
					t.Fatal(err)
				}
				// The manifest is the same at every retry: the scan
				// reports the file, not a race with commits.
				err = scanAll(s)
				if d.scanErr == "" && err != nil {
					t.Fatalf("scanning a store whose entry records no size: %v", err)
				}
				if d.scanErr != "" && (err == nil || !strings.Contains(err.Error(), d.scanErr) || !strings.Contains(err.Error(), seg.File) || strings.Contains(err.Error(), "snapshots")) {
					t.Fatalf("scanning a table whose segment is damaged: %v, want an error naming %s that says %q", err, seg.File, d.scanErr)
				}
				if grown {
					appendTo(t, root, "x/mixed.log", strings.Join(lines[first:], ""))
				}

				res = crawlWithStoreWorkers(t, root, reg, cps, s, 1)
				if f := fileByPath(t, res, "x/mixed.log"); f.Status != StatusMatched || f.Inc.Resume() != "store-new" {
					t.Fatalf("the file whose segment is damaged is %v (%s), want matched and extracted in full (store-new)", f.Status, f.Inc.Resume())
				}
				oneShot, err := OpenSegmentStore(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				crawlWithStoreWorkers(t, root, learned, follow.NewStore(), oneShot, 1)
				if got, want := storeRows(t, s), storeRows(t, oneShot); got != want {
					t.Fatalf("the store differs from a one-shot crawl:\n%s", firstDiff(got, want))
				}
			})
		}
	}
}
