package lake

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"datamaran/internal/follow"
)

// requireOnlyLiveFiles fails unless the store directory holds exactly
// the manifest and the segment files it names: no staged temp file, no
// orphan, nothing live missing.
func requireOnlyLiveFiles(t *testing.T, s *SegmentStore) {
	t.Helper()
	entries, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	live := referencedFiles(s.snapshot())
	for _, e := range entries {
		if e.Name() != "manifest.json" && !live[e.Name()] {
			t.Errorf("%s is on disk but not in the manifest", e.Name())
		}
		delete(live, e.Name())
	}
	for name := range live {
		t.Errorf("%s is in the manifest but not on disk", name)
	}
	if t.Failed() {
		t.FailNow()
	}
}

// TestCompactStaleBaseIsNoOp interleaves by hand what a scoped reindex
// racing a compaction does: Compact reads the manifest, a commit that
// appended to one path publishes and unlinks the file it superseded,
// and only then does Compact reach for its inputs. One of them is gone.
// That is the commit having won, not an error.
func TestCompactStaleBaseIsNoOp(t *testing.T) {
	root := buildLake(t)
	reg, cps := NewRegistry(), follow.NewStore()
	s, err := OpenSegmentStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	crawlWithStore(t, root, reg, cps, s)

	stale := s.snapshot()
	appendTo(t, root, "a/jobs-1.log", "JOB <123>\n  queue= q1;\n  state= DONE;\n")
	if res := crawlWithStore(t, root, reg, cps, s); res.Summary.Resumed != 1 {
		t.Fatalf("append run: %+v", res.Summary)
	}
	want := storeRows(t, s)

	n, err := s.compact(stale, 1)
	if n != 0 || err != nil {
		t.Fatalf("compact over a superseded manifest = (%d, %v), want a no-op", n, err)
	}
	requireOnlyLiveFiles(t, s)
	if got := storeRows(t, s); got != want {
		t.Fatal("a no-op compaction changed the store")
	}
	// The same call over the current manifest does the work.
	if n, err := s.Compact(1); n == 0 || err != nil {
		t.Fatalf("Compact = (%d, %v), want tables rewritten", n, err)
	}
	if got := storeRows(t, s); got != want {
		t.Fatal("compaction changed the store's rows")
	}
}

// TestCompactRacesCommits runs a compaction loop against a sequence of
// commits that each append to one path. Whichever side wins a round,
// neither may fail, and the store must end as a one-shot crawl of the
// final lake would have built it.
func TestCompactRacesCommits(t *testing.T) {
	root := buildLake(t)
	reg, cps := NewRegistry(), follow.NewStore()
	s, err := OpenSegmentStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	crawlWithStore(t, root, reg, cps, s)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.Compact(1); err != nil {
				t.Errorf("Compact racing a commit: %v", err)
				return
			}
		}
	}()
	grow := []struct{ path, line string }{
		{"a/jobs-1.log", "JOB <123>\n  queue= q1;\n  state= DONE;\n"},
		{"b/req-2.log", "GET /api/v1/item/7 200\n"},
		{"c/metrics-1.log", "metric|cpu3|11.11|\n"},
		{"a/jobs-3.log", "JOB <77>\n  queue= q2;\n  state= FAILED;\n"},
		{"b/req-1.log", "PUT /api/v2/item/8 404\n"},
	}
	rounds := 15
	if testing.Short() {
		rounds = 6
	}
	for i := 0; i < rounds; i++ {
		g := grow[i%len(grow)]
		appendTo(t, root, g.path, g.line)
		if res := crawlWithStore(t, root, reg, cps, s); res.Summary.Resumed != 1 {
			t.Fatalf("round %d: %+v", i, res.Summary)
		}
	}
	close(stop)
	wg.Wait()
	if _, err := s.Compact(1); err != nil {
		t.Fatal(err)
	}
	requireOnlyLiveFiles(t, s)

	scratch, err := OpenSegmentStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	crawlWithStore(t, root, NewRegistry(), follow.NewStore(), scratch)
	if got, want := storeRows(t, s), storeRows(t, scratch); got != want {
		t.Fatalf("store after racing compactions differs from a one-shot crawl:\n%s\n--- vs ---\n%s", got, want)
	}
}

// TestAppendFollowsCompactedSpan is the race seen from the other side:
// a transaction begins, a compaction relocates the spans it is about to
// extend and unlinks the files its view names, and only then does the
// crawl reach Append. The rows are the same rows under a new (File,
// RowOff); the resume must find them there, not fail the file.
func TestAppendFollowsCompactedSpan(t *testing.T) {
	root := buildLake(t)
	reg, cps := NewRegistry(), follow.NewStore()
	s, err := OpenSegmentStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	crawlWithStore(t, root, reg, cps, s)

	txn := s.Begin()
	if n, err := s.Compact(1); n == 0 || err != nil {
		t.Fatalf("Compact = (%d, %v), want tables rewritten", n, err)
	}
	appendTo(t, root, "a/jobs-1.log", "JOB <123>\n  queue= q1;\n  state= DONE;\n")
	appendTo(t, root, "c/metrics-2.log", "metric|cpu3|11.11|\n")
	res, err := Index(root, reg, Config{Workers: 2, Checkpoints: cps, Segments: txn})
	if err != nil {
		txn.Abort()
		t.Fatal(err)
	}
	if res.Summary.Resumed != 2 || res.Summary.Failed != 0 {
		t.Fatalf("crawl over relocated spans: %+v", res.Summary)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}

	scratch, err := OpenSegmentStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	crawlWithStore(t, root, NewRegistry(), follow.NewStore(), scratch)
	if got, want := storeRows(t, s), storeRows(t, scratch); got != want {
		t.Fatalf("store differs from a one-shot crawl:\n%s\n--- vs ---\n%s", got, want)
	}
	requireOnlyLiveFiles(t, s)
}

// TestCommitUnlinksSupersededSharedFiles: a transaction begins, a
// compaction folds every path into shared files, and the transaction
// then rewrites every path from scratch. Its commit replaces every span
// of those shared files, which it never saw and so never doomed; they
// must go with the manifest that named them.
func TestCommitUnlinksSupersededSharedFiles(t *testing.T) {
	root := buildLake(t)
	reg := NewRegistry()
	s, err := OpenSegmentStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	crawlWithStore(t, root, reg, follow.NewStore(), s)

	txn := s.Begin()
	if n, err := s.Compact(1); n == 0 || err != nil {
		t.Fatalf("Compact = (%d, %v), want tables rewritten", n, err)
	}
	if _, err := Index(root, reg, Config{Workers: 2, Checkpoints: follow.NewStore(), Segments: txn}); err != nil {
		txn.Abort()
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	requireOnlyLiveFiles(t, s)
}

// rewriteFooter replaces the stats footer of a v2 segment file with an
// edited copy.
func rewriteFooter(t *testing.T, path string, edit func(*segFooter)) {
	t.Helper()
	body, foot := splitSegment(t, path)
	edit(foot)
	if err := os.WriteFile(path, withFooter(body, foot), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCompactRejectsInconsistentSegments: the splice trusts a source's
// headers and footer only as far as they agree with each other and with
// the manifest. Where they do not, Compact fails — it neither moves the
// bytes anyway nor quietly falls back to decoding them — and leaves the
// store as it was.
func TestCompactRejectsInconsistentSegments(t *testing.T) {
	spans := func() []synthSpan {
		rng := rand.New(rand.NewSource(9))
		return []synthSpan{
			{path: "a.log", rows: synthRows(rng, 1500)},
			{path: "b.log", rows: synthRows(rng, 300)},
		}
	}
	aFile := segFileName("a.log", 0, 0)
	cases := []struct {
		name   string
		damage func(t *testing.T, dir string, man *manifest)
		errHas string
	}{
		{"span ends inside a block", func(t *testing.T, dir string, man *manifest) {
			man.Tables[0].Segments[0].Rows = 1100
		}, "overruns span"},
		{"span runs past the last block", func(t *testing.T, dir string, man *manifest) {
			man.Tables[0].Segments[0].Rows = 1600
		}, "overruns span"},
		{"span starts inside a block", func(t *testing.T, dir string, man *manifest) {
			seg := &man.Tables[0].Segments[0]
			seg.RowOff, seg.Rows = 100, 1400
		}, "not block-aligned"},
		{"footer row count disagrees with the header", func(t *testing.T, dir string, man *manifest) {
			rewriteFooter(t, filepath.Join(dir, aFile), func(f *segFooter) { f.blocks[1].rows-- })
		}, "stats footer describes block 1"},
		{"footer has a zone too few per block", func(t *testing.T, dir string, man *manifest) {
			rewriteFooter(t, filepath.Join(dir, aFile), func(f *segFooter) {
				for i := range f.blocks {
					f.blocks[i].cols = f.blocks[i].cols[:synthCols-1]
				}
				f.distincts = f.distincts[:synthCols-1]
			})
		}, "stats footer describes block 0"},
		{"footer has a block too few", func(t *testing.T, dir string, man *manifest) {
			rewriteFooter(t, filepath.Join(dir, aFile), func(f *segFooter) { f.blocks = f.blocks[:1] })
		}, "stats footer has 1 blocks"},
		{"no footer", func(t *testing.T, dir string, man *manifest) {
			body, _ := splitSegment(t, filepath.Join(dir, aFile))
			if err := os.WriteFile(filepath.Join(dir, aFile), body, 0o644); err != nil {
				t.Fatal(err)
			}
		}, "stats footer"},
		{"header cut off", func(t *testing.T, dir string, man *manifest) {
			if err := os.Truncate(filepath.Join(dir, aFile), int64(len(segMagicV2))+3); err != nil {
				t.Fatal(err)
			}
		}, aFile},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeSynthStore(t, dir, spans())
			s, err := OpenSegmentStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			man := s.snapshot().clone()
			tc.damage(t, dir, man)
			if err := saveManifest(dir, man); err != nil {
				t.Fatal(err)
			}
			if s, err = OpenSegmentStore(dir); err != nil {
				t.Fatal(err)
			}
			before, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
			if err != nil {
				t.Fatal(err)
			}
			n, err := s.Compact(1)
			if err == nil || n != 0 || !strings.Contains(err.Error(), tc.errHas) {
				t.Fatalf("Compact = (%d, %v), want an error naming %q", n, err, tc.errHas)
			}
			requireOnlyLiveFiles(t, s)
			after, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
			if err != nil {
				t.Fatal(err)
			}
			if string(after) != string(before) {
				t.Fatal("a failed compaction rewrote the manifest")
			}
		})
	}
}
