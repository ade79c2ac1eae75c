package lake

import (
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"datamaran/internal/follow"
)

// openStateAt opens the state the CLI and the daemon keep under one
// directory: registry.json, checkpoints.json, store/.
func openStateAt(t *testing.T, dir string) *State {
	t.Helper()
	st, err := OpenState(filepath.Join(dir, "registry.json"), filepath.Join(dir, "checkpoints.json"), filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// copyTree returns a copy of dir.
func copyTree(t *testing.T, dir string) string {
	t.Helper()
	out := t.TempDir()
	if err := os.CopyFS(out, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}
	return out
}

// snapshotDigest renders what a reader of the snapshot can see.
func snapshotDigest(t *testing.T, snap *Snapshot) string {
	t.Helper()
	reg, err := json.Marshal(snap.Registry)
	if err != nil {
		t.Fatal(err)
	}
	return string(reg) + "\n" + storeDigest(t, snap.Checkpoints)
}

// mutateLake changes the lake the way a day of traffic does: two formats
// each have a file grow, one of them also loses a file, and a file of a
// format nobody knows arrives.
func mutateLake(t *testing.T, root string) {
	t.Helper()
	appendTo(t, root, "c/metrics-1.log", "metric|cpu7|99.99|\n")
	appendTo(t, root, "a/jobs-1.log", "JOB <777>\n  queue= q9;\n  state= DONE;\n")
	if err := os.Remove(filepath.Join(root, "a", "jobs-3.log")); err != nil {
		t.Fatal(err)
	}
	writeFile(t, root, "d/kv.log", strings.Repeat("host=db01 level=warn code=17\nhost=db02 level=info code=4\n", 60))
}

// crawlThroughCancels crawls root with a context that cancels itself at
// its first look, then its second, fourth, eighth … until a crawl gets
// through, which it returns. Every crawl before that one must have
// returned the context's error, left the snapshot the one readers
// already hold, and left the state directory byte for byte as it was.
func crawlThroughCancels(t *testing.T, st *State, dir, root string) *Result {
	t.Helper()
	before, held := copyTree(t, dir), st.Snapshot()
	seen := snapshotDigest(t, held)
	for at := int32(1); ; at *= 2 {
		res, err := st.Crawl(cancelAfter(at), root, Config{Workers: 2}, "")
		if err == nil {
			if at < 16 {
				t.Fatalf("the crawl looked at its context fewer than %d times: cancelled too early to have staged anything", at)
			}
			return res
		}
		if err != context.Canceled || res != nil {
			t.Fatalf("cancel at %d: res=%v err=%v, want context.Canceled", at, res, err)
		}
		if st.Snapshot() != held || snapshotDigest(t, held) != seen {
			t.Fatalf("cancel at %d: the cancelled crawl reached the published snapshot", at)
		}
		requireSameTree(t, dir, before)
	}
}

// TestStateCancelledCrawlLeavesNoTrace: only a completed crawl
// publishes. Crawls cancelled from their first step to their last few —
// over an empty state, and over a populated one whose lake has moved on —
// leave memory and disk alone, and the crawl that follows them ends where
// a crawl that was never interrupted ends.
func TestStateCancelledCrawlLeavesNoTrace(t *testing.T) {
	root := buildLake(t)
	dir := t.TempDir()
	st := openStateAt(t, dir)
	crawlThroughCancels(t, st, dir, root)
	if gen := st.Snapshot().Generation; gen != 2 {
		t.Fatalf("generation %d after one completed crawl, want 2", gen)
	}

	mutateLake(t, root)
	undisturbed := copyTree(t, dir)
	res := crawlThroughCancels(t, st, dir, root)
	if s := res.Summary; s.Resumed != 2 || s.FormatsDiscovered != 1 || s.Failed != 0 {
		t.Fatalf("crawl after the lake moved on: %+v", s)
	}
	if _, err := openStateAt(t, undisturbed).Crawl(context.Background(), root, Config{Workers: 2}, ""); err != nil {
		t.Fatal(err)
	}
	requireSameTree(t, dir, undisturbed)
}

// TestStateSavesBeforeCompacting: the crawl commits the store, publishes,
// saves registry and checkpoints, and only then compacts. A compaction
// that fails is reported, and still finds all three in step — a process
// restarted from older checkpoints would resume behind its own store and
// append rows it already holds. (IndexDir and the daemon each pin this
// through their own surface; this is the layer that owns it.)
func TestStateSavesBeforeCompacting(t *testing.T) {
	root := buildLake(t)
	dir := t.TempDir()
	st := openStateAt(t, dir)
	if _, err := st.Crawl(context.Background(), root, Config{Workers: 2}, ""); err != nil {
		t.Fatal(err)
	}
	// The metrics table is two per-path files, which need no compaction;
	// a third one does. Damage the two where only a header walk looks —
	// the first block's row count becomes the end-of-blocks mark — so the
	// next crawl, which has no reason to read them, succeeds up to there.
	entries, err := os.ReadDir(st.Store().Dir())
	if err != nil {
		t.Fatal(err)
	}
	damaged := 0
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".seg") || strings.Contains(e.Name(), ".c") {
			continue
		}
		p := filepath.Join(st.Store().Dir(), e.Name())
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(segMagicV2)] = 0
		if err := os.WriteFile(p, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		damaged++
	}
	if damaged != 2 {
		t.Fatalf("damaged %d per-path segments, the lake was built for 2", damaged)
	}
	writeFile(t, root, "c/metrics-3.log", "metric|cpu1|10.00|\nmetric|cpu2|20.00|\n")
	if res, err := st.Crawl(context.Background(), root, Config{Workers: 2}, ""); err == nil {
		t.Fatalf("crawl over damaged segments: %+v, want the compaction's failure", res.Summary)
	}

	snap := st.Snapshot()
	cp := snap.Checkpoints.Get("c/metrics-3.log")
	if snap.Generation != 3 || cp == nil {
		t.Fatalf("generation %d, checkpoint %v: the crawl committed the store but did not publish", snap.Generation, cp)
	}
	cps, err := follow.LoadStore(filepath.Join(dir, "checkpoints.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got := cps.Get("c/metrics-3.log"); got == nil || *got != *cp {
		t.Fatalf("checkpoint on disk %v, published %v", got, cp)
	}
	reg, err := LoadRegistry(filepath.Join(dir, "registry.json"))
	if err != nil {
		t.Fatal(err)
	}
	e := reg.Lookup(cp.Fingerprint)
	if want := snap.Registry.Lookup(cp.Fingerprint); e == nil || e.Files != want.Files || e.Files <= 2 {
		t.Fatalf("registry on disk has %+v for the metrics format, published %+v", e, want)
	}
	reopened, err := OpenSegmentStore(st.Store().Dir())
	if err != nil {
		t.Fatal(err)
	}
	if !reopened.Begin().Covers("c/metrics-3.log", cp.Fingerprint, len(e.Templates)) {
		t.Fatal("the store on disk does not hold c/metrics-3.log")
	}
}

// TestStateScopedCrawlWithoutCheckpointFile: a state opened without a
// checkpoint path keeps its checkpoints in memory, and a crawl scoped to
// one format reads them as it would a loaded file's: it crawls exactly
// the files that format owns, leaves every other checkpoint as it was,
// and writes no checkpoint file.
func TestStateScopedCrawlWithoutCheckpointFile(t *testing.T) {
	root := buildLake(t)
	dir := t.TempDir()
	st, err := OpenState(filepath.Join(dir, "registry.json"), "", filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	first, err := st.Crawl(context.Background(), root, Config{Workers: 2}, "")
	if err != nil {
		t.Fatal(err)
	}
	var fp string
	var scope []string
	for _, f := range first.Files {
		if f.Path == "c/metrics-1.log" {
			fp = f.Fingerprint
		}
	}
	for _, f := range first.Files {
		if f.Fingerprint == fp {
			scope = append(scope, f.Path)
		}
	}
	base := st.Snapshot()
	mutateLake(t, root)

	res, err := st.Crawl(context.Background(), root, Config{Workers: 2}, fp)
	if err != nil {
		t.Fatal(err)
	}
	var crawled []string
	for _, f := range res.Files {
		crawled = append(crawled, f.Path)
		if f.Fingerprint != fp {
			t.Fatalf("%s: claimed by %q in a crawl scoped to %s", f.Path, f.Fingerprint, fp)
		}
	}
	if strings.Join(crawled, " ") != strings.Join(scope, " ") {
		t.Fatalf("scoped crawl touched %v, the format owns %v", crawled, scope)
	}
	if s := res.Summary; s.Resumed != 1 || s.Failed != 0 {
		t.Fatalf("scoped crawl: %+v", s)
	}
	snap := st.Snapshot()
	for _, p := range base.Checkpoints.Paths() {
		if cp := base.Checkpoints.Get(p); cp.Fingerprint != fp && snap.Checkpoints.Get(p) != cp {
			t.Fatalf("%s: checkpoint outside the scope changed", p)
		}
	}
	if snap.Checkpoints.Get("d/kv.log") != nil {
		t.Fatal("the scoped crawl checkpointed a new file")
	}
	if _, err := os.Stat(filepath.Join(dir, "checkpoints.json")); !os.IsNotExist(err) {
		t.Fatalf("checkpoint file written without a checkpoint path: %v", err)
	}
}

// parkingHandler is a slog handler that parks its caller: IndexContext
// logs one event when a crawl has done all its work, which is after the
// crawl's last look at its clones and before State publishes anything.
type parkingHandler struct {
	arrived chan<- struct{}
	release <-chan struct{}
}

func (h parkingHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h parkingHandler) Handle(context.Context, slog.Record) error {
	h.arrived <- struct{}{}
	<-h.release
	return nil
}
func (h parkingHandler) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h parkingHandler) WithGroup(string) slog.Handler      { return h }

// TestStateScopedCrawlsCompose: two crawls scoped to different formats
// run at once from one snapshot, so the second to publish must rebase
// onto the first. While both are in flight a reader's snapshot is the
// one they started from, untouched; afterwards registry, checkpoints and
// rows are what the same two crawls leave when run one after the other.
func TestStateScopedCrawlsCompose(t *testing.T) {
	root := buildLake(t)
	dir := t.TempDir()
	st := openStateAt(t, dir)
	if _, err := st.Crawl(context.Background(), root, Config{Workers: 2}, ""); err != nil {
		t.Fatal(err)
	}
	base := st.Snapshot()
	metricsFP := base.Checkpoints.Get("c/metrics-1.log").Fingerprint
	jobsFP := base.Checkpoints.Get("a/jobs-1.log").Fingerprint
	if _, err := st.Crawl(context.Background(), root, Config{}, "0123456789abcdef"); !errors.Is(err, ErrUnknownFormat) {
		t.Fatalf("crawl scoped to an unknown format: %v", err)
	}
	mutateLake(t, root)
	os.Remove(filepath.Join(root, "d", "kv.log")) // new files are a global crawl's
	sequential := copyTree(t, dir)
	seen := snapshotDigest(t, base)

	arrived, release := make(chan struct{}), make(chan struct{})
	logger := slog.New(parkingHandler{arrived: arrived, release: release})
	type outcome struct {
		res *Result
		err error
	}
	results := map[string]chan outcome{metricsFP: make(chan outcome, 1), jobsFP: make(chan outcome, 1)}
	for fp, ch := range results {
		go func() {
			res, err := st.Crawl(context.Background(), root, Config{Workers: 2, Logger: logger}, fp)
			ch <- outcome{res, err}
		}()
	}
	for range results {
		select {
		case <-arrived:
		case <-time.After(time.Minute):
			t.Fatal("the scoped crawls did not both finish their work")
		}
	}
	if st.Snapshot() != base || snapshotDigest(t, base) != seen {
		t.Fatal("a crawl in flight reached the published snapshot")
	}
	close(release)
	for fp, ch := range results {
		out := <-ch
		if out.err != nil {
			t.Fatalf("scoped crawl of %s: %v", fp, out.err)
		}
		if s := out.res.Summary; s.Resumed != 1 || s.Failed != 0 {
			t.Fatalf("scoped crawl of %s: %+v", fp, s)
		}
	}

	ref := openStateAt(t, sequential)
	for _, fp := range []string{metricsFP, jobsFP} {
		if _, err := ref.Crawl(context.Background(), root, Config{Workers: 2}, fp); err != nil {
			t.Fatal(err)
		}
	}
	got, want := st.Snapshot(), ref.Snapshot()
	if got.Generation != base.Generation+2 {
		t.Fatalf("generation %d after two crawls of generation %d", got.Generation, base.Generation)
	}
	if g, w := snapshotDigest(t, got), snapshotDigest(t, want); g != w {
		t.Fatalf("two scoped crawls at once differ from one after the other:\n%s", firstDiff(g, w))
	}
	for _, name := range []string{"registry.json", "checkpoints.json"} {
		g, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		w, err := os.ReadFile(filepath.Join(sequential, name))
		if err != nil {
			t.Fatal(err)
		}
		if string(g) != string(w) {
			t.Fatalf("%s on disk:\n%s", name, firstDiff(string(g), string(w)))
		}
	}
	if g, w := storeRows(t, st.Store()), storeRows(t, ref.Store()); g != w {
		t.Fatalf("store rows:\n%s", firstDiff(g, w))
	}
}
