package lake

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"datamaran/internal/core"
	"datamaran/internal/follow"
	"datamaran/internal/lake/laketest"
	"datamaran/internal/obsv"
)

// crawlFunc is IndexContext or its sequential oracle.
type crawlFunc func(ctx context.Context, root string, reg *Registry, cfg Config) (*Result, error)

// crawlStart is the state a crawl starts from. Every run of a scenario
// gets its own copy: a clone of the registry and the checkpoints, and a
// copy of the store directory ("" starts from an empty store). prepare,
// when set, runs before each copy is taken: it puts back what a crawl of
// the scenario consumes.
type crawlStart struct {
	reg      *Registry
	cps      *follow.Store
	storeDir string
	prepare  func()
}

func (s crawlStart) copy(t *testing.T) (*Registry, *follow.Store, *SegmentStore) {
	t.Helper()
	if s.prepare != nil {
		s.prepare()
	}
	dir := t.TempDir()
	if s.storeDir != "" {
		if err := os.CopyFS(dir, os.DirFS(s.storeDir)); err != nil {
			t.Fatal(err)
		}
	}
	store, err := OpenSegmentStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return cloneRegistry(t, s.reg), cloneStore(t, s.cps), store
}

// runCrawl runs one crawl from a copy of start, with checkpoints and a
// store transaction it commits, and returns what the crawl returned and
// what it left behind.
func runCrawl(t *testing.T, crawl crawlFunc, root string, start crawlStart, cfg Config) (*Result, *Registry, *follow.Store, *SegmentStore) {
	t.Helper()
	reg, cps, store := start.copy(t)
	txn := store.Begin()
	cfg.Checkpoints, cfg.Segments = cps, txn
	res, err := crawl(context.Background(), root, reg, cfg)
	if err != nil {
		txn.Abort()
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	requireStoreRendersRecords(t, root, res, reg, store)
	return res, reg, cps, store
}

// crawlOutcome runs one crawl from a copy of start and renders all it
// produced: the registry (order, fingerprints, claim counts), the
// summary, every file's status, fingerprint, error and incremental
// bookkeeping, the checkpoints, and the committed store's rows.
func crawlOutcome(t *testing.T, crawl crawlFunc, root string, start crawlStart, cfg Config) string {
	t.Helper()
	res, reg, cps, store := runCrawl(t, crawl, root, start, cfg)
	var b strings.Builder
	b.WriteString(digest(t, res, reg))
	fmt.Fprintf(&b, "new formats %v\ncheckpoints %s\n", res.NewFormats, storeDigest(t, cps))
	b.WriteString(storeRows(t, store))
	return b.String()
}

// requirePipelineMatchesOracle runs the scenario through the sequential
// oracle and through IndexContext at 1, 2 and 8 workers, and requires
// the four outcomes to be the same bytes. It returns them.
func requirePipelineMatchesOracle(t *testing.T, root string, start crawlStart, cfg Config) string {
	t.Helper()
	want := crawlOutcome(t, indexSequential, root, start, cfg)
	for _, workers := range []int{1, 2, 8} {
		cfg.Workers = workers
		if got := crawlOutcome(t, IndexContext, root, start, cfg); got != want {
			t.Fatalf("workers=%d differs from the sequential oracle:\n%s", workers, firstDiff(got, want))
		}
	}
	return want
}

// crawlState runs one crawl from a copy of start and leaves on disk what
// IndexDir leaves: registry.json and checkpoints.json next to the committed
// store's manifest and segments, all under the directory it returns. The
// counters are what the crawl reported to a metrics registry of its own:
// datamaran_crawl_discoveries_total and datamaran_crawl_speculations_total,
// by label.
func crawlState(t *testing.T, crawl crawlFunc, root string, start crawlStart, cfg Config) (dir string, discoveries, speculations map[string]float64) {
	t.Helper()
	metrics := obsv.NewRegistry()
	cfg.Metrics = metrics
	_, reg, cps, store := runCrawl(t, crawl, root, start, cfg)
	dir = store.Dir()
	if err := reg.Save(filepath.Join(dir, "registry.json")); err != nil {
		t.Fatal(err)
	}
	if err := cps.Save(filepath.Join(dir, "checkpoints.json")); err != nil {
		t.Fatal(err)
	}
	discoveries, speculations = map[string]float64{}, map[string]float64{}
	for _, m := range metrics.Snapshot() {
		switch m.Name {
		case "datamaran_crawl_discoveries_total":
			discoveries[m.Labels] = m.Value
		case "datamaran_crawl_speculations_total":
			speculations[m.Labels] = m.Value
		}
	}
	return dir, discoveries, speculations
}

// requireSameTree is diff -r: the two directories hold the same files
// with the same bytes.
func requireSameTree(t *testing.T, got, want string) {
	t.Helper()
	read := func(dir string) map[string]string {
		files := map[string]string{}
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			raw, err := os.ReadFile(path)
			rel, _ := filepath.Rel(dir, path)
			files[rel] = string(raw)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return files
	}
	g, w := read(got), read(want)
	for rel, content := range w {
		if have, ok := g[rel]; !ok {
			t.Fatalf("%s is missing", rel)
		} else if have != content {
			t.Fatalf("%s differs:\n%s", rel, firstDiff(have, content))
		}
	}
	for rel := range g {
		if _, ok := w[rel]; !ok {
			t.Fatalf("%s is not in the reference's state", rel)
		}
	}
}

// firstDiff shows the first line two outcomes disagree on.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n  got  %.300s\n  want %.300s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines, oracle has %d", len(g), len(w))
}

func writeFile(t *testing.T, root, rel, content string) {
	t.Helper()
	p := filepath.Join(root, filepath.FromSlash(rel))
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// mixedLog interleaves metric and request lines in seeded order.
func mixedLog(seed int64, metrics, requests int) string {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	for m, r := metrics, requests; m > 0 || r > 0; {
		if r == 0 || (m > 0 && rng.Intn(m+r) < m) {
			laketest.AppendMetric(&b, rng)
			m--
		} else {
			laketest.AppendRequest(&b, rng, []string{"GET", "PUT", "POST"}, 10000, []int{200, 404, 500})
			r--
		}
	}
	return b.String()
}

// TestPipelineColdLake: nothing is known, several files per format, and
// one file that is gone by the time it is sampled. The first file of a
// format discovers it; its siblings must be claimed by that entry in the
// commit stage — the match stage saw an empty registry — not rediscover.
func TestPipelineColdLake(t *testing.T) {
	root := buildLake(t)
	// The filter runs after the walk and before any sample is read: a
	// file it deletes is listed and then cannot be opened, on any uid.
	gone := filepath.Join(root, "zz", "gone.log")
	cfg := Config{Filter: func(rel string) bool {
		if rel == "zz/gone.log" {
			os.Remove(gone)
		}
		return true
	}}
	outcome := requirePipelineMatchesOracle(t, root, crawlStart{
		reg: NewRegistry(), cps: follow.NewStore(),
		prepare: func() { writeFile(t, root, "zz/gone.log", "GET /api/v1/item/7 200\n") },
	}, cfg)
	for _, want := range []string{
		"FormatsDiscovered:3", "CacheHits:5", "Unstructured:2", "Failed:1",
		"file zz/gone.log size=0 fp= status=failed err=open ",
		"file noise.txt size=", "file empty.log size=0 fp= status=unstructured",
	} {
		if !strings.Contains(outcome, want) {
			t.Errorf("outcome lacks %q", want)
		}
	}
}

// speculationLake is a cold lake made to tempt the match stage: eight
// files of one format nobody knows yet, adjacent in path order, so every
// worker that samples one before the first has registered the format
// starts a discovery of its own; two prose notes between them, whose
// discoveries find nothing; and two more formats behind.
func speculationLake(t *testing.T) string {
	root := t.TempDir()
	verbs, codes := []string{"GET", "PUT", "POST"}, []int{200, 404, 500}
	for f := 0; f < 8; f++ {
		writeFile(t, root, fmt.Sprintf("a/req-%d.log", f), laketest.RequestsLog(int64(50+f), 120, verbs, 10000, codes))
	}
	writeFile(t, root, "a/req-2-notes.txt", noiseProse)
	writeFile(t, root, "a/req-5-notes.txt", laketest.Prose("requests",
		"jobs/ holds the scheduler dumps -- multi-line, one stanza per job",
		"web/ is the edge tier; latency units are milliseconds"))
	for f := 0; f < 3; f++ {
		writeFile(t, root, fmt.Sprintf("b/jobs-%d.log", f), laketest.JobsLog(int64(60+f), 50, 90000, 6, []string{"DONE", "FAILED", "RUNNING"}))
		writeFile(t, root, fmt.Sprintf("c/metrics-%d.log", f), laketest.MetricsLog(int64(70+f), 120))
	}
	return root
}

// TestPipelineSpeculativeDiscovery is the licence of the match stage's
// speculations: on a lake where they are started in numbers and mostly
// thrown away, every worker count leaves the state directory — registry,
// checkpoints, manifest, segments — byte for byte as the sequential loop
// leaves it, reports the discoveries that loop ran and no other (a
// discarded speculation is counted as that, and nowhere else), and has put
// every one of them through the match stage.
func TestPipelineSpeculativeDiscovery(t *testing.T) {
	root := speculationLake(t)
	start := crawlStart{reg: NewRegistry(), cps: follow.NewStore()}
	requirePipelineMatchesOracle(t, root, start, Config{})

	wantDir, wantDisc, seqSpec := crawlState(t, indexSequential, root, start, Config{})
	if want := map[string]float64{`{outcome="new"}`: 3, `{outcome="known"}`: 0, `{outcome="none"}`: 2}; !equalCounts(wantDisc, want) {
		t.Fatalf("the sequential crawl ran discoveries %v, the lake was built for %v", wantDisc, want)
	}
	if seqSpec[`{outcome="used"}`] != 0 || seqSpec[`{outcome="discarded"}`] != 0 {
		t.Fatalf("the sequential crawl speculates: %v", seqSpec)
	}
	for _, workers := range []int{1, 2, 8} {
		dir, disc, spec := crawlState(t, IndexContext, root, start, Config{Workers: workers})
		requireSameTree(t, dir, wantDir)
		if !equalCounts(disc, wantDisc) {
			t.Fatalf("workers=%d: discoveries %v, the sequential crawl ran %v", workers, disc, wantDisc)
		}
		if spec[`{outcome="used"}`] != 5 {
			t.Fatalf("workers=%d: %v speculations used for 5 discoveries: the commit stage ran some itself", workers, spec)
		}
		t.Logf("workers=%d: speculations %v", workers, spec)
	}
}

// TestPipelineFreshEntryBeatsBase: the registry knows the metrics format.
// a/first.log is mostly request lines, so it goes through discovery and
// registers a two-template profile; m/mixed.log is 60% metric lines, so
// the known profile claims it in the match stage — and the commit stage
// must hand it to the fresh profile, which covers all of it; z/metrics.log
// is covered in full by both and stays with the earlier, known one.
func TestPipelineFreshEntryBeatsBase(t *testing.T) {
	reg := NewRegistry()
	known, _, err := discoverSample(context.Background(), []byte(laketest.MetricsLog(1, 100)), reg, core.Options{})
	if err != nil || known == nil {
		t.Fatalf("no profile for the metrics format: %v", err)
	}
	root := t.TempDir()
	writeFile(t, root, "a/first.log", mixedLog(2, 60, 100))
	writeFile(t, root, "m/mixed.log", mixedLog(3, 100, 49))
	writeFile(t, root, "z/metrics.log", laketest.MetricsLog(4, 80))

	mixed, err := os.ReadFile(filepath.Join(root, "m", "mixed.log"))
	if err != nil {
		t.Fatal(err)
	}
	if e := MatchSample(mixed, reg, DefaultMatchThreshold); e != known {
		t.Fatalf("before the crawl the known profile must claim m/mixed.log, got %v", e)
	}
	outcome := requirePipelineMatchesOracle(t, root, crawlStart{reg: reg, cps: follow.NewStore()}, Config{})

	// "file <path> size=N fp=F status=S err=E", by path.
	fileLine := map[string][]string{}
	for _, line := range strings.Split(outcome, "\n") {
		if rest, ok := strings.CutPrefix(line, "file "); ok {
			f := strings.Fields(rest)
			fileLine[f[0]] = f[2:4]
		}
	}
	fresh := fileLine["a/first.log"][0]
	if fresh == "fp=" || fresh == "fp="+known.Fingerprint {
		t.Fatalf("a/first.log registered no profile of its own (%q)", fresh)
	}
	for path, want := range map[string][]string{
		"a/first.log":   {fresh, "status=discovered"},
		"m/mixed.log":   {fresh, "status=matched"},
		"z/metrics.log": {"fp=" + known.Fingerprint, "status=matched"},
	} {
		if got := fileLine[path]; got[0] != want[0] || got[1] != want[1] {
			t.Errorf("%s: %v, want %v", path, got, want)
		}
	}
}

// TestPipelineIncrementalAndScoped: a lake crawled once, then changed in
// every way the checkpoint planner tells apart — grown, rotated,
// truncated, new, departed, prose that changed, files left alone — and
// crawled again, whole and through a filter.
func TestPipelineIncrementalAndScoped(t *testing.T) {
	root := buildLake(t)
	first := crawlStart{reg: NewRegistry(), cps: follow.NewStore(), storeDir: t.TempDir()}
	store, err := OpenSegmentStore(first.storeDir)
	if err != nil {
		t.Fatal(err)
	}
	crawlWithStore(t, root, first.reg, first.cps, store)

	states := []string{"DONE", "FAILED", "RUNNING"}
	verbs := []string{"GET", "PUT", "POST"}
	appendTo(t, root, "a/jobs-1.log", laketest.JobsLog(41, 20, 90000, 6, states))
	writeFile(t, root, "b/req-1.log", laketest.RequestsLog(42, 200, verbs, 10000, []int{200, 404, 500}))
	writeFile(t, root, "c/metrics-1.log", laketest.MetricsLog(43, 30))
	writeFile(t, root, "b/req-9.log", laketest.RequestsLog(44, 90, verbs, 10000, []int{200, 404, 500}))
	appendTo(t, root, "noise.txt", "PS: the jobs tier is next.\n")
	if err := os.Remove(filepath.Join(root, "b", "req-3.log")); err != nil {
		t.Fatal(err)
	}

	whole := requirePipelineMatchesOracle(t, root, first, Config{})
	for _, want := range []string{
		"Resumed:1", "Unchanged:5",
		"inc a/jobs-1.log {Action:resumed",
		"inc b/req-1.log {Action:full Reason:rotated",
		"inc c/metrics-1.log {Action:full Reason:truncated",
		"inc b/req-9.log {Action:full Reason:new",
		"file noise.txt size=", "file empty.log size=0 fp= status=unstructured",
	} {
		if !strings.Contains(whole, want) {
			t.Errorf("whole crawl lacks %q", want)
		}
	}
	if strings.Contains(whole, "file b/req-3.log") {
		t.Error("the departed file is still in the result")
	}

	scoped := requirePipelineMatchesOracle(t, root, first, Config{
		Filter: func(rel string) bool { return strings.HasPrefix(rel, "b/") },
	})
	if !strings.Contains(scoped, "Files:3 ") || strings.Contains(scoped, "file a/") {
		t.Errorf("the scoped crawl saw more than b/:\n%.400s", scoped)
	}
}

// cancelAfter returns a context that cancels itself at its n-th Err
// call — mid-crawl, since the commit stage asks before every file.
func cancelAfter(n int32) context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	return &countdownCtx{Context: ctx, cancel: cancel, left: n}
}

type countdownCtx struct {
	context.Context
	cancel context.CancelFunc
	left   int32
}

func (c *countdownCtx) Err() error {
	if atomic.AddInt32(&c.left, -1) == 0 {
		c.cancel()
	}
	return c.Context.Err()
}

// TestDiscoverSampleCancelled: a crawl cancelled while a file waits for
// discovery must not run the search, nor register anything.
func TestDiscoverSampleCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reg := NewRegistry()
	e, _, err := discoverSample(ctx, []byte(laketest.MetricsLog(1, 100)), reg, core.Options{})
	if err != context.Canceled || e != nil || reg.Len() != 0 {
		t.Fatalf("discoverSample on a cancelled context = %v, %v (registry %d), want context.Canceled and nothing registered", e, err, reg.Len())
	}
}

// TestPipelineCancelledMidCrawl: cancellation in the middle of the commit
// stage returns ctx.Err() and leaves no goroutine of any stage behind.
func TestPipelineCancelledMidCrawl(t *testing.T) {
	root := t.TempDir()
	for f := 0; f < 40; f++ {
		writeFile(t, root, fmt.Sprintf("m/metrics-%02d.log", f), laketest.MetricsLog(int64(f), 400))
	}
	reg := NewRegistry()
	if _, _, err := discoverSample(context.Background(), []byte(laketest.MetricsLog(1, 100)), reg, core.Options{}); err != nil {
		t.Fatal(err)
	}
	speculative := speculationLake(t)
	before := runtime.NumGoroutine()
	for _, workers := range []int{1, 2, 8} {
		for _, at := range []int32{1, 3, 17, 40} {
			res, err := IndexContext(cancelAfter(at), root, cloneRegistry(t, reg), Config{Workers: workers, Checkpoints: follow.NewStore()})
			if err != context.Canceled || res != nil {
				t.Fatalf("workers=%d cancel at %d: res=%v err=%v, want context.Canceled", workers, at, res, err)
			}
			// Nothing known: the cancel finds discoveries running on the
			// match stage, for the file at its turn and for files ahead
			// of it, and must wait for every one of them to stop.
			res, err = IndexContext(cancelAfter(at), speculative, NewRegistry(), Config{Workers: workers})
			if err != context.Canceled || res != nil {
				t.Fatalf("cold lake, workers=%d cancel at %d: res=%v err=%v, want context.Canceled", workers, at, res, err)
			}
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines before the cancelled crawls, %d after:\n%s", before, n, buf[:runtime.Stack(buf, true)])
	}
}

// TestPipelineWalkOrder: the result lists files in sorted path order
// whatever the walk order was ("a.log" sorts before "a/x.log", which the
// directory walk visits first).
func TestPipelineWalkOrder(t *testing.T) {
	root := t.TempDir()
	writeFile(t, root, "a/x.log", laketest.MetricsLog(1, 50))
	writeFile(t, root, "a.log", laketest.MetricsLog(2, 50))
	writeFile(t, root, "a-b.log", laketest.MetricsLog(3, 50))
	outcome := requirePipelineMatchesOracle(t, root, crawlStart{reg: NewRegistry(), cps: follow.NewStore()}, Config{})
	var order []string
	for _, line := range strings.Split(outcome, "\n") {
		if rest, ok := strings.CutPrefix(line, "file "); ok {
			order = append(order, strings.Fields(rest)[0])
		}
	}
	if got := strings.Join(order, " "); got != "a-b.log a.log a/x.log" {
		t.Fatalf("file order %q", got)
	}
}
