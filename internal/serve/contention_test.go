package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"datamaran/internal/template"
)

// newServerCfg builds a Server over a fresh lake with extra Config
// knobs applied, and runs the initial reindex.
func newServerCfg(t *testing.T, mod func(*Config)) (*Server, string) {
	t.Helper()
	root := buildLake(t)
	state := t.TempDir()
	cfg := Config{
		Root:           root,
		RegistryPath:   filepath.Join(state, "registry.json"),
		CheckpointPath: filepath.Join(state, "checkpoints.json"),
		StorePath:      filepath.Join(state, "store"),
		Workers:        2,
	}
	if mod != nil {
		mod(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The initial crawl runs directly, not over HTTP: a test config may
	// set a request deadline or body cap far too tight for a full crawl.
	if _, err := s.Reindex(context.Background(), ""); err != nil {
		t.Fatal(err)
	}
	return s, root
}

// fingerprints returns the metrics and web fingerprints of the test
// lake's two formats.
func fingerprints(t *testing.T, s *Server) (metricsFP, webFP string) {
	t.Helper()
	for _, f := range formats(t, s) {
		if strings.Contains(f.Templates[0], "|") {
			metricsFP = f.Fingerprint
		} else {
			webFP = f.Fingerprint
		}
	}
	if metricsFP == "" || webFP == "" {
		t.Fatalf("test lake formats not registered (metrics=%q web=%q)", metricsFP, webFP)
	}
	return metricsFP, webFP
}

// appendLake appends content to one lake file.
func appendLake(t *testing.T, root, rel, content string) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(root, filepath.FromSlash(rel)), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(f, content); err != nil {
		t.Fatal(err)
	}
	f.Close()
}

// TestFormatLocks pins the lock table's semantics: scoped locks of
// different formats coexist, same-format and global locks conflict,
// and nothing ever blocks.
func TestFormatLocks(t *testing.T) {
	var l formatLocks
	if !l.tryLock("a") {
		t.Fatal("fresh table refused a scoped lock")
	}
	if !l.tryLock("b") {
		t.Fatal("different formats must lock concurrently")
	}
	if l.tryLock("a") {
		t.Fatal("same format double-locked")
	}
	if l.tryLock("") {
		t.Fatal("global lock granted over held scoped locks")
	}
	if n := l.active(); n != 2 {
		t.Fatalf("active = %d, want 2", n)
	}
	l.unlock("a")
	l.unlock("b")
	if !l.tryLock("") {
		t.Fatal("global lock refused on an empty table")
	}
	if l.tryLock("c") {
		t.Fatal("scoped lock granted under a global lock")
	}
	if l.tryLock("") {
		t.Fatal("global lock double-locked")
	}
	if n := l.active(); n != 1 {
		t.Fatalf("active under global = %d, want 1", n)
	}
	l.unlock("")
	if n := l.active(); n != 0 {
		t.Fatalf("active after unlock = %d, want 0", n)
	}
}

// TestProfileCacheLRU pins the cache's eviction and keying: capacity
// bounds residency with least-recently-used eviction, generations are
// distinct keys, and a disabled cache (capacity < 0) is nil-safe.
func TestProfileCacheLRU(t *testing.T) {
	tpl := []*template.Node{}
	c := newProfileCache(2)
	k1 := profileKey{fp: "a", gen: 1}
	k2 := profileKey{fp: "b", gen: 1}
	k3 := profileKey{fp: "a", gen: 2} // same format, later generation
	c.put(k1, compileMatchers(tpl))
	c.put(k2, compileMatchers(tpl))
	if c.get(k1) == nil {
		t.Fatal("k1 evicted before capacity reached")
	}
	c.put(k3, compileMatchers(tpl)) // evicts k2 (k1 was just touched)
	if c.get(k2) != nil {
		t.Fatal("LRU eviction kept the least-recently-used entry")
	}
	if c.get(k1) == nil || c.get(k3) == nil {
		t.Fatal("eviction dropped a live entry")
	}
	size, hits, misses := c.stats()
	if size != 2 || hits != 3 || misses != 1 {
		t.Fatalf("stats = (%d, %d, %d), want (2, 3, 1)", size, hits, misses)
	}

	var disabled *profileCache = newProfileCache(-1)
	if disabled != nil {
		t.Fatal("capacity < 0 must disable the cache")
	}
	disabled.put(k1, nil) // nil-safe
	if disabled.get(k1) != nil {
		t.Fatal("disabled cache returned an entry")
	}
	if s, h, m := disabled.stats(); s != 0 || h != 0 || m != 0 {
		t.Fatal("disabled cache reported non-zero stats")
	}
}

// statusOf fetches and parses /v1/status.
func statusOf(t *testing.T, s *Server) statusJSON {
	t.Helper()
	rec := do(t, s, "GET", "/v1/status", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/status: %d %s", rec.Code, rec.Body)
	}
	var sj statusJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &sj); err != nil {
		t.Fatal(err)
	}
	return sj
}

// TestProfileCacheServesExtracts drives the cache through the HTTP
// surface: the first extraction of a format compiles (miss), repeats
// hit, both extract routes share the entry, and a reindex swap bumps
// the generation so the old entry stops being requested.
func TestProfileCacheServesExtracts(t *testing.T) {
	s, root := newServer(t)
	fp, _ := fingerprints(t, s)
	data, err := os.ReadFile(filepath.Join(root, "metrics/m-1.log"))
	if err != nil {
		t.Fatal(err)
	}

	base := statusOf(t, s)
	if base.CacheHits != 0 || base.CacheMisses != 0 {
		t.Fatalf("fresh cache stats: %+v", base)
	}
	if base.Generation != 2 {
		t.Fatalf("generation after initial reindex = %d, want 2", base.Generation)
	}

	if rec := do(t, s, "POST", "/v1/extract?format="+fp, data); rec.Code != http.StatusOK {
		t.Fatalf("extract: %d %s", rec.Code, rec.Body)
	}
	if st := statusOf(t, s); st.CacheMisses != 1 || st.CacheHits != 0 || st.CacheSize != 1 {
		t.Fatalf("after first extract: %+v", st)
	}
	// Second body extract and the lake route both hit the same entry.
	do(t, s, "POST", "/v1/extract?format="+fp, data)
	do(t, s, "GET", "/v1/lake/extract?path=metrics/m-1.log", nil)
	if st := statusOf(t, s); st.CacheMisses != 1 || st.CacheHits != 2 {
		t.Fatalf("after repeats: %+v", st)
	}

	// A reindex publishes a new generation; the same format recompiles
	// once under the new key.
	if rec := do(t, s, "POST", "/v1/reindex", nil); rec.Code != http.StatusOK {
		t.Fatalf("reindex: %d %s", rec.Code, rec.Body)
	}
	do(t, s, "POST", "/v1/extract?format="+fp, data)
	if st := statusOf(t, s); st.Generation != 3 || st.CacheMisses != 2 {
		t.Fatalf("after reindex swap: %+v", st)
	}
}

// TestScopedReindexHTTP drives the per-format reindex over HTTP: an
// unknown fingerprint is 404; a conflicting crawl (same format, or a
// global crawl against a held scope) is 409 busy; a different format
// proceeds while another's lock is held; and a scoped run reports only
// its scope's files, tagged with the format.
func TestScopedReindexHTTP(t *testing.T) {
	s, root := newServer(t)
	metricsFP, webFP := fingerprints(t, s)

	rec := do(t, s, "POST", "/v1/reindex?format=ffffffffffffffff", nil)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown format reindex: %d %s", rec.Code, rec.Body)
	}
	if code := envelope(t, "reindex unknown", rec); code != "not_found" {
		t.Fatalf("unknown format error code %q", code)
	}

	// Hold the metrics lock as a concurrent crawl would.
	if !s.locks.tryLock(metricsFP) {
		t.Fatal("could not take the metrics lock")
	}
	if rec := do(t, s, "POST", "/v1/reindex?format="+metricsFP, nil); rec.Code != http.StatusConflict {
		t.Fatalf("same-format reindex under lock: %d %s", rec.Code, rec.Body)
	} else if code := envelope(t, "reindex conflict", rec); code != "busy" {
		t.Fatalf("conflict error code %q", code)
	}
	if rec := do(t, s, "POST", "/v1/reindex", nil); rec.Code != http.StatusConflict {
		t.Fatalf("global reindex under scoped lock: %d %s", rec.Code, rec.Body)
	}
	// A different format is unaffected by the held lock.
	if rec := do(t, s, "POST", "/v1/reindex?format="+webFP, nil); rec.Code != http.StatusOK {
		t.Fatalf("other-format reindex under lock: %d %s", rec.Code, rec.Body)
	}
	s.locks.unlock(metricsFP)

	// A scoped run crawls exactly the format's claim set and reports it.
	appendLake(t, root, "metrics/m-1.log", "metric|cpu9|99.99|\n")
	appendLake(t, root, "web/r-1.log", "GET /api/v9/item/1 200\n")
	rec = do(t, s, "POST", "/v1/reindex?format="+metricsFP, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("scoped reindex: %d %s", rec.Code, rec.Body)
	}
	var sum reindexJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Format != metricsFP || sum.Files != 2 || sum.Resumed != 1 || sum.Unchanged != 1 {
		t.Fatalf("scoped reindex summary: %+v", sum)
	}

	// The out-of-scope web append is invisible until its own crawl runs.
	qWeb := "/v1/query?q=" + url.QueryEscape("SELECT count(*) FROM "+webFP) + "&output=csv"
	before := do(t, s, "GET", qWeb, nil).Body.String()
	rec = do(t, s, "POST", "/v1/reindex?format="+webFP, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("web reindex: %d %s", rec.Code, rec.Body)
	}
	after := do(t, s, "GET", qWeb, nil).Body.String()
	if before == after {
		t.Fatalf("web crawl did not pick up the appended record: %q", after)
	}
}

// TestReindexContention is the serving-path torn-read check: while a
// per-format reindex crawls and commits, concurrent /v1/query,
// /formats and /lake/extract requests must each see a consistent
// snapshot — byte-identical to the state before or after the swap,
// never a mix. The self-join query is the sharpest probe: a torn pair
// of scans would produce a count that matches neither side.
func TestReindexContention(t *testing.T) {
	s, root := newServer(t)
	metricsFP, _ := fingerprints(t, s)

	groupQ := "/v1/query?q=" + url.QueryEscape(
		"SELECT f1, count(*) FROM "+metricsFP+" GROUP BY f1 ORDER BY count(*) DESC, f1") + "&output=csv"
	joinQ := "/v1/query?q=" + url.QueryEscape(
		"SELECT count(*) FROM "+metricsFP+" AS a, "+metricsFP+" AS b WHERE a.f1 = b.f1 AND a.f2 = '42.00'") + "&output=csv"
	targets := []string{groupQ, joinQ, "/v1/formats", "/v1/lake/extract?path=web/r-1.log&output=csv"}

	before := make([]string, len(targets))
	for i, target := range targets {
		rec := do(t, s, "GET", target, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s before: %d %s", target, rec.Code, rec.Body)
		}
		before[i] = rec.Body.String()
	}

	// Grow the scoped format so the reindex has real deltas to commit.
	appendLake(t, root, "metrics/m-1.log", "metric|cpu6|42.00|\nmetric|cpu7|43.00|\n")
	appendLake(t, root, "metrics/m-2.log", "metric|cpu6|44.00|\nmetric|cpu7|45.00|\n")

	type sample struct {
		target int
		code   int
		body   string
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		samples []sample
		done    = make(chan struct{})
	)
	for i := range targets {
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					rec := do(t, s, "GET", targets[i], nil)
					mu.Lock()
					samples = append(samples, sample{target: i, code: rec.Code, body: rec.Body.String()})
					mu.Unlock()
				}
			}(i)
		}
	}

	rec := do(t, s, "POST", "/v1/reindex?format="+metricsFP, nil)
	close(done)
	wg.Wait()
	if rec.Code != http.StatusOK {
		t.Fatalf("scoped reindex under load: %d %s", rec.Code, rec.Body)
	}

	after := make([]string, len(targets))
	for i, target := range targets {
		rec := do(t, s, "GET", target, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s after: %d %s", target, rec.Code, rec.Body)
		}
		after[i] = rec.Body.String()
	}
	// The query and registry probes must be able to tell the states
	// apart, or the torn check below proves nothing. (The /formats body
	// changes because claim counters accumulate across crawls.)
	for _, i := range []int{0, 1, 2} {
		if before[i] == after[i] {
			t.Fatalf("%s cannot distinguish the snapshots", targets[i])
		}
	}
	// The out-of-scope extract is invariant across this swap: neither
	// the web file nor its profile changed.
	if before[3] != after[3] {
		t.Fatalf("%s changed across a scoped metrics reindex", targets[3])
	}

	if len(samples) == 0 {
		t.Fatal("no concurrent samples collected")
	}
	for _, sm := range samples {
		if sm.code != http.StatusOK {
			t.Fatalf("%s during reindex: status %d (%s)", targets[sm.target], sm.code, sm.body)
		}
		if sm.body != before[sm.target] && sm.body != after[sm.target] {
			t.Fatalf("%s during reindex returned a torn snapshot:\ngot: %s\nbefore: %s\nafter: %s",
				targets[sm.target], sm.body, before[sm.target], after[sm.target])
		}
	}
}

// TestInFlightBound: with MaxInFlight=1, a second request arriving
// while one is served is shed with 429 + Retry-After — but the
// liveness and status probes stay exempt, so a saturated daemon is
// still observable. Draining the held request frees the slot.
func TestInFlightBound(t *testing.T) {
	s, _ := newServerCfg(t, func(c *Config) { c.MaxInFlight = 1 })
	fp, _ := fingerprints(t, s)

	// Park one request in a handler: an /extract whose body never
	// arrives until we say so.
	pr, pw := io.Pipe()
	held := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		req := httptest.NewRequest("POST", "/v1/extract?format="+fp, pr)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		held <- rec
	}()
	for deadline := time.Now().Add(5 * time.Second); s.limits.inFlight.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("held request never entered the handler")
		}
		time.Sleep(time.Millisecond)
	}

	rec := do(t, s, "GET", "/v1/formats", nil)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("request under saturation: %d %s", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After")
	}
	if code := envelope(t, "saturated", rec); code != "saturated" {
		t.Fatalf("saturation error code %q", code)
	}
	if rec := do(t, s, "GET", "/healthz", nil); rec.Code != http.StatusOK {
		t.Fatalf("/healthz under saturation: %d", rec.Code)
	}
	st := statusOf(t, s) // also proves /v1/status is exempt
	if st.InFlight != 1 || st.Shed == 0 {
		t.Fatalf("status under saturation: %+v", st)
	}

	io.WriteString(pw, "metric|cpu1|1.00|\n")
	pw.Close()
	if rec := <-held; rec.Code != http.StatusOK {
		t.Fatalf("held extract: %d %s", rec.Code, rec.Body)
	}
	if rec := do(t, s, "GET", "/v1/formats", nil); rec.Code != http.StatusOK {
		t.Fatalf("request after drain: %d %s", rec.Code, rec.Body)
	}
}

// TestBodyCap: a POST /extract body over MaxBodyBytes fails with 413
// and the too_large envelope instead of consuming unbounded memory.
func TestBodyCap(t *testing.T) {
	s, _ := newServerCfg(t, func(c *Config) { c.MaxBodyBytes = 1 << 10 })
	fp, _ := fingerprints(t, s)
	big := bytes.Repeat([]byte("metric|cpu1|1.00|\n"), 1024) // 18 KiB
	rec := do(t, s, "POST", "/v1/extract?format="+fp, big)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d %s", rec.Code, rec.Body)
	}
	if code := envelope(t, "too large", rec); code != "too_large" {
		t.Fatalf("oversize error code %q", code)
	}
	// A body under the cap still extracts.
	small := bytes.Repeat([]byte("metric|cpu1|1.00|\n"), 8)
	if rec := do(t, s, "POST", "/v1/extract?format="+fp, small); rec.Code != http.StatusOK {
		t.Fatalf("small body: %d %s", rec.Code, rec.Body)
	}
}

// slowReader delivers its payload only after a delay — a client whose
// upload stalls past the request deadline.
type slowReader struct {
	delay time.Duration
	data  []byte
	read  bool
}

func (r *slowReader) Read(p []byte) (int, error) {
	if r.read {
		return 0, io.EOF
	}
	time.Sleep(r.delay)
	r.read = true
	return copy(p, r.data), nil
}

// TestRequestDeadline: a request running past RequestTimeout fails
// with 504 deadline_exceeded.
func TestRequestDeadline(t *testing.T) {
	s, _ := newServerCfg(t, func(c *Config) { c.RequestTimeout = 30 * time.Millisecond })
	fp, _ := fingerprints(t, s)
	req := httptest.NewRequest("POST", "/v1/extract?format="+fp,
		&slowReader{delay: 150 * time.Millisecond, data: []byte("metric|cpu1|1.00|\n")})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("stalled request: %d %s", rec.Code, rec.Body)
	}
	if code := envelope(t, "deadline", rec); code != "deadline_exceeded" {
		t.Fatalf("deadline error code %q", code)
	}
	// A prompt request under the same deadline still succeeds.
	if rec := do(t, s, "POST", "/v1/extract?format="+fp, []byte("metric|cpu1|1.00|\n")); rec.Code != http.StatusOK {
		t.Fatalf("prompt request: %d %s", rec.Code, rec.Body)
	}
}
