package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
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

	"datamaran/internal/lake"
	"datamaran/internal/lake/laketest"
	"datamaran/internal/parser"
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

// TestFormatCompiledOnce: a fingerprint's compiled matcher set is one
// object, built when the format is registered — by LoadRegistry for the
// formats on disk, by the crawl for one it discovers, before it publishes.
// A registry clone, the publish of a global and of a scoped crawl, and the
// entries the extract routes resolve (by format=, by checkpoint, by
// sample) all hand out that same set across reindexes; nothing recompiles
// a format.
func TestFormatCompiledOnce(t *testing.T) {
	s, root := newServer(t)
	metricsFP, webFP := fingerprints(t, s)
	data, err := os.ReadFile(filepath.Join(root, "metrics/m-1.log"))
	if err != nil {
		t.Fatal(err)
	}
	same := func(a, b []*parser.Matcher) bool { return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0] }
	compiled := func(label string, e *lake.Entry) []*parser.Matcher {
		t.Helper()
		ms := e.Matchers()
		if len(ms) != len(e.Templates) {
			t.Fatalf("%s: %s has %d matchers for %d templates", label, e.Fingerprint, len(ms), len(e.Templates))
		}
		for i, m := range ms {
			if m == nil || m.Template() != e.Templates[i] {
				t.Fatalf("%s: %s matcher %d is not compiled from template %d", label, e.Fingerprint, i, i)
			}
		}
		return ms
	}

	reg, err := lake.LoadRegistry(s.cfg.RegistryPath)
	if err != nil {
		t.Fatal(err)
	}
	clone := reg.Clone()
	for _, e := range reg.Entries() {
		ms := compiled("LoadRegistry", e)
		if !same(reg.Lookup(e.Fingerprint).Matchers(), ms) || !same(clone.Lookup(e.Fingerprint).Matchers(), ms) {
			t.Fatalf("%s: a lookup or a clone hands out another compiled set", e.Fingerprint)
		}
	}

	// The daemon's own sets, as its state was opened and first crawled.
	want := map[string][]*parser.Matcher{}
	for _, e := range s.st.Snapshot().Registry.Entries() {
		want[e.Fingerprint] = compiled("initial", e)
	}
	// check extracts through both routes and all three ways the lake route
	// finds a format, and holds the entries they resolve to want.
	check := func(label string, late int) {
		t.Helper()
		// A file no crawl has seen yet: the lake route classifies its sample.
		lateRel := fmt.Sprintf("metrics/late-%d.log", late)
		if err := os.WriteFile(filepath.Join(root, lateRel), data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, req := range []struct{ method, target string }{
			{"POST", "/v1/extract?format=" + metricsFP},
			{"GET", "/v1/lake/extract?path=web/r-1.log&format=" + webFP},
			{"GET", "/v1/lake/extract?path=metrics/m-1.log"},
			{"GET", "/v1/lake/extract?path=" + lateRel},
		} {
			if rec := do(t, s, req.method, req.target, data); rec.Code != http.StatusOK {
				t.Fatalf("%s: %s %s: %d %s", label, req.method, req.target, rec.Code, rec.Body)
			}
		}
		snap := s.st.Snapshot()
		cp := snap.Checkpoints.Get("metrics/m-1.log")
		if cp == nil {
			t.Fatalf("%s: metrics/m-1.log has no checkpoint", label)
		}
		sample, _, err := lake.ReadSample(filepath.Join(root, lateRel), lake.DefaultSampleBytes)
		if err != nil {
			t.Fatal(err)
		}
		for route, e := range map[string]*lake.Entry{
			"format=":    snap.Registry.Lookup(metricsFP),
			"checkpoint": snap.Registry.Lookup(cp.Fingerprint),
			"sample":     lake.MatchSample(sample, snap.Registry, lake.DefaultMatchThreshold),
		} {
			if e == nil || !same(e.Matchers(), want[metricsFP]) {
				t.Fatalf("%s: the %s route resolves to a different compiled set", label, route)
			}
		}
		for _, e := range snap.Registry.Entries() {
			if ms, ok := want[e.Fingerprint]; ok && !same(e.Matchers(), ms) {
				t.Fatalf("%s: %s was compiled again", label, e.Fingerprint)
			}
		}
	}
	check("initial", 0)

	// A global crawl that registers a format: compiled in the crawl, before
	// the publish, and never again.
	jobs := laketest.JobsLog(6, 30, 90000, 6, []string{"DONE", "FAILED"})
	if err := os.MkdirAll(filepath.Join(root, "jobs"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "jobs/j-1.log"), []byte(jobs), 0o644); err != nil {
		t.Fatal(err)
	}
	if rec := do(t, s, "POST", "/v1/reindex", nil); rec.Code != http.StatusOK {
		t.Fatalf("global reindex: %d %s", rec.Code, rec.Body)
	}
	for _, e := range s.st.Snapshot().Registry.Entries() {
		if _, ok := want[e.Fingerprint]; !ok {
			want[e.Fingerprint] = compiled("registered mid-crawl", e)
		}
	}
	if len(want) != 3 {
		t.Fatalf("%d formats after the jobs crawl, want 3", len(want))
	}
	check("after a global reindex", 1)

	appendLake(t, root, "metrics/m-1.log", "metric|cpu9|99.99|\n")
	if rec := do(t, s, "POST", "/v1/reindex?format="+metricsFP, nil); rec.Code != http.StatusOK {
		t.Fatalf("scoped reindex: %d %s", rec.Code, rec.Body)
	}
	check("after a scoped reindex", 2)
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
