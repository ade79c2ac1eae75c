package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"datamaran/internal/lake/laketest"
)

// The golden runner: the CLI binary, built once, drives `index`, `query`
// and `serve` over the committed fixture lake, and every output is held
// byte for byte to the files under testdata/lake_golden.

var update = flag.Bool("update", false, "rewrite the goldens under testdata/lake_golden instead of checking them")

const (
	lakeDir    = "../../testdata/lake"
	goldenRoot = "../../testdata/lake_golden"
	// jobsFormat is the fingerprint the fixture lake's job stanzas get.
	jobsFormat = "42f99400cddeb649"
)

// binary is the path of the CLI TestMain builds.
var binary string

func TestMain(m *testing.M) {
	flag.Parse()
	dir, err := os.MkdirTemp("", "datamaran-cli")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binary = filepath.Join(dir, "datamaran")
	// go test puts its own toolchain first on PATH, so this "go" is the
	// one building the test.
	code := 1
	if out, err := exec.Command("go", "build", "-o", binary, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// run executes the CLI and returns its stdout; a failed run fails the
// test with the CLI's stderr.
func run(t *testing.T, args ...string) []byte {
	t.Helper()
	var stderr bytes.Buffer
	cmd := exec.Command(binary, args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("datamaran %s: %v\n%s", strings.Join(args, " "), err, &stderr)
	}
	return out
}

func read(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// golden holds got to the golden file rel. With -update, a call that
// owns rel rewrites it instead; a call that only reads a file another
// check owns still compares.
func golden(t *testing.T, rel string, got []byte, owns bool) {
	t.Helper()
	path := filepath.Join(goldenRoot, rel)
	if *update && owns {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := read(t, path)
	if bytes.Equal(got, want) {
		return
	}
	// The two differ, so their lines part before either end marker.
	g := append(strings.Split(string(got), "\n"), "(end of file)")
	w := append(strings.Split(string(want), "\n"), "(end of file)")
	i := 0
	for g[i] == w[i] {
		i++
	}
	t.Errorf("%s differs from its golden at line %d:\n got: %q\nwant: %q", rel, i+1, g[i], w[i])
}

// goldenDir holds the files of directory dir to the golden directory
// rel: the same names, each byte-identical. With -update, a call that
// owns rel replaces the golden directory with dir's files.
func goldenDir(t *testing.T, rel, dir string, owns bool) {
	t.Helper()
	path := filepath.Join(goldenRoot, rel)
	if *update && owns {
		if err := os.RemoveAll(path); err != nil {
			t.Fatal(err)
		}
		if err := os.CopyFS(path, os.DirFS(dir)); err != nil {
			t.Fatal(err)
		}
		return
	}
	names := func(dir string) (out []string) {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			out = append(out, e.Name())
		}
		return out
	}
	got, want := names(dir), names(path)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: wrote %v, golden %v", rel, got, want)
	}
	for _, name := range got {
		golden(t, filepath.Join(rel, name), read(t, filepath.Join(dir, name)), false)
	}
}

// TestIndexGoldens: `datamaran index` over the fixture lake reproduces
// the committed report, registry and per-file CSVs at one worker and at
// eight. A fresh `index -incremental` pass reproduces the registry and
// the CSVs too; its report is the incremental form (resume annotations)
// and is not compared. A second `-incremental` pass over the same state,
// where every file is unchanged and nothing is extracted, still writes
// every file's whole tables.
func TestIndexGoldens(t *testing.T) {
	for _, workers := range []string{"1", "8"} {
		for _, incremental := range []bool{false, true} {
			dir := t.TempDir()
			args := []string{"index", "-q", "-workers", workers,
				"-registry", filepath.Join(dir, "registry.json"), "-o", filepath.Join(dir, "csv")}
			if incremental {
				args = append(args, "-incremental")
			}
			report := run(t, append(args, lakeDir)...)
			owns := workers == "1" && !incremental
			if !incremental {
				golden(t, "report.txt", report, owns)
			}
			golden(t, "registry.json", read(t, filepath.Join(dir, "registry.json")), owns)
			goldenDir(t, "csv", filepath.Join(dir, "csv"), owns)
			if incremental {
				run(t, "index", "-q", "-workers", workers, "-incremental",
					"-registry", filepath.Join(dir, "registry.json"), "-o", filepath.Join(dir, "csv2"), lakeDir)
				goldenDir(t, "csv", filepath.Join(dir, "csv2"), false)
			}
		}
	}
}

// TestQueryGoldens: the query suite (laketest.Queries) and the plans of
// laketest.Explains, run by `datamaran query` over a store that
// `datamaran index` builds fresh at one worker and at eight, reproduce
// the committed results: neither the store nor a result may depend on
// crawl parallelism.
func TestQueryGoldens(t *testing.T) {
	for _, workers := range []string{"1", "8"} {
		dir := t.TempDir()
		store, out := filepath.Join(dir, "store"), filepath.Join(dir, "query")
		run(t, "index", "-q", "-workers", workers,
			"-registry", filepath.Join(dir, "registry.json"), "-store", store, lakeDir)
		if err := os.Mkdir(out, 0o755); err != nil {
			t.Fatal(err)
		}
		for file, q := range laketest.Queries {
			run(t, "query", "-store", store, "-output", strings.TrimPrefix(filepath.Ext(file), "."),
				"-o", filepath.Join(out, file), q)
		}
		for file, q := range laketest.Explains {
			run(t, "query", "-store", store, "-output", "csv", "-explain", "plan",
				"-o", filepath.Join(out, file), q)
		}
		goldenDir(t, "query", out, workers == "1")
	}
}

// startDaemon starts `datamaran serve` on a free port, with its
// registry, checkpoints and store under state and the further args, and
// returns its base URL once the daemon prints where it listens. The
// daemon is killed when the test ends, and its stderr logged if the test
// failed.
func startDaemon(t *testing.T, state string, args ...string) string {
	t.Helper()
	stderr, err := os.Create(filepath.Join(t.TempDir(), "serve.err"))
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(binary, append([]string{"serve", "-addr", "127.0.0.1:0", "-workers", "1",
		"-registry", filepath.Join(state, "registry.json"), "-checkpoints", filepath.Join(state, "checkpoints.json"),
		"-store", filepath.Join(state, "store")}, args...)...)
	cmd.Stderr = stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
		stderr.Close()
		if t.Failed() {
			t.Logf("daemon stderr:\n%s", read(t, stderr.Name()))
		}
	})
	line, err := bufio.NewReader(stdout).ReadString('\n')
	base, ok := strings.CutPrefix(strings.TrimSpace(line), "listening on ")
	if !ok {
		t.Fatalf("daemon did not start listening: %q, %v", line, err)
	}
	return base
}

// do sends one request and returns the response body, failing the test
// unless the status is want.
func do(t *testing.T, want int, method, url string, body io.Reader) []byte {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != want {
		t.Fatalf("%s %s: %s %s (%v), want %d", method, url, resp.Status, got, err, want)
	}
	return got
}

// queryURL is the /v1/query request for q in CSV, with extra parameters
// given as name, value pairs.
func queryURL(base, q string, extra ...string) string {
	v := url.Values{"q": {q}, "output": {"csv"}}
	for i := 0; i+1 < len(extra); i += 2 {
		v.Set(extra[i], extra[i+1])
	}
	return base + "/v1/query?" + v.Encode()
}

func requireContains(t *testing.T, what string, got []byte, want ...string) {
	t.Helper()
	for _, w := range want {
		if !bytes.Contains(got, []byte(w)) {
			t.Fatalf("%s lacks %q:\n%s", what, w, got)
		}
	}
}

// TestServeGoldens: a daemon started on fresh state crawls the fixture
// lake once. Its registry listing and an all-unchanged reindex are serve
// goldens; a lake file extracted by path or uploaded as a body is the
// indexer's CSV; served queries and a served plan are the query goldens.
// EXPLAIN ANALYZE reports per-operator stats, /metrics its families and
// non-zero counters, /v1/status the store's tables; a scoped reindex
// tags its summary and an unknown format is 404; a failing route
// answers with the error envelope.
func TestServeGoldens(t *testing.T) {
	base := startDaemon(t, t.TempDir(), "-reindex", lakeDir)
	ok := http.StatusOK
	do(t, ok, "GET", base+"/healthz", nil)
	golden(t, "serve/formats.json", do(t, ok, "GET", base+"/v1/formats", nil), true)
	golden(t, "csv/web__requests-1.log.type0.csv",
		do(t, ok, "GET", base+"/v1/lake/extract?path=web/requests-1.log&output=csv&table=type0", nil), false)
	job := bytes.NewReader(read(t, filepath.Join(lakeDir, "jobs", "job-1.log")))
	golden(t, "csv/jobs__job-1.log.type0.csv",
		do(t, ok, "POST", base+"/v1/extract?format="+jobsFormat+"&output=csv&table=type0", job), false)
	golden(t, "query/groupby.csv", do(t, ok, "GET", queryURL(base, laketest.Queries["groupby.csv"]), nil), false)
	golden(t, "query/topk.csv", do(t, ok, "GET", queryURL(base, laketest.Queries["topk.csv"]), nil), false)
	golden(t, "query/explain_topk.csv",
		do(t, ok, "GET", queryURL(base, laketest.Explains["explain_topk.csv"], "explain", "plan"), nil), false)
	requireContains(t, "explain=analyze",
		do(t, ok, "GET", queryURL(base, laketest.Queries["range.ndjson"], "explain", "analyze"), nil),
		"total: rows=", "pruned=")

	metrics := do(t, ok, "GET", base+"/metrics", nil)
	for _, family := range []string{"datamaran_http_requests_total", "datamaran_http_request_seconds",
		"datamaran_queries_total", "datamaran_query_blocks_decoded_total",
		"datamaran_reindex_total", "datamaran_crawl_stage_seconds", "datamaran_crawl_files_total",
		"datamaran_crawl_discovery_seconds"} {
		if !regexp.MustCompile(`(?m)^# TYPE ` + family + ` `).Match(metrics) {
			t.Errorf("/metrics lacks family %s", family)
		}
	}
	// The startup crawl and the served queries have counted.
	for _, counter := range []string{"datamaran_reindex_total", "datamaran_queries_total"} {
		if !regexp.MustCompile(`(?m)^` + counter + ` [1-9]`).Match(metrics) {
			t.Errorf("/metrics counter %s is still zero", counter)
		}
	}
	requireContains(t, "/v1/status", do(t, ok, "GET", base+"/v1/status", nil), `"name": "570eebfb5b600688"`)

	// The second crawl sees nothing new: every file is unchanged.
	golden(t, "serve/reindex.json", do(t, ok, "POST", base+"/v1/reindex", nil), true)
	requireContains(t, "scoped reindex",
		do(t, ok, "POST", base+"/v1/reindex?format="+jobsFormat, nil), `"format": "`+jobsFormat+`"`)
	do(t, http.StatusNotFound, "POST", base+"/v1/reindex?format=ffffffffffffffff", nil)
	requireContains(t, "error envelope", do(t, http.StatusBadRequest, "GET", base+"/v1/lake/extract?path=../escape", nil),
		`"error"`, `"code":"bad_request"`)
}

// TestServeLimits: a daemon with one in-flight slot and a three-second
// deadline, over real HTTP. While an upload the test stalls holds the
// slot, the next request is shed with 429 + Retry-After and the probes
// stay exempt; the stalled upload is answered 504 deadline_exceeded, and
// the slot is free again.
func TestServeLimits(t *testing.T) {
	state := t.TempDir()
	if err := os.WriteFile(filepath.Join(state, "registry.json"), read(t, filepath.Join(goldenRoot, "registry.json")), 0o644); err != nil {
		t.Fatal(err)
	}
	base := startDaemon(t, state, "-max-inflight", "1", "-request-timeout", "3s", lakeDir)

	// The upload sends a few bytes, then waits on a pipe the test closes
	// only once the daemon has answered it.
	stall, release := io.Pipe()
	defer release.Close()
	type answer struct {
		resp *http.Response
		body []byte
	}
	held := make(chan answer, 1)
	go func() {
		var a answer
		resp, err := http.Post(base+"/v1/extract?format="+jobsFormat, "text/plain",
			io.MultiReader(strings.NewReader("JOB "), stall))
		if err == nil {
			a.resp = resp
			a.body, _ = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		held <- a
	}()
	for !bytes.Contains(do(t, http.StatusOK, "GET", base+"/v1/status", nil), []byte(`"inFlight": 1`)) {
		select {
		case a := <-held:
			t.Fatalf("held request was answered before it occupied the in-flight slot: %v %s", a.resp, a.body)
		default:
		}
	}

	resp, err := http.Get(base + "/v1/formats")
	if err != nil {
		t.Fatal(err)
	}
	shed, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("request under saturation: %s, Retry-After %q, want 429 with Retry-After", resp.Status, resp.Header.Get("Retry-After"))
	}
	requireContains(t, "429 body", shed, `"code":"saturated"`)
	do(t, http.StatusOK, "GET", base+"/healthz", nil)
	do(t, http.StatusOK, "GET", base+"/v1/status", nil)

	a := <-held
	if a.resp == nil || a.resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("stalled request: %v %s, want 504", a.resp, a.body)
	}
	requireContains(t, "504 body", a.body, `"code":"deadline_exceeded"`)
	do(t, http.StatusOK, "GET", base+"/v1/formats", nil)
}
