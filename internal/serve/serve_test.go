package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"datamaran"
	"datamaran/internal/follow"
	"datamaran/internal/lake"
	"datamaran/internal/lake/laketest"
	"datamaran/internal/pipeline"
	"datamaran/internal/query"
	"datamaran/internal/template"
)

// buildLake writes a small two-format lake plus noise.
func buildLake(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		p := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for f := 1; f <= 2; f++ {
		write(fmt.Sprintf("metrics/m-%d.log", f), laketest.MetricsLog(int64(f), 150))
	}
	for f := 1; f <= 2; f++ {
		write(fmt.Sprintf("web/r-%d.log", f),
			laketest.RequestsLog(int64(10+f), 150, []string{"GET", "PUT"}, 9999, []int{200, 404}))
	}
	write("znotes.txt", laketest.Prose("metrics",
		"metrics/ holds the gauge dumps, one reading per line",
		"web/ is the edge tier; latency units are milliseconds"))
	return root
}

// newServer builds a Server over a fresh lake and runs the initial
// reindex through the HTTP surface.
func newServer(t *testing.T) (*Server, string) {
	t.Helper()
	root := buildLake(t)
	state := t.TempDir()
	s, err := New(Config{
		Root:           root,
		RegistryPath:   filepath.Join(state, "registry.json"),
		CheckpointPath: filepath.Join(state, "checkpoints.json"),
		StorePath:      filepath.Join(state, "store"),
		Workers:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := do(t, s, "POST", "/v1/reindex", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("initial reindex: %d %s", rec.Code, rec.Body)
	}
	return s, root
}

// do runs one request through the handler.
func do(t *testing.T, s *Server, method, target string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// formats fetches and parses /formats.
func formats(t *testing.T, s *Server) []formatJSON {
	t.Helper()
	rec := do(t, s, "GET", "/v1/formats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/formats: %d %s", rec.Code, rec.Body)
	}
	var out struct {
		Formats []formatJSON `json:"formats"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	return out.Formats
}

// TestReindexAndFormats drives the daemon lifecycle: crawl, list,
// no-op recrawl (all unchanged), state persisted to disk.
func TestReindexAndFormats(t *testing.T) {
	s, _ := newServer(t)
	fs := formats(t, s)
	if len(fs) != 2 {
		t.Fatalf("formats = %d, want 2", len(fs))
	}
	for _, f := range fs {
		if f.Files != 2 || len(f.Templates) == 0 || len(f.Fingerprint) != 16 {
			t.Fatalf("bad format entry: %+v", f)
		}
	}

	rec := do(t, s, "POST", "/v1/reindex", nil)
	var sum reindexJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Files != 5 || sum.Unchanged != 5 || sum.Resumed != 0 || sum.Failed != 0 {
		t.Fatalf("no-op reindex summary: %+v", sum)
	}

	// Both stores must exist on disk after a reindex.
	for _, p := range []string{s.cfg.RegistryPath, s.cfg.CheckpointPath} {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("state not persisted: %v", err)
		}
	}
}

// TestReindexPersistsBeforeCompacting: the reindex commits the store,
// publishes the snapshot and only then compacts. A compaction that
// fails must still find the checkpoints on disk — a daemon restarted
// from older ones would resume behind its own store and append rows it
// already holds — and the reindex still reports the failure.
func TestReindexPersistsBeforeCompacting(t *testing.T) {
	s, root := newServer(t)
	// Two files per table need no compaction; a third one does. Damage a
	// segment the next crawl has no reason to read: its first block's row
	// count becomes the end-of-blocks mark, which only a header walk sees.
	segs, err := filepath.Glob(filepath.Join(s.cfg.StorePath, "*.seg"))
	if err != nil || len(segs) != 4 {
		t.Fatalf("want four per-path segments after the first reindex, have %v (%v)", segs, err)
	}
	for _, seg := range segs {
		raw, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		raw[len("dmseg2\n")] = 0
		if err := os.WriteFile(seg, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	p := filepath.Join(root, "metrics", "m-3.log")
	if err := os.WriteFile(p, []byte(laketest.MetricsLog(3, 150)), 0o644); err != nil {
		t.Fatal(err)
	}
	if rec := do(t, s, "POST", "/v1/reindex", nil); rec.Code != http.StatusInternalServerError {
		t.Fatalf("reindex over damaged segments: %d %s, want the compaction's failure", rec.Code, rec.Body)
	}
	cps, err := follow.LoadStore(s.cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	if cps.Get("metrics/m-3.log") == nil {
		t.Fatal("the store committed metrics/m-3.log but its checkpoint is not on disk")
	}
}

// TestServedExtractionMatchesPublicAPI is the served-vs-CLI oracle: the
// profile fetched from /formats/{fp} must load as a datamaran.Profile,
// and the served CSV and NDJSON of a lake file must agree byte-for-byte
// (CSV) and record-for-record (NDJSON) with the public API applying
// that same profile.
func TestServedExtractionMatchesPublicAPI(t *testing.T) {
	s, root := newServer(t)
	var metricsFP string
	for _, f := range formats(t, s) {
		if strings.Contains(f.Templates[0], "|") {
			metricsFP = f.Fingerprint
		}
	}
	if metricsFP == "" {
		t.Fatal("metrics format not registered")
	}

	rec := do(t, s, "GET", "/v1/formats/"+metricsFP, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/formats/{fp}: %d %s", rec.Code, rec.Body)
	}
	var p datamaran.Profile
	if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
		t.Fatalf("served profile does not load as datamaran.Profile: %v", err)
	}
	if p.Fingerprint() != metricsFP {
		t.Fatalf("served profile fingerprint %s, want %s", p.Fingerprint(), metricsFP)
	}

	data, err := os.ReadFile(filepath.Join(root, "metrics/m-1.log"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := datamaran.ExtractWithProfile(data, &p)
	if err != nil {
		t.Fatal(err)
	}
	var wantCSV bytes.Buffer
	if err := want.TablesWith(datamaran.TablesOptions{})[0].WriteCSV(&wantCSV); err != nil {
		t.Fatal(err)
	}

	// CSV via uploaded body and via lake path must both match the
	// public API bytes.
	for _, target := range []string{
		"/v1/extract?format=" + metricsFP + "&output=csv&table=type0",
		"/v1/lake/extract?path=metrics/m-1.log&output=csv&table=type0",
	} {
		method, body := "GET", []byte(nil)
		if strings.HasPrefix(target, "/v1/extract") {
			method, body = "POST", data
		}
		rec := do(t, s, method, target, body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", target, rec.Code, rec.Body)
		}
		if !bytes.Equal(rec.Body.Bytes(), wantCSV.Bytes()) {
			t.Fatalf("%s: served CSV differs from public API CSV", target)
		}
	}

	// NDJSON record stream must carry the same records.
	rec = do(t, s, "POST", "/v1/extract?format="+metricsFP+"&output=ndjson", data)
	if rec.Code != http.StatusOK {
		t.Fatalf("ndjson: %d %s", rec.Code, rec.Body)
	}
	lines := strings.Split(strings.TrimSuffix(rec.Body.String(), "\n"), "\n")
	if len(lines) != len(want.Records) {
		t.Fatalf("ndjson records = %d, want %d", len(lines), len(want.Records))
	}
	for i, line := range lines {
		var rj recordJSON
		if err := json.Unmarshal([]byte(line), &rj); err != nil {
			t.Fatalf("ndjson line %d: %v", i, err)
		}
		w := want.Records[i]
		if rj.StartLine != w.StartLine || rj.EndLine != w.EndLine || len(rj.Fields) != len(w.Fields) {
			t.Fatalf("ndjson record %d = %+v, want %+v", i, rj, w)
		}
		for j, f := range rj.Fields {
			if f.Value != w.Fields[j].Value || f.Start != w.Fields[j].Start {
				t.Fatalf("ndjson record %d field %d = %+v, want %+v", i, j, f, w.Fields[j])
			}
		}
	}
}

// envelope asserts an error response carries the v1 JSON envelope and
// returns its code.
func envelope(t *testing.T, target string, rec *httptest.ResponseRecorder) string {
	t.Helper()
	var ej struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &ej); err != nil {
		t.Errorf("%s: error body is not the JSON envelope: %v (%s)", target, err, rec.Body)
		return ""
	}
	if ej.Error.Code == "" || ej.Error.Message == "" {
		t.Errorf("%s: incomplete error envelope: %s", target, rec.Body)
	}
	return ej.Error.Code
}

// TestLakeExtractGuards covers path traversal, hidden entries, missing
// files, unknown formats and malformed queries, and asserts every
// failure body is the JSON error envelope.
func TestLakeExtractGuards(t *testing.T) {
	s, _ := newServer(t)
	cases := map[string]int{
		"/v1/lake/extract?path=../secret":                               http.StatusBadRequest,
		"/v1/lake/extract?path=/etc/passwd":                             http.StatusBadRequest,
		"/v1/lake/extract?path=.hidden/x.log":                           http.StatusBadRequest,
		"/v1/lake/extract?path=":                                        http.StatusBadRequest,
		"/v1/lake/extract?path=metrics/nope.log":                        http.StatusNotFound,
		"/v1/lake/extract?path=znotes.txt":                              http.StatusUnprocessableEntity,
		"/v1/extract?format=0123456789abcdef":                           http.StatusNotFound,
		"/v1/formats/ffffffffffffffff":                                  http.StatusNotFound,
		"/v1/lake/extract?path=metrics/m-1.log&format=ffffffffffffffff": http.StatusNotFound,
		"/v1/query":               http.StatusBadRequest,
		"/v1/query?q=not+a+query": http.StatusBadRequest,
		"/v1/query?q=" + url.QueryEscape("SELECT * FROM nope"):              http.StatusBadRequest,
		"/v1/query?q=" + url.QueryEscape("SELECT * FROM t") + "&output=xml": http.StatusBadRequest,
	}
	codes := map[int]string{
		http.StatusBadRequest:          "bad_request",
		http.StatusNotFound:            "not_found",
		http.StatusUnprocessableEntity: "unclaimed",
	}
	for target, want := range cases {
		method := "GET"
		var body []byte
		if strings.HasPrefix(target, "/v1/extract") {
			method, body = "POST", []byte("x\n")
		}
		rec := do(t, s, method, target, body)
		if rec.Code != want {
			t.Errorf("%s: status %d, want %d", target, rec.Code, want)
			continue
		}
		if code := envelope(t, target, rec); code != codes[want] {
			t.Errorf("%s: error code %q, want %q", target, code, codes[want])
		}
	}
}

// TestServedQueryMatchesEngine: /v1/query output (both forms) is
// byte-identical to the in-process engine reading the same store — the
// served surface adds transport, never bytes.
func TestServedQueryMatchesEngine(t *testing.T) {
	s, _ := newServer(t)
	var metricsFP string
	for _, f := range formats(t, s) {
		if strings.Contains(f.Templates[0], "|") {
			metricsFP = f.Fingerprint
		}
	}
	qtext := "SELECT f1, count(*) FROM " + metricsFP + " GROUP BY f1 ORDER BY count(*) DESC, f1 LIMIT 5"

	store, err := lake.OpenSegmentStore(s.cfg.StorePath)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]*bytes.Buffer{"ndjson": {}, "csv": {}}
	for output, buf := range want {
		q, err := query.Parse(qtext)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := query.Run(context.Background(), query.StoreCatalog(store), q)
		if err != nil {
			t.Fatal(err)
		}
		if output == "csv" {
			err = query.WriteCSV(buf, rows, nil)
		} else {
			err = query.WriteNDJSON(buf, rows, nil)
		}
		rows.Close()
		if err != nil {
			t.Fatal(err)
		}
	}

	for output, buf := range want {
		rec := do(t, s, "GET", "/v1/query?q="+url.QueryEscape(qtext)+"&output="+output, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("/v1/query (%s): %d %s", output, rec.Code, rec.Body)
		}
		if buf.Len() == 0 {
			t.Fatalf("engine produced no %s output", output)
		}
		if !bytes.Equal(rec.Body.Bytes(), buf.Bytes()) {
			t.Errorf("served %s differs from engine:\nserved: %s\nengine: %s", output, rec.Body, buf)
		}
	}

	// A two-table self-join through the store exercises the join path
	// end to end over HTTP.
	joinQ := "SELECT count(*) FROM " + metricsFP + " AS a, " + metricsFP + " AS b WHERE a.f0 = b.f0 AND a.f1 = '7'"
	rec := do(t, s, "GET", "/v1/query?q="+url.QueryEscape(joinQ)+"&output=csv", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("join query: %d %s", rec.Code, rec.Body)
	}
	if !strings.HasPrefix(rec.Body.String(), "count(*)\n") {
		t.Errorf("join query output: %s", rec.Body)
	}
}

// TestQueryWithoutStore: a daemon with no record store reports cleanly.
func TestQueryWithoutStore(t *testing.T) {
	root := buildLake(t)
	s, err := New(Config{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	rec := do(t, s, "GET", "/v1/query?q=SELECT+*+FROM+x", nil)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("query without store: %d %s", rec.Code, rec.Body)
	}
	envelope(t, "/v1/query (no store)", rec)
}

// TestReindexCancellation: a cancelled request context aborts the crawl
// and reports it, and the aborted crawl leaves the served state exactly
// as the last completed run left it (crawls mutate clones, not the
// shared handles).
func TestReindexCancellation(t *testing.T) {
	s, _ := newServer(t)
	before := do(t, s, "GET", "/v1/formats", nil).Body.String()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("POST", "/v1/reindex", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != 499 {
		t.Fatalf("cancelled reindex: %d %s", rec.Code, rec.Body)
	}

	if after := do(t, s, "GET", "/v1/formats", nil).Body.String(); after != before {
		t.Fatalf("aborted reindex mutated served state:\nbefore: %s\nafter: %s", before, after)
	}
	// A clean reindex afterwards must still report every file unchanged
	// — no orphaned claims, no lost checkpoints.
	var sum reindexJSON
	if err := json.Unmarshal(do(t, s, "POST", "/v1/reindex", nil).Body.Bytes(), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Unchanged != sum.Files || sum.Failed != 0 {
		t.Fatalf("reindex after abort: %+v", sum)
	}
}

// TestNDJSONFieldScratchReuse: the NDJSON stream encodes every record from
// one reused field scratch, so a record must carry its own fields only —
// none of its predecessor's — and a record without fields must still
// encode "fields":[] rather than null.
func TestNDJSONFieldScratchReuse(t *testing.T) {
	fld, lit := template.Field, template.Lit
	cfg := pipeline.Config{Templates: []*template.Node{
		template.Struct(fld(), lit(","), fld(), lit(","), fld(), lit("\n")).Normalize(),
		template.Struct(fld(), lit("="), fld(), lit("\n")).Normalize(),
		template.Struct(lit("--\n")).Normalize(),
	}}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/extract", nil)
	(&Server{}).extractNDJSON(rec, req, cfg, strings.NewReader("a,b,c\n--\nk=v\nd,e,f\n--\n"))
	want := []string{
		`{"type":0,"startLine":0,"endLine":1,"fields":[{"col":0,"rep":0,"start":0,"end":1,"value":"a"},{"col":1,"rep":0,"start":2,"end":3,"value":"b"},{"col":2,"rep":0,"start":4,"end":5,"value":"c"}]}`,
		`{"type":0,"startLine":3,"endLine":4,"fields":[{"col":0,"rep":0,"start":13,"end":14,"value":"d"},{"col":1,"rep":0,"start":15,"end":16,"value":"e"},{"col":2,"rep":0,"start":17,"end":18,"value":"f"}]}`,
		`{"type":1,"startLine":2,"endLine":3,"fields":[{"col":0,"rep":0,"start":9,"end":10,"value":"k"},{"col":1,"rep":0,"start":11,"end":12,"value":"v"}]}`,
		`{"type":2,"startLine":1,"endLine":2,"fields":[]}`,
		`{"type":2,"startLine":4,"endLine":5,"fields":[]}`,
	}
	if got := strings.Split(strings.TrimSuffix(rec.Body.String(), "\n"), "\n"); !reflect.DeepEqual(got, want) {
		t.Fatalf("ndjson:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestEmptyBodyExtract reports cleanly instead of hanging or panicking.
func TestEmptyBodyExtract(t *testing.T) {
	s, _ := newServer(t)
	fp := formats(t, s)[0].Fingerprint
	if rec := do(t, s, "POST", "/v1/extract?format="+fp, nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("empty body: %d %s", rec.Code, rec.Body)
	}
}

// TestReindexSeesGrowth: append to a lake file, reindex through the
// daemon, and the response reports one resumed file; the lake extract
// of that file then reflects the appended records.
func TestReindexSeesGrowth(t *testing.T) {
	s, root := newServer(t)
	path := filepath.Join(root, "metrics/m-1.log")
	before := do(t, s, "GET", "/v1/lake/extract?path=metrics/m-1.log", nil)
	nBefore := strings.Count(before.Body.String(), "\n")

	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(f, "metric|cpu9|99.99|\nmetric|cpu8|11.11|\n")
	f.Close()

	rec := do(t, s, "POST", "/v1/reindex", nil)
	var sum reindexJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Resumed != 1 || sum.Unchanged != sum.Files-1 {
		t.Fatalf("growth reindex summary: %+v", sum)
	}

	after := do(t, s, "GET", "/v1/lake/extract?path=metrics/m-1.log", nil)
	if nAfter := strings.Count(after.Body.String(), "\n"); nAfter != nBefore+2 {
		t.Fatalf("records after growth = %d, want %d", nAfter, nBefore+2)
	}
}
