package serve

import (
	"bufio"
	"net/http"
	"net/url"
	"regexp"
	"strings"
	"testing"
	"time"

	"datamaran/internal/obsv"
)

// metricsFingerprint finds the pipe-delimited metrics format's
// fingerprint (the table the query tests use).
func metricsFingerprint(t *testing.T, s *Server) string {
	t.Helper()
	for _, f := range formats(t, s) {
		if strings.Contains(f.Templates[0], "|") {
			return f.Fingerprint
		}
	}
	t.Fatal("metrics format not found")
	return ""
}

// TestMetricsEndpoint: after a reindex and a served query, /metrics
// exposes the request, query and crawl families in Prometheus text
// form, with non-zero values where work happened.
func TestMetricsEndpoint(t *testing.T) {
	s, _ := newServer(t)
	fp := metricsFingerprint(t, s)
	rec := do(t, s, "GET", "/v1/query?q="+url.QueryEscape("SELECT f1 FROM "+fp+" LIMIT 3"), nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("query: %d %s", rec.Code, rec.Body)
	}

	rec = do(t, s, "GET", "/metrics", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: %d %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != obsv.ContentType {
		t.Errorf("content type %q, want %q", ct, obsv.ContentType)
	}
	body := rec.Body.String()
	for _, family := range []string{
		"datamaran_http_requests_total",
		"datamaran_http_in_flight",
		"datamaran_http_shed_total",
		"datamaran_http_request_seconds",
		"datamaran_queries_total",
		"datamaran_query_rows_scanned_total",
		"datamaran_query_blocks_decoded_total",
		"datamaran_query_blocks_pruned_total",
		"datamaran_reindex_total",
		"datamaran_reindex_seconds",
		"datamaran_crawl_stage_seconds",
		"datamaran_crawl_files_total",
		"datamaran_crawl_discoveries_total",
		"datamaran_crawl_discovery_seconds",
		"datamaran_crawl_speculations_total",
		"datamaran_crawl_records_total",
		"datamaran_crawl_bytes_total",
	} {
		if !strings.Contains(body, "# TYPE "+family+" ") {
			t.Errorf("family %s missing from /metrics", family)
		}
	}
	for _, nonZero := range []string{
		"datamaran_reindex_total 1",
		"datamaran_queries_total 1",
		`datamaran_crawl_files_total{status="discovered"}`,
		`datamaran_crawl_stage_seconds_count{stage="walk"} 1`,
		`datamaran_crawl_stage_seconds_count{stage="classify"} 1`,
		`datamaran_crawl_stage_seconds_count{stage="extract"} 1`,
	} {
		if !strings.Contains(body, nonZero) {
			t.Errorf("expected %q in /metrics:\n%s", nonZero, body)
		}
	}
	// The served query scanned real rows through real blocks.
	if strings.Contains(body, "datamaran_query_rows_scanned_total 0\n") {
		t.Error("query rows_scanned stayed zero after a served query")
	}
	if strings.Contains(body, "datamaran_query_blocks_decoded_total 0\n") {
		t.Error("query blocks_decoded stayed zero after a served query")
	}
}

// TestStatusObservabilityFields: /v1/status reports process age, build
// identity and the cumulative reindex count alongside the table stats.
func TestStatusObservabilityFields(t *testing.T) {
	s, _ := newServer(t)
	st := statusOf(t, s)
	if st.Reindexes != 1 {
		t.Errorf("reindexes = %d, want 1", st.Reindexes)
	}
	if st.UptimeSeconds < 0 {
		t.Errorf("uptimeSeconds = %v, want >= 0", st.UptimeSeconds)
	}
	if _, err := time.Parse(time.RFC3339, st.StartedAt); err != nil {
		t.Errorf("startedAt %q: %v", st.StartedAt, err)
	}
}

// TestQueryExplainParam: explain=plan renders the plan without timings,
// explain=analyze appends per-operator stats and a total line, and an
// unknown mode is a 400. Both explain forms flow through the normal
// output writers.
func TestQueryExplainParam(t *testing.T) {
	s, _ := newServer(t)
	fp := metricsFingerprint(t, s)
	q := url.QueryEscape("SELECT f1, f2 FROM " + fp + " WHERE f2 > 90 LIMIT 5")

	rec := do(t, s, "GET", "/v1/query?q="+q+"&output=csv&explain=plan", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("explain=plan: %d %s", rec.Code, rec.Body)
	}
	plan := rec.Body.String()
	if !strings.HasPrefix(plan, "plan\n") {
		t.Errorf("plan output missing header:\n%s", plan)
	}
	if !strings.Contains(plan, "scan table="+fp) {
		t.Errorf("plan missing scan node:\n%s", plan)
	}
	if strings.Contains(plan, "time=") || strings.Contains(plan, "rows=") {
		t.Errorf("plan-only explain leaked timings:\n%s", plan)
	}
	// Deterministic: a second explain renders byte-identically.
	rec2 := do(t, s, "GET", "/v1/query?q="+q+"&output=csv&explain=plan", nil)
	if rec2.Body.String() != plan {
		t.Errorf("explain=plan not deterministic:\n%s\nvs:\n%s", plan, rec2.Body)
	}

	rec = do(t, s, "GET", "/v1/query?q="+q+"&output=csv&explain=analyze", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("explain=analyze: %d %s", rec.Code, rec.Body)
	}
	analyze := rec.Body.String()
	for _, want := range []string{"rows=", "time=", "blocks=", "pruned=", "total: rows="} {
		if !strings.Contains(analyze, want) {
			t.Errorf("explain=analyze missing %q:\n%s", want, analyze)
		}
	}

	rec = do(t, s, "GET", "/v1/query?q="+q+"&explain=bogus", nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("explain=bogus: %d, want 400", rec.Code)
	}
	envelope(t, "/v1/query (bad explain)", rec)
}

// TestMetricsCardinalityGuard pins the full metric surface: after
// exercising every route plus a reindex and queries in all modes, the
// scrape must contain only the known families and known label keys.
// A new family or label key is a deliberate, reviewed change — extend
// the allowlists here when adding one. Request-controlled values
// (paths, query text) must never become labels.
func TestMetricsCardinalityGuard(t *testing.T) {
	s, _ := newServer(t)
	fp := metricsFingerprint(t, s)
	q := url.QueryEscape("SELECT f1 FROM " + fp + " LIMIT 2")
	for _, target := range []string{
		"/healthz",
		"/v1/status",
		"/v1/formats",
		"/v1/formats/" + fp,
		"/v1/query?q=" + q,
		"/v1/query?q=" + q + "&explain=plan",
		"/v1/query?q=" + q + "&explain=analyze",
		"/v1/query?q=bogus", // a 4xx class
		"/metrics",
	} {
		do(t, s, "GET", target, nil)
	}
	do(t, s, "POST", "/v1/reindex?format="+fp, nil)

	families := map[string]bool{
		"datamaran_http_requests_total":        true,
		"datamaran_http_in_flight":             true,
		"datamaran_http_shed_total":            true,
		"datamaran_http_request_seconds":       true,
		"datamaran_queries_total":              true,
		"datamaran_query_rows_scanned_total":   true,
		"datamaran_query_blocks_decoded_total": true,
		"datamaran_query_blocks_pruned_total":  true,
		"datamaran_reindex_total":              true,
		"datamaran_reindex_seconds":            true,
		"datamaran_crawl_stage_seconds":        true,
		"datamaran_crawl_files_total":          true,
		"datamaran_crawl_discoveries_total":    true,
		"datamaran_crawl_discovery_seconds":    true,
		"datamaran_crawl_speculations_total":   true,
		"datamaran_crawl_records_total":        true,
		"datamaran_crawl_bytes_total":          true,
	}
	labelKeys := map[string]bool{
		"route": true, "class": true, "le": true, "scope": true,
		"stage": true, "status": true, "format": true, "outcome": true,
	}

	rec := do(t, s, "GET", "/metrics", nil)
	labelPair := regexp.MustCompile(`(?:^|,)([a-zA-Z_]+)="`)
	sc := bufio.NewScanner(strings.NewReader(rec.Body.String()))
	for sc.Scan() {
		text := sc.Text()
		if strings.HasPrefix(text, "#") || text == "" {
			continue
		}
		// <name>[{labels}] <value> — label values may contain anything
		// but an unescaped quote, so split on the braces positionally.
		name, labels := text, ""
		if i := strings.IndexByte(text, '{'); i >= 0 {
			j := strings.LastIndexByte(text, '}')
			if j < i {
				t.Errorf("unparseable metrics line: %s", text)
				continue
			}
			name, labels = text[:i], text[i+1:j]
		} else if i := strings.IndexByte(text, ' '); i >= 0 {
			name = text[:i]
		}
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if trimmed := strings.TrimSuffix(name, suffix); trimmed != name && families[trimmed] {
				family = trimmed
			}
		}
		if !families[family] {
			t.Errorf("unknown metric family %q (line %q) — extend the guard if intentional", family, text)
		}
		for _, lm := range labelPair.FindAllStringSubmatch(labels, -1) {
			if !labelKeys[lm[1]] {
				t.Errorf("unknown label key %q in line %q — extend the guard if intentional", lm[1], text)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
}
