package lake

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"testing"

	"datamaran/internal/follow"
	"datamaran/internal/lake/laketest"
	"datamaran/internal/obsv"
)

// TestCrawlReportsStagesAndDiscoveries: a crawl observes each stage's
// span once, counts its discoveries by outcome in the metrics registry,
// and says the same in its log event — a lake whose crawl time goes to
// failed discovery on prose shows it as outcome "none". Next to them it
// counts the speculations of the match stage: every discovery here is one
// that was used, and what a cold crawl started and threw away — the only
// place its waste shows — is the count beside it. Each discovery's time,
// and each discarded speculation's, is in a histogram by outcome.
func TestCrawlReportsStagesAndDiscoveries(t *testing.T) {
	root := buildLake(t)
	// One more file, and a threshold no profile reaches on it: it misses
	// the format its own discovery registered, every crawl after the first.
	writeFile(t, root, "c/metrics-junk.log", laketest.MetricsLog(33, 120)+"this line is not a metric\n")
	metrics := obsv.NewRegistry()
	var logged bytes.Buffer
	cfg := Config{Workers: 2, MatchThreshold: 1, Metrics: metrics, Logger: slog.New(slog.NewJSONHandler(&logged, nil))}
	reg := NewRegistry()

	discoveries := func() map[string]float64 {
		got := map[string]float64{}
		for _, m := range metrics.Snapshot() {
			switch m.Name {
			case "datamaran_crawl_discoveries_total":
				got[m.Labels] = m.Value
			case "datamaran_crawl_speculations_total":
				if m.Labels == `{outcome="used"}` {
					got["speculations used"] = m.Value
				}
			case "datamaran_crawl_stage_seconds":
				got[m.Labels] = float64(m.Hist.Count)
			}
		}
		return got
	}
	// Every discovery's time is in datamaran_crawl_discovery_seconds
	// under its outcome, and every discarded speculation's under
	// "discarded": per outcome, the histogram counts what the counters do.
	timed := func(crawl string) {
		t.Helper()
		unmatched, series := map[string]float64{}, 0
		for _, m := range metrics.Snapshot() {
			switch {
			case m.Name == "datamaran_crawl_discoveries_total",
				m.Name == "datamaran_crawl_speculations_total" && m.Labels == `{outcome="discarded"}`:
				unmatched[m.Labels] += m.Value
			case m.Name == "datamaran_crawl_discovery_seconds":
				unmatched[m.Labels] -= float64(m.Hist.Count)
				series++
			}
		}
		for labels, n := range unmatched {
			if n != 0 {
				t.Errorf("after the %s crawl: %s has %v more discoveries than times", crawl, labels, n)
			}
		}
		if series != 4 {
			t.Errorf("after the %s crawl: %d discovery-time series, want new, known, none and discarded", crawl, series)
		}
	}
	event := func() map[string]any {
		var ev map[string]any
		if err := json.Unmarshal(logged.Bytes(), &ev); err != nil {
			t.Fatalf("crawl log event %q: %v", logged.String(), err)
		}
		logged.Reset()
		return ev
	}

	if _, err := Index(root, reg, cfg); err != nil {
		t.Fatal(err)
	}
	// Three formats; the prose notes and the junk-tailed file (metrics
	// again) are the other two discoveries. The empty file needs none.
	want := map[string]float64{
		`{outcome="new"}`: 3, `{outcome="known"}`: 1, `{outcome="none"}`: 1, "speculations used": 5,
		`{stage="walk"}`: 1, `{stage="classify"}`: 1, `{stage="extract"}`: 1,
	}
	if got := discoveries(); !equalCounts(got, want) {
		t.Fatalf("after the cold crawl: %v, want %v", got, want)
	}
	timed("cold")
	ev := event()
	if d, _ := ev["discoveries"].(map[string]any); d["new"] != 3.0 || d["known"] != 1.0 || d["none"] != 1.0 {
		t.Fatalf("cold crawl logged discoveries=%v", ev["discoveries"])
	}
	if sp, _ := ev["speculations"].(map[string]any); sp["used"] != 5.0 || sp["discarded"] == nil {
		t.Fatalf("cold crawl logged speculations=%v, want 5 used and a discarded count", ev["speculations"])
	}
	for _, stage := range []string{"walk", "classify", "extract"} {
		if _, ok := ev[stage].(string); !ok {
			t.Errorf("crawl event lacks the %s span: %v", stage, ev)
		}
	}

	// Everything is known now: only the junk-tailed file (still short of
	// the threshold) and the prose go through discovery again.
	if _, err := Index(root, reg, cfg); err != nil {
		t.Fatal(err)
	}
	want = map[string]float64{
		`{outcome="new"}`: 3, `{outcome="known"}`: 2, `{outcome="none"}`: 2, "speculations used": 7,
		`{stage="walk"}`: 2, `{stage="classify"}`: 2, `{stage="extract"}`: 2,
	}
	if got := discoveries(); !equalCounts(got, want) {
		t.Fatalf("after the warm crawl: %v, want %v", got, want)
	}
	timed("warm")
	if d, _ := event()["discoveries"].(map[string]any); d["new"] != 0.0 || d["known"] != 1.0 || d["none"] != 1.0 {
		t.Fatalf("warm crawl logged discoveries=%v", d)
	}
}

func equalCounts(got, want map[string]float64) bool {
	if len(got) != len(want) {
		return false
	}
	for k, v := range want {
		if got[k] != v {
			return false
		}
	}
	return true
}

// TestCrawlRecordsMetric: datamaran_crawl_records_total counts, by
// format, the records a crawl extracted — every record of a file
// extracted in full, the region past the checkpoint of a resumed file,
// nothing of an unchanged one — counted here from extractions of the
// files outside the crawl.
func TestCrawlRecordsMetric(t *testing.T) {
	root := buildLake(t)
	reg, cps := NewRegistry(), follow.NewStore()
	crawl := func() (*Result, map[string]float64) {
		t.Helper()
		metrics := obsv.NewRegistry()
		res, err := Index(root, reg, Config{Workers: 2, Checkpoints: cps, Metrics: metrics})
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]float64{}
		for _, m := range metrics.Snapshot() {
			if m.Name == "datamaran_crawl_records_total" {
				got[m.Labels] = m.Value
			}
		}
		return res, got
	}
	label := func(fp string) string { return `{format="` + fp + `"}` }

	res, got := crawl()
	want := map[string]float64{}
	for _, f := range res.Files {
		if f.Fingerprint != "" {
			want[label(f.Fingerprint)] += float64(len(extractFile(t, root, f.Path, reg.Lookup(f.Fingerprint)).Records))
		}
	}
	if len(want) != 3 || !equalCounts(got, want) {
		t.Fatalf("fresh crawl: records_total %v, want %v", got, want)
	}

	appendTo(t, root, "a/jobs-1.log", "JOB <123>\n  queue= q1;\n  state= DONE;\nJOB <77>\n  queue= q2;\n")
	before := cps.Get("a/jobs-1.log")
	res, got = crawl()
	if res.Summary.Resumed != 1 || res.Summary.Unchanged != res.Summary.Files-1 {
		t.Fatalf("resume crawl: summary %+v", res.Summary)
	}
	past := 0
	for _, r := range extractFile(t, root, "a/jobs-1.log", reg.Lookup(before.Fingerprint)).Records {
		if r.StartLine >= before.Line {
			past++
		}
	}
	if want := map[string]float64{label(before.Fingerprint): float64(past)}; past == 0 || !equalCounts(got, want) {
		t.Fatalf("resume crawl: records_total %v, want %v", got, want)
	}
}
