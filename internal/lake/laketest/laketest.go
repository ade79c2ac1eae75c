// Package laketest is the single source of the fixture-lake corpus: the
// three synthetic log formats (multi-line job stanzas, one-line HTTP
// request records, pipe-delimited metrics) and the prose notes file used
// by the lake, serve and example fixtures. The format strings used to be
// copy-pasted per package, so an edit in one place silently skewed the
// corpora apart; every builder of a jobs/requests/metrics lake goes
// through here now. It also holds the golden query suite over the
// committed fixture lake (Queries, Explains), to whose results the
// engine, the CLI and the daemon are each held.
//
// The package is deliberately testing-free so examples can import it,
// and deterministic: each builder draws from the caller's *rand.Rand (or
// a seed) in a fixed call order, so a (seed, parameters) pair names one
// exact byte sequence.
package laketest

import (
	"fmt"
	"math/rand"
	"strings"
)

// AppendJob appends one multi-line job stanza ("JOB <id>" plus indented
// queue/state lines, ';'-terminated — the multi-line format of the
// fixture lake).
func AppendJob(b *strings.Builder, rng *rand.Rand, jobMod, queueMod int, states []string) {
	fmt.Fprintf(b, "JOB <%d>\n  queue= q%d;\n  state= %s;\n",
		rng.Intn(jobMod), rng.Intn(queueMod), states[rng.Intn(len(states))])
}

// AppendRequest appends one HTTP-access-style request line
// ("VERB /api/vN/item/N CODE").
func AppendRequest(b *strings.Builder, rng *rand.Rand, verbs []string, itemMod int, codes []int) {
	fmt.Fprintf(b, "%s /api/v%d/item/%d %d\n",
		verbs[rng.Intn(len(verbs))], 1+rng.Intn(2), rng.Intn(itemMod),
		codes[rng.Intn(len(codes))])
}

// AppendMetric appends one pipe-delimited gauge reading
// ("metric|cpuN|N.NN|").
func AppendMetric(b *strings.Builder, rng *rand.Rand) {
	fmt.Fprintf(b, "metric|cpu%d|%d.%02d|\n",
		rng.Intn(8), rng.Intn(100), rng.Intn(100))
}

// JobsLog builds a whole job-stanza file from its own seeded stream.
func JobsLog(seed int64, n, jobMod, queueMod int, states []string) string {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	for i := 0; i < n; i++ {
		AppendJob(&b, rng, jobMod, queueMod, states)
	}
	return b.String()
}

// RequestsLog builds a whole request-line file from its own seeded stream.
func RequestsLog(seed int64, n int, verbs []string, itemMod int, codes []int) string {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	for i := 0; i < n; i++ {
		AppendRequest(&b, rng, verbs, itemMod, codes)
	}
	return b.String()
}

// MetricsLog builds a whole metrics file from its own seeded stream.
func MetricsLog(seed int64, n int) string {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	for i := 0; i < n; i++ {
		AppendMetric(&b, rng)
	}
	return b.String()
}

// Prose is the unstructured notes file every fixture lake carries (the
// crawl must classify it as unstructured, not force a template onto it).
// tier names which tier "moved to pull-based scraping"; dir1 and dir2
// are the two directory-description lines, which vary per fixture.
func Prose(tier, dir1, dir2 string) string {
	return "These logs were collected from the staging cluster.\n" +
		"Rotate anything older than thirty days; ask Dana first!\n" +
		"(The " + tier + " tier moved to pull-based scraping in March.)\n" +
		dir1 + "\n" +
		dir2 + "\n" +
		"TODO: fold the db01 host metrics into their own directory?\n"
}

// Queries is the golden query suite over the fixture lake (testdata/lake):
// each key names the committed result under testdata/lake_golden/query,
// and its extension picks the output form.
var Queries = map[string]string{
	"selection.csv":     "SELECT f1, f2, f3 FROM 570eebfb5b600688 WHERE f2 > 99",
	"projection.ndjson": "SELECT f1, f6 FROM 94d88dc2a33387cc WHERE f5 = '500' LIMIT 15",
	"join.csv":          "SELECT m.f1, m.f2, h.f3, h.f5 FROM 570eebfb5b600688 AS m, 3065c6f04a84699c AS h WHERE m.f3 = h.f1 AND m.f2 > 99 ORDER BY m.f2 DESC, m.f1",
	"groupby.csv":       "SELECT f3, count(*), avg(f2) FROM 570eebfb5b600688 GROUP BY f3 ORDER BY f3",
	"joingroup.ndjson":  "SELECT h.f5, count(*) FROM 570eebfb5b600688 AS m, 3065c6f04a84699c AS h WHERE m.f3 = h.f1 GROUP BY h.f5 ORDER BY h.f5",
	"topk.csv":          "SELECT f1, f2, f3 FROM 570eebfb5b600688 ORDER BY f2 DESC, f1 LIMIT 5",
	"range.ndjson":      "SELECT f1, f2 FROM 570eebfb5b600688 WHERE f2 > 90 AND f2 <= 99",
}

// Explains pins the plans of the join, group-by and top-k queries: a
// plan-only explain carries no timings, so its CSV is a golden like a
// result. Pushdown is on; turning it off legitimately changes the plan.
var Explains = map[string]string{
	"explain_join.csv":    Queries["join.csv"],
	"explain_groupby.csv": Queries["groupby.csv"],
	"explain_topk.csv":    Queries["topk.csv"],
}
