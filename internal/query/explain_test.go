package query

import (
	"context"
	"io"
	"strings"
	"testing"
)

// drainPlan runs q with the given explain mode and returns the plan
// lines.
func drainPlan(t *testing.T, cat Catalog, text string, mode ExplainMode) []string {
	t.Helper()
	q, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := RunWith(context.Background(), cat, q, Options{Explain: mode})
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if got := rows.Columns(); len(got) != 1 || got[0] != "plan" {
		t.Fatalf("explain columns = %v, want [plan]", got)
	}
	var lines []string
	for {
		row, err := rows.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, row[0])
	}
	return lines
}

// TestExplainPlan: the plan-only tree names every operator, carries no
// timings, and is deterministic across runs.
func TestExplainPlan(t *testing.T) {
	cat := fixtureCatalog()
	text := "SELECT jobs.f1, count(*) FROM jobs, hosts WHERE jobs.f1 = hosts.f0 AND jobs.f2 = 'DONE' GROUP BY jobs.f1 ORDER BY jobs.f1 LIMIT 5"
	lines := drainPlan(t, cat, text, ExplainPlan)
	joined := strings.Join(lines, "\n")
	for _, want := range []string{"scan table=jobs", "scan table=hosts", "hash join on", "group by", "top-k by"} {
		if !strings.Contains(joined, want) {
			t.Errorf("plan missing %q:\n%s", want, joined)
		}
	}
	for _, leak := range []string{"time=", "rows=", "total:"} {
		if strings.Contains(joined, leak) {
			t.Errorf("plan-only explain leaks %q:\n%s", leak, joined)
		}
	}
	again := drainPlan(t, cat, text, ExplainPlan)
	if joined != strings.Join(again, "\n") {
		t.Error("plan output not deterministic")
	}
	// Indentation: the root has none, leaves are nested.
	if strings.HasPrefix(lines[0], " ") {
		t.Errorf("root line indented: %q", lines[0])
	}
	if !strings.HasPrefix(lines[len(lines)-1], "  ") {
		t.Errorf("leaf line not indented: %q", lines[len(lines)-1])
	}
}

// TestExplainAnalyze: the analyzed tree reports per-operator rows,
// batches and wall time plus a total line, and the counts are real.
func TestExplainAnalyze(t *testing.T) {
	cat := fixtureCatalog()
	lines := drainPlan(t, cat, "SELECT f0, f1 FROM jobs WHERE f2 = 'DONE'", ExplainAnalyze)
	joined := strings.Join(lines, "\n")
	for _, want := range []string{"rows=", "batches=", "time=", "total: rows=3 "} {
		if !strings.Contains(joined, want) {
			t.Errorf("analyze missing %q:\n%s", want, joined)
		}
	}
	// The scan saw all 5 job rows; the filter and projection pass 3.
	var scanLine, projLine string
	for _, l := range lines {
		switch {
		case strings.Contains(l, "scan table=jobs"):
			scanLine = l
		case strings.Contains(l, "project"):
			projLine = l
		}
	}
	if !strings.Contains(scanLine, "rows=5 batches=1 ") {
		t.Errorf("scan row count wrong: %q", scanLine)
	}
	if !strings.Contains(projLine, "rows=3 batches=1 ") {
		t.Errorf("project row count wrong: %q", projLine)
	}
}

// TestExplainDoesNotChangeResults: a query run normally after an
// explain of the same text produces data rows, and RunWith with
// ExplainNone is Run.
func TestExplainDoesNotChangeResults(t *testing.T) {
	cat := fixtureCatalog()
	q, err := Parse("SELECT f0 FROM jobs WHERE f2 = 'DONE'")
	if err != nil {
		t.Fatal(err)
	}
	_ = drainPlan(t, cat, "SELECT f0 FROM jobs WHERE f2 = 'DONE'", ExplainPlan)
	rows, err := RunWith(context.Background(), cat, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	n := 0
	for {
		row, err := rows.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(row[0], "scan") {
			t.Fatalf("plan line leaked into data output: %q", row)
		}
		n++
	}
	if n != 3 {
		t.Fatalf("rows = %d, want 3", n)
	}
	if st := rows.Stats(); st.RowsScanned != 5 {
		t.Errorf("Stats().RowsScanned = %d, want 5", st.RowsScanned)
	}
}

// TestParseExplainMode: the user-facing spellings.
func TestParseExplainMode(t *testing.T) {
	for s, want := range map[string]ExplainMode{"": ExplainNone, "none": ExplainNone, "plan": ExplainPlan, "analyze": ExplainAnalyze} {
		got, err := ParseExplainMode(s)
		if err != nil || got != want {
			t.Errorf("ParseExplainMode(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseExplainMode("verbose"); err == nil {
		t.Error("bad mode accepted")
	}
}
