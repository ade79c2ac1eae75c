package datamaran

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"datamaran/internal/lake"
	"datamaran/internal/lake/laketest"
	"datamaran/internal/query"
)

// TestQueryGoldens: the in-process engine (the public Query entry
// point) reproduces the committed results of laketest.Queries over a
// store built fresh from the fixture lake. cmd/datamaran's golden
// runner holds the CLI and the daemon to the same files.
func TestQueryGoldens(t *testing.T) {
	state := t.TempDir()
	storePath := filepath.Join(state, "store")
	if _, err := IndexDir(fixtureLake, IndexOptions{
		RegistryPath: filepath.Join(state, "registry.json"),
		StorePath:    storePath,
	}); err != nil {
		t.Fatal(err)
	}
	store, err := lake.OpenSegmentStore(storePath)
	if err != nil {
		t.Fatal(err)
	}
	// Both with pushdown (the public entry point) and without: the
	// pre-pushdown full-decode path, query.NoPushdown, must be
	// byte-identical on every golden.
	run := func(text string, nopush bool) (*QueryRows, error) {
		if !nopush {
			return Query(context.Background(), text, QueryOptions{StorePath: storePath})
		}
		q, err := query.Parse(text)
		if err != nil {
			return nil, err
		}
		rows, err := query.RunWith(context.Background(), query.NoPushdown(query.StoreCatalog(store)), q, query.Options{})
		if err != nil {
			return nil, err
		}
		return &QueryRows{rows: rows}, nil
	}
	for file, text := range laketest.Queries {
		want, err := os.ReadFile(filepath.Join("testdata/lake_golden/query", file))
		if err != nil {
			t.Fatalf("missing golden (run make golden-update): %v", err)
		}
		for _, nopush := range []bool{false, true} {
			rows, err := run(text, nopush)
			if err != nil {
				t.Fatalf("%s: %v", file, err)
			}
			var got bytes.Buffer
			if strings.HasSuffix(file, ".csv") {
				err = rows.WriteCSV(&got)
			} else {
				err = rows.WriteNDJSON(&got)
			}
			rows.Close()
			if err != nil {
				t.Fatalf("%s: %v", file, err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s (nopush=%v): engine output differs from golden\ngot:\n%s\nwant:\n%s", file, nopush, &got, want)
			}
		}
	}
}

// TestQueryExplainGoldens: the public Query entry point with
// Explain: "plan" reproduces the committed plan goldens.
func TestQueryExplainGoldens(t *testing.T) {
	state := t.TempDir()
	storePath := filepath.Join(state, "store")
	if _, err := IndexDir(fixtureLake, IndexOptions{
		RegistryPath: filepath.Join(state, "registry.json"),
		StorePath:    storePath,
	}); err != nil {
		t.Fatal(err)
	}
	for file, text := range laketest.Explains {
		want, err := os.ReadFile(filepath.Join("testdata/lake_golden/query", file))
		if err != nil {
			t.Fatalf("missing golden (run make golden-update): %v", err)
		}
		rows, err := Query(context.Background(), text, QueryOptions{
			StorePath: storePath,
			Explain:   "plan",
		})
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		var got bytes.Buffer
		err = rows.WriteCSV(&got)
		rows.Close()
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: explain plan differs from golden\ngot:\n%s\nwant:\n%s", file, &got, want)
		}
	}
}

// TestExplainAnalyzeReportsPruning: over a lake extended with a file
// whose f2 values all exceed the golden range query's upper bound, the
// zone maps prune that file's full blocks without decoding them, and
// EXPLAIN ANALYZE reports the pruning on the scan line. The extra rows
// are invisible to the predicate, so the non-explain output still
// matches the committed golden byte-for-byte.
func TestExplainAnalyzeReportsPruning(t *testing.T) {
	lakeDir := t.TempDir()
	if err := os.CopyFS(lakeDir, os.DirFS(fixtureLake)); err != nil {
		t.Fatal(err)
	}
	// 3000 rows, f2 monotonically 200.00 and up: with 1024-row blocks
	// at least two full blocks whose numeric minimum exceeds 99.
	var mono bytes.Buffer
	for i := 0; i < 3000; i++ {
		fmt.Fprintf(&mono, "metric|cpu%d|%d.00|db01|\n", i%8, 200+i)
	}
	if err := os.WriteFile(filepath.Join(lakeDir, "metrics", "metrics-mono.log"), mono.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	state := t.TempDir()
	storePath := filepath.Join(state, "store")
	if _, err := IndexDir(lakeDir, IndexOptions{
		RegistryPath: filepath.Join(state, "registry.json"),
		StorePath:    storePath,
	}); err != nil {
		t.Fatal(err)
	}

	text := laketest.Queries["range.ndjson"]
	rows, err := Query(context.Background(), text, QueryOptions{StorePath: storePath, Explain: "analyze"})
	if err != nil {
		t.Fatal(err)
	}
	var analyze bytes.Buffer
	err = rows.WriteCSV(&analyze)
	rows.Close()
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`pruned=(\d+)`).FindStringSubmatch(analyze.String())
	if m == nil {
		t.Fatalf("no pruned= counter in analyze output:\n%s", &analyze)
	}
	if pruned, _ := strconv.Atoi(m[1]); pruned < 2 {
		t.Errorf("pruned=%d, want >= 2 (two full out-of-range blocks):\n%s", pruned, &analyze)
	}

	want, err := os.ReadFile("testdata/lake_golden/query/range.ndjson")
	if err != nil {
		t.Fatal(err)
	}
	rows, err = Query(context.Background(), text, QueryOptions{StorePath: storePath})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	err = rows.WriteNDJSON(&got)
	rows.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("pruned query result differs from golden\ngot:\n%s\nwant:\n%s", &got, want)
	}
}

// TestQueryCancellation: a cancelled context stops a streaming query.
func TestQueryCancellation(t *testing.T) {
	state := t.TempDir()
	storePath := filepath.Join(state, "store")
	if _, err := IndexDir(fixtureLake, IndexOptions{StorePath: storePath}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rows, err := Query(ctx, "SELECT * FROM 570eebfb5b600688", QueryOptions{StorePath: storePath})
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	for i := 0; i < 1000; i++ {
		if _, err := rows.Next(); err != nil {
			if errors.Is(err, context.Canceled) {
				return
			}
			t.Fatalf("unexpected error: %v", err)
		}
	}
	t.Fatal("cancelled query kept producing rows")
}
