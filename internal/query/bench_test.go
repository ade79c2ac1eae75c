package query

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"testing"

	"datamaran/internal/lake"
)

// benchStore writes a fact table of the given number of full blocks
// (timestamp, host, path, code, latency, size — the shape of a request
// log) and a 40-row host dimension, and returns its catalog.
func benchStore(tb testing.TB, blocks int) Catalog {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	fact := make([][]string, blocks*1024)
	for i := range fact {
		code := "200"
		if rng.Intn(6) == 0 {
			code = "500"
		}
		fact[i] = []string{
			fmt.Sprint(1_700_000_000 + i), fmt.Sprintf("h%02d", rng.Intn(40)), fmt.Sprintf("/api/v%d/items/%d", rng.Intn(3), rng.Intn(500)),
			code, fmt.Sprint(rng.Intn(2000)), fmt.Sprint(rng.Intn(1 << 16)),
		}
	}
	hosts := make([][]string, 40)
	for i := range hosts {
		hosts[i] = []string{fmt.Sprintf("h%02d", i), fmt.Sprintf("rack%d", i%5)}
	}
	store, err := lake.OpenSegmentStore(filepath.Join(tb.TempDir(), "store"))
	if err != nil {
		tb.Fatal(err)
	}
	writeStoreTable(tb, store, "fact", 6, fact, 8*1024)
	writeStoreTable(tb, store, "hosts", 2, hosts, len(hosts))
	return StoreCatalog(store)
}

// queryShape is one of the five shapes of the repository benchmark
// (bench/), with its allocation ceiling: perQuery + perBlock × blocks.
type queryShape struct {
	name, text         string
	perQuery, perBlock float64
}

var queryShapes = []queryShape{
	{"scan", "SELECT f0, f4 FROM fact WHERE f0 > %d", 400, 12},
	{"wide", "SELECT * FROM fact", 250, 12},
	{"join", "SELECT r.f0, r.f4, h.f1 FROM fact AS r, hosts AS h WHERE r.f1 = h.f0 AND r.f3 = 500", 700, 20},
	{"topk", "SELECT f0, f1, f4 FROM fact ORDER BY f4 DESC, f0 LIMIT 10", 800, 6},
	{"groupby", "SELECT f1, count(*) FROM fact GROUP BY f1 ORDER BY count(*) DESC, f1 LIMIT 5", 450, 3},
}

// shapeBlocks are the two table sizes every shape runs at.
var shapeBlocks = []int{16, 64}

// runner returns a func that runs the shape to the end once over cat, a
// benchStore of the given blocks.
func (s queryShape) runner(tb testing.TB, cat Catalog, blocks int) func() {
	text := s.text
	if s.name == "scan" { // the last 900 rows
		text = fmt.Sprintf(text, 1_700_000_000+blocks*1024-901)
	}
	return func() {
		q, err := Parse(text)
		if err != nil {
			tb.Fatal(err)
		}
		rows, err := Run(context.Background(), cat, q)
		if err != nil {
			tb.Fatal(err)
		}
		defer rows.Close()
		for {
			if _, err := rows.Next(); err == io.EOF {
				return
			} else if err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// TestQueryShapesAllocs holds each shape at two table sizes to one
// ceiling of the form constant + per-block × blocks: the engine allocates
// per query (plan, files, footers, groups, heap entries) and per block
// decoded (one string per column, one row slab per output batch), never
// per row. An operator that goes back to allocating per row adds a
// thousand a block and fails at either size.
func TestQueryShapesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, blocks := range shapeBlocks {
		cat := benchStore(t, blocks)
		for _, s := range queryShapes {
			allocs := testing.AllocsPerRun(20, s.runner(t, cat, blocks))
			ceiling := s.perQuery + s.perBlock*float64(blocks)
			if allocs > ceiling {
				t.Errorf("%s at %d blocks: %.0f allocations, ceiling %.0f", s.name, blocks, allocs, ceiling)
			}
		}
	}
}

// BenchmarkQueryShapes runs the five shapes in-process at two table
// sizes; TestQueryShapesAllocs pins their allocations.
func BenchmarkQueryShapes(b *testing.B) {
	for _, blocks := range shapeBlocks {
		cat := benchStore(b, blocks)
		for _, s := range queryShapes {
			b.Run(fmt.Sprintf("%s/blocks=%d", s.name, blocks), func(b *testing.B) {
				run := s.runner(b, cat, blocks)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					run()
				}
			})
		}
	}
}
