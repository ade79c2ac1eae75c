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
func benchStore(b *testing.B, blocks int) Catalog {
	b.Helper()
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
	store, err := lake.OpenSegmentStore(filepath.Join(b.TempDir(), "store"))
	if err != nil {
		b.Fatal(err)
	}
	writeStoreTable(b, store, "fact", 6, fact, 8*1024)
	writeStoreTable(b, store, "hosts", 2, hosts, len(hosts))
	return StoreCatalog(store)
}

// BenchmarkQueryShapes runs the five shapes of the repository benchmark
// (bench/) in-process at two table sizes. scripts/bench_allocs.sh holds
// their allocs/op to a constant per query plus a constant per block: an
// operator that allocates per row fails at the larger size.
func BenchmarkQueryShapes(b *testing.B) {
	shapes := []struct{ name, text string }{
		{"scan", "SELECT f0, f4 FROM fact WHERE f0 > %d"},
		{"wide", "SELECT * FROM fact"},
		{"join", "SELECT r.f0, r.f4, h.f1 FROM fact AS r, hosts AS h WHERE r.f1 = h.f0 AND r.f3 = 500"},
		{"topk", "SELECT f0, f1, f4 FROM fact ORDER BY f4 DESC, f0 LIMIT 10"},
		{"groupby", "SELECT f1, count(*) FROM fact GROUP BY f1 ORDER BY count(*) DESC, f1 LIMIT 5"},
	}
	for _, blocks := range []int{16, 64} {
		cat := benchStore(b, blocks)
		for _, s := range shapes {
			text := s.text
			if s.name == "scan" { // the last 900 rows
				text = fmt.Sprintf(text, 1_700_000_000+blocks*1024-901)
			}
			b.Run(fmt.Sprintf("%s/blocks=%d", s.name, blocks), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					q, err := Parse(text)
					if err != nil {
						b.Fatal(err)
					}
					rows, err := Run(context.Background(), cat, q)
					if err != nil {
						b.Fatal(err)
					}
					for {
						if _, err := rows.Next(); err == io.EOF {
							break
						} else if err != nil {
							b.Fatal(err)
						}
					}
					rows.Close()
				}
			})
		}
	}
}
