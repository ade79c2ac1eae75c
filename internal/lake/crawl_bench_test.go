package lake

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"datamaran/internal/core"
	"datamaran/internal/follow"
	"datamaran/internal/lake/laketest"
)

// BenchmarkCrawlSmallFiles crawls a lake of small files of three known
// formats — forty records, two to three kilobytes a file — into a fresh
// store with checkpoints, at two file counts. It is the per-file slope of
// the crawl, which a benchmark over large files cannot see: what a file
// costs before its first record. The allocation gate
// (scripts/bench_allocs.sh) holds B/op at both counts to one ceiling of
// the form constant + per-file × files. With the extraction scratch and the
// segment writer borrowed per worker the per-file term is what the file
// itself needs — its sample, its records, its manifest and checkpoint
// entries; built per file it was a 1 MiB chunk buffer, the stage windows
// and the writer's column buffers and distinct sets, over a mebibyte for a
// file of three kilobytes.
func BenchmarkCrawlSmallFiles(b *testing.B) {
	states, verbs, codes := []string{"DONE", "FAILED", "RUNNING"}, []string{"GET", "PUT", "POST"}, []int{200, 404, 500}
	logOf := func(f int) (string, string) {
		seed := int64(100 + f)
		switch f % 3 {
		case 0:
			return fmt.Sprintf("req/req-%03d.log", f), laketest.RequestsLog(seed, 40, verbs, 10000, codes)
		case 1:
			return fmt.Sprintf("jobs/jobs-%03d.log", f), laketest.JobsLog(seed, 40, 90000, 6, states)
		}
		return fmt.Sprintf("metrics/metrics-%03d.log", f), laketest.MetricsLog(seed, 40)
	}
	reg := NewRegistry()
	for f := 0; f < 3; f++ {
		_, content := logOf(f)
		if e, _, err := discoverSample(context.Background(), []byte(content), reg, core.Options{}); err != nil || e == nil {
			b.Fatalf("no profile for format %d: %v", f, err)
		}
	}
	for _, files := range []int{24, 96} {
		b.Run(fmt.Sprintf("files=%d", files), func(b *testing.B) {
			root := b.TempDir()
			var size int64
			for f := 0; f < files; f++ {
				rel, content := logOf(f)
				full := filepath.Join(root, filepath.FromSlash(rel))
				if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
					b.Fatal(err)
				}
				if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
					b.Fatal(err)
				}
				size += int64(len(content))
			}
			b.SetBytes(size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				store, err := OpenSegmentStore(b.TempDir())
				if err != nil {
					b.Fatal(err)
				}
				txn := store.Begin()
				res, err := IndexContext(context.Background(), root, reg, Config{Workers: 2, Checkpoints: follow.NewStore(), Segments: txn})
				if err != nil || res.Summary.CacheHits != files {
					b.Fatalf("crawl: %v, %+v", err, res)
				}
				if err := txn.Commit(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
