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

// smallFileSizes are the two lakes the crawl of small files is measured
// on, in files.
var smallFileSizes = []int{24, 96}

// smallFilesLake writes a lake of files small files of three known
// formats — forty records, two to three kilobytes a file — and returns
// its bytes and a func that crawls it into a fresh store with
// checkpoints. The registry, which knows the three formats, is shared
// between lakes.
func smallFilesLake(tb testing.TB, reg *Registry, files int) (int64, func()) {
	root := tb.TempDir()
	var size int64
	for f := 0; f < files; f++ {
		rel, content := smallFile(f)
		full := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			tb.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			tb.Fatal(err)
		}
		size += int64(len(content))
	}
	return size, func() {
		store, err := OpenSegmentStore(tb.TempDir())
		if err != nil {
			tb.Fatal(err)
		}
		txn := store.Begin()
		res, err := IndexContext(context.Background(), root, reg, Config{Workers: 2, Checkpoints: follow.NewStore(), Segments: txn})
		if err != nil || res.Summary.CacheHits != files {
			tb.Fatalf("crawl: %v, %+v", err, res)
		}
		if err := txn.Commit(); err != nil {
			tb.Fatal(err)
		}
	}
}

// smallFile is file f of a small-files lake: its path and its content.
func smallFile(f int) (string, string) {
	states, verbs, codes := []string{"DONE", "FAILED", "RUNNING"}, []string{"GET", "PUT", "POST"}, []int{200, 404, 500}
	seed := int64(100 + f)
	switch f % 3 {
	case 0:
		return fmt.Sprintf("req/req-%03d.log", f), laketest.RequestsLog(seed, 40, verbs, 10000, codes)
	case 1:
		return fmt.Sprintf("jobs/jobs-%03d.log", f), laketest.JobsLog(seed, 40, 90000, 6, states)
	}
	return fmt.Sprintf("metrics/metrics-%03d.log", f), laketest.MetricsLog(seed, 40)
}

// smallFilesRegistry discovers the three formats of a small-files lake.
func smallFilesRegistry(tb testing.TB) *Registry {
	reg := NewRegistry()
	for f := 0; f < 3; f++ {
		_, content := smallFile(f)
		if e, _, err := discoverSample(context.Background(), []byte(content), reg, core.Options{}); err != nil || e == nil {
			tb.Fatalf("no profile for format %d: %v", f, err)
		}
	}
	return reg
}

// TestCrawlSmallFilesBytes holds what a crawl of small files allocates,
// in bytes, at two file counts to one ceiling of the form 1.5 MiB +
// 60 KiB per file, about twice what it measures. With the extraction
// scratch and the segment writer borrowed per worker, a file costs its
// sample, its records and its manifest and checkpoint entries — about
// 30 KB. Building them per file — a 1 MiB chunk buffer before the first
// record is read, the stage windows, the writer's column buffers and
// distinct sets — is over a mebibyte a file and fails either count
// twentyfold. This per-file slope is what a benchmark over large files
// cannot see.
func TestCrawlSmallFilesBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	reg := smallFilesRegistry(t)
	for _, files := range smallFileSizes {
		_, crawl := smallFilesLake(t, reg, files)
		_, bytes := costOf(5, nil, crawl)
		ceiling := uint64(1536<<10 + files*60<<10)
		if bytes > ceiling {
			t.Errorf("crawling %d small files: %d bytes allocated, ceiling %d", files, bytes, ceiling)
		}
	}
}

// BenchmarkCrawlSmallFiles crawls a lake of small files at the two file
// counts TestCrawlSmallFilesBytes pins: the per-file slope of the crawl,
// what a file costs before its first record.
func BenchmarkCrawlSmallFiles(b *testing.B) {
	reg := smallFilesRegistry(b)
	for _, files := range smallFileSizes {
		b.Run(fmt.Sprintf("files=%d", files), func(b *testing.B) {
			size, crawl := smallFilesLake(b, reg, files)
			b.SetBytes(size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				crawl()
			}
		})
	}
}
