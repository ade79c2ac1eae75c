package datamaran_test

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"testing"
	"time"

	"datamaran"
)

// crawlBytesPerFile bounds what a finished crawl holds per file while
// its result is held: the file's IndexedFile — path, fingerprint, resume
// reason, counts — and nothing of its records; ≈260 B is measured. When
// a crawl kept every file's records, the fixture lake's files held
// ≈57 KiB each.
const crawlBytesPerFile = 1 << 10

// copyLake writes replicas copies of the fixture lake under dst, one
// directory each, with the content of every structured file repeated
// repeat times (the prose notes are copied once), and returns the bytes
// it wrote.
func copyLake(tb testing.TB, dst string, replicas, repeat int) int64 {
	tb.Helper()
	var total int64
	err := filepath.WalkDir("testdata/lake", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel("testdata/lake", path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if !strings.HasPrefix(rel, "notes") {
			data = bytes.Repeat(data, repeat)
		}
		for r := 0; r < replicas; r++ {
			out := filepath.Join(dst, fmt.Sprintf("r%d", r), rel)
			if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
				return err
			}
			if err := os.WriteFile(out, data, 0o644); err != nil {
				return err
			}
			total += int64(len(data))
		}
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	return total
}

// crawlHeap is what one crawl cost in heap.
type crawlHeap struct {
	res *datamaran.IndexResult
	// live is the heap the crawl left live, its result held (negative
	// when the crawl let go of more than it kept).
	live int64
	// peak is the most heap in use (the bytes of heap objects, live and
	// not yet swept) seen while the crawl ran, sampled every 5 ms.
	peak uint64
}

// settledHeap collects twice — the second collection frees what the
// first left in the pools' victim caches — and returns the heap that
// survives.
func settledHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// measureCrawl crawls root into a fresh registry and store under state
// with two workers, the way `datamaran index -store` does.
func measureCrawl(tb testing.TB, root, state string) crawlHeap {
	tb.Helper()
	base := settledHeap()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	var peak uint64
	done, sampled := make(chan struct{}), sync.WaitGroup{}
	sampled.Add(1)
	go func() {
		defer sampled.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	res, err := datamaran.IndexDir(root, datamaran.IndexOptions{
		RegistryPath: filepath.Join(state, "registry.json"),
		StorePath:    filepath.Join(state, "store"),
		Workers:      2,
	})
	close(done)
	sampled.Wait()
	if err != nil {
		tb.Fatal(err)
	}
	if res.Summary.Failed != 0 || res.Summary.Structured == 0 {
		tb.Fatalf("crawl summary %+v", res.Summary)
	}
	live := int64(settledHeap()) - int64(base)
	runtime.KeepAlive(res)
	return crawlHeap{res: res, live: live, peak: peak}
}

// TestCrawlHeapIndependentOfLakeSize: a crawl holds counts, not records.
// The fixture lake, replicated once and eight times by file count with
// every file's size fixed, is crawled into a store with two workers. With
// the result still held, the live heap may grow by at most
// crawlBytesPerFile per added file.
func TestCrawlHeapIndependentOfLakeSize(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not meaningful under the race detector")
	}
	crawl := func(replicas int) (live int64, files int) {
		dir := t.TempDir()
		copyLake(t, filepath.Join(dir, "lake"), replicas, 1)
		h := measureCrawl(t, filepath.Join(dir, "lake"), dir)
		return h.live, h.res.Summary.Files
	}
	crawl(1) // warm-up: one-time allocations count in neither run
	live1, files1 := crawl(1)
	live8, files8 := crawl(8)
	perFile := (float64(live8) - float64(live1)) / float64(files8-files1)
	t.Logf("live heap, result held: %d B at %d files, %d B at %d files: %.0f B per added file",
		live1, files1, live8, files8, perFile)
	if perFile > crawlBytesPerFile {
		t.Fatalf("the crawl holds %.0f B per file, more than the %d B of its bookkeeping: it keeps records", perFile, crawlBytesPerFile)
	}
}

// BenchmarkIndexDirMemory crawls the fixture lake, replicated four times
// with every structured file's content repeated 20 and 80 times, into a
// fresh store with two workers, and reports the crawl's peak heap in use
// and the heap it leaves live per input MiB, its result held.
func BenchmarkIndexDirMemory(b *testing.B) {
	for _, repeat := range []int{20, 80} {
		dir := b.TempDir()
		root := filepath.Join(dir, "lake")
		input := copyLake(b, root, 4, repeat)
		inputMiB := float64(input) / (1 << 20)
		b.Run(fmt.Sprintf("input=%.1fMiB", inputMiB), func(b *testing.B) {
			b.SetBytes(input)
			var peak uint64
			var live int64
			records := 0
			for i := 0; i < b.N; i++ {
				state := filepath.Join(dir, fmt.Sprintf("state%d", i))
				h := measureCrawl(b, root, state)
				peak, live = max(peak, h.peak), max(live, h.live)
				records = 0
				for _, f := range h.res.Files {
					records += f.TotalRecords
				}
				b.StopTimer()
				if err := os.RemoveAll(state); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(records), "records")
			b.ReportMetric(float64(peak)/(1<<20), "peak-heap-MiB")
			b.ReportMetric(float64(live)/(1<<20), "live-MiB")
			b.ReportMetric(float64(live)/(1<<20)/inputMiB, "live-MiB/input-MiB")
		})
	}
}
