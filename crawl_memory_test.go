package datamaran_test

import (
	"bytes"
	"fmt"
	"io/fs"
	"math"
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

// crawlBatchHeap bounds, per extract worker, what a crawl's peak heap may
// gain when its files grow: the scratch of one batch — its window, which a
// stage holds up to about two shards of, the window's line index,
// candidates and field occurrences, some ten times the window in all —
// and the garbage of a scratch grown past what the pipeline's pool keeps.
// A worker streams each file's batches into its staged segments, so
// neither grows with the file past that; 20–33 MiB per worker is
// measured on the test's lake. When a worker held one file's records
// until the file was stored, the same growth was 122–185 MiB per worker.
const crawlBatchHeap = 64 << 20

// crawlAllocPerByte is the ceiling on the bytes a store crawl allocates
// per input byte, its formats already known: 2.1–3.2 is measured — more
// when a collection has just emptied the pools a crawl's scratch comes
// from — and the rest is headroom. When every record was built, then made
// a []string row, then encoded, 14–15 were allocated.
const crawlAllocPerByte = 6

// structuredLake writes the fixture lake's four largest structured
// files, each repeated repeat times, under root, and returns the bytes
// it wrote. The files are one shard or more at repeat 160.
func structuredLake(tb testing.TB, root string, repeat int) int64 {
	tb.Helper()
	var total int64
	for _, rel := range []string{"web/requests-3.log", "web/requests-2.log", "metrics/metrics-3.log", "jobs/job-4.log"} {
		data, err := os.ReadFile(filepath.Join("testdata/lake", rel))
		if err != nil {
			tb.Fatal(err)
		}
		data = bytes.Repeat(data, repeat)
		out := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			tb.Fatal(err)
		}
		if err := os.WriteFile(out, data, 0o644); err != nil {
			tb.Fatal(err)
		}
		total += int64(len(data))
	}
	return total
}

// TestCrawlPeakHeapIndependentOfFileSize: a crawl streams each file into
// the store a batch at a time. Four files, then the same four eight
// times larger, are crawled into a store with two workers; the peak heap
// in use may grow by at most crawlBatchHeap per worker.
func TestCrawlPeakHeapIndependentOfFileSize(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not meaningful under the race detector")
	}
	crawl := func(repeat int) (peak uint64, input int64) {
		dir := t.TempDir()
		input = structuredLake(t, filepath.Join(dir, "lake"), repeat)
		return measureCrawl(t, filepath.Join(dir, "lake"), dir).peak, input
	}
	crawl(160) // warm-up: one-time allocations count in neither run
	peak1, in1 := crawl(160)
	peak8, in8 := crawl(8 * 160)
	const workers = 2
	t.Logf("peak heap in use: %.1f MiB for %.1f MiB of input, %.1f MiB for %.1f MiB",
		float64(peak1)/(1<<20), float64(in1)/(1<<20), float64(peak8)/(1<<20), float64(in8)/(1<<20))
	if grew := int64(peak8) - int64(peak1); grew > workers*crawlBatchHeap {
		t.Fatalf("eight times larger files raised the peak heap by %.1f MiB, more than %d workers' batches (%d MiB): the crawl holds a file's records",
			float64(grew)/(1<<20), workers, workers*crawlBatchHeap>>20)
	}
}

// TestCrawlAllocsPerInputByte is the allocation ceiling of the crawl's
// extract and write path: a crawl of known formats into a fresh store
// allocates at most crawlAllocPerByte per input byte. The prose notes
// are left out, whose discovery a crawl reruns until they are
// checkpointed: it allocates by the sample, not by the byte.
func TestCrawlAllocsPerInputByte(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	dir := t.TempDir()
	root := filepath.Join(dir, "lake")
	input := copyLake(t, root, 1, 20)
	notes, err := os.ReadDir(filepath.Join(root, "r0", "notes"))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range notes {
		info, err := n.Info()
		if err != nil {
			t.Fatal(err)
		}
		input -= info.Size()
	}
	if err := os.RemoveAll(filepath.Join(root, "r0", "notes")); err != nil {
		t.Fatal(err)
	}
	learned := filepath.Join(dir, "registry.json")
	if _, err := datamaran.IndexDir(root, datamaran.IndexOptions{RegistryPath: learned, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	registry, err := os.ReadFile(learned)
	if err != nil {
		t.Fatal(err)
	}
	// The least of three crawls: the first also grows the pools the
	// others reuse.
	perByte := math.Inf(1)
	for i := 0; i < 3; i++ {
		state := filepath.Join(dir, fmt.Sprintf("state%d", i))
		if err := os.MkdirAll(state, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(state, "registry.json"), registry, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := datamaran.IndexDir(root, datamaran.IndexOptions{
			RegistryPath: filepath.Join(state, "registry.json"),
			StorePath:    filepath.Join(state, "store"),
			Workers:      2,
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.Summary.Failed != 0 || res.Summary.CacheHits != res.Summary.Files {
			t.Fatalf("crawl summary %+v: every file must be claimed by a known format", res.Summary)
		}
		perByte = min(perByte, float64(after.TotalAlloc-before.TotalAlloc)/float64(input))
	}
	t.Logf("%.2f B allocated per input byte (%d bytes)", perByte, input)
	if perByte > crawlAllocPerByte {
		t.Fatalf("a store crawl allocated %.2f B per input byte, more than %d: it builds what it stores", perByte, crawlAllocPerByte)
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
