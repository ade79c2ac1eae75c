package datamaran_test

import (
	"bytes"
	"testing"

	"datamaran"
	"datamaran/internal/datagen"
)

// TestStreamApplyAllocsPerBatch pins the apply path's allocation contract:
// a batch allocates one set of slabs (record text, field values, array
// occurrences) per worker, and nothing per record or per field. The same
// profile is applied, at one shard and one worker, to inputs of 2 000 and of
// 10 000 records — 30 000 and 150 000 fields; the larger just fits the
// default shard, so its scratch (some ten times its bytes) is one the
// engine's pool keeps. The chunk buffer and the stage's scratch are
// borrowed from that pool, already grown by the warm-up run, so the two
// runs allocate the same two dozen objects — the run's own fixtures and one
// set of slabs; the slack is one scratch built anew in a run whose pool a
// collection had just emptied. One allocation per record would differ by
// 8 000.
func TestStreamApplyAllocsPerBatch(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	learned, err := datamaran.Extract(datagen.WebServerLog(300, 7).Data, datamaran.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := learned.Profile()
	opts := datamaran.Options{Workers: 1, ShardSize: 1 << 20}
	allocs := func(rows int) float64 {
		data := datagen.WebServerLog(rows, 13).Data
		if len(data) >= opts.ShardSize {
			t.Fatalf("%d rows are %d bytes: more than the one shard the test assumes", rows, len(data))
		}
		return testing.AllocsPerRun(3, func() {
			records, fields := 0, 0
			_, err := datamaran.ExtractStreamWithProfile(bytes.NewReader(data), p, opts, func(r datamaran.Record) error {
				records++
				fields += len(r.Fields)
				return nil
			})
			if err != nil || records != rows || fields < 10*rows {
				t.Fatalf("%d rows: %d records, %d fields, err %v", rows, records, fields, err)
			}
		})
	}
	small, large := allocs(2000), allocs(10000)
	t.Logf("allocations: %.0f at 2 000 records, %.0f at 10 000", small, large)
	if large-small > 10 || small > 40 {
		t.Fatalf("%.0f allocations for 2 000 records, %.0f for 10 000: the apply path allocates per record", small, large)
	}
}

// --- The streaming sharded engine (§5.2.2's parallel extraction pass) ---

// streamBenchInput builds a multi-megabyte log by tiling a generated
// dataset, so extraction (not discovery) dominates the run.
func streamBenchInput(mb int) []byte {
	block := datagen.WebServerLog(4000, 7).Data
	out := make([]byte, 0, mb<<20)
	for len(out) < mb<<20 {
		out = append(out, block...)
	}
	return out
}

// streamApply is the apply path alone: a profile learned once from a
// small sample of the same generator, and a func that streams data
// through it at the default shard size on the given workers.
func streamApply(tb testing.TB, data []byte, workers int) func() {
	learned, err := datamaran.Extract(datagen.WebServerLog(300, 7).Data, datamaran.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	p := learned.Profile()
	return func() {
		records := 0
		res, err := datamaran.ExtractStreamWithProfile(bytes.NewReader(data), p, datamaran.Options{Workers: workers},
			func(datamaran.Record) error { records++; return nil })
		if err != nil {
			tb.Fatal(err)
		}
		if records == 0 || len(res.NoiseLines) > 0 {
			tb.Fatalf("%d records, %d noise lines: the learned profile does not cover the input", records, len(res.NoiseLines))
		}
	}
}

// TestStreamExtract16MBAllocs holds the apply path over 16 MiB, at the
// default 1 MiB shard, to a constant plus a per-shard term × 16: 5 a
// shard at one worker, 32 at two. A batch allocates one set of record
// slabs (text, field values, array occurrences) per fill range and
// nothing per record or per field — its chunk is read into a buffer the
// run borrowed, and its line index, candidates, per-worker occurrence
// arenas and both header buffers are scratch the run grows once. At one
// worker the batch is one range; two workers cut it into eight and add
// the goroutines of a batch's two fan-outs (match, fill). A regression to
// one string per field is two million allocations over either ceiling;
// an arena or header buffer grown per batch is dozens a shard.
func TestStreamExtract16MBAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	data := streamBenchInput(16)
	for _, c := range []struct{ workers, perShard int }{{1, 5}, {2, 32}} {
		allocs, ceiling := testing.AllocsPerRun(3, streamApply(t, data, c.workers)), float64(60+c.perShard*16)
		if allocs > ceiling {
			t.Errorf("streaming 16 MiB on %d workers: %.0f allocations, ceiling %.0f", c.workers, allocs, ceiling)
		}
	}
}

// benchStream times streamApply; TestStreamExtract16MBAllocs pins its
// allocations at one worker and at two.
func benchStream(b *testing.B, data []byte, workers int) {
	apply := streamApply(b, data, workers)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		apply()
	}
}

func BenchmarkStreamExtract16MBWorkers1(b *testing.B) { benchStream(b, streamBenchInput(16), 1) }
func BenchmarkStreamExtract16MBWorkers2(b *testing.B) { benchStream(b, streamBenchInput(16), 2) }
func BenchmarkStreamExtract16MBWorkers4(b *testing.B) { benchStream(b, streamBenchInput(16), 4) }

// BenchmarkStreamVsInMemory16MB is the baseline for the worker-scaling
// benches above: the same input through the slice door on one worker,
// discovered whole instead of from a prefix.
func BenchmarkStreamVsInMemory16MB(b *testing.B) {
	data := streamBenchInput(16)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := datamaran.Extract(data, datamaran.Options{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
