package generation_test

import (
	"testing"

	"datamaran/internal/datagen"
	"datamaran/internal/generation"
	"datamaran/internal/textio"
)

// benchLines is the generation benchmark input: a 16 MiB web-server-log
// corpus cut down to the 512 KiB sample the
// discovery pipeline actually hands the generation step (core's
// SampleBudget). Throughput numbers are MiB/s over the sample.
func benchLines(b *testing.B) *textio.Lines {
	b.Helper()
	block := datagen.WebServerLog(4000, 7).Data
	data := make([]byte, 0, 16<<20)
	for len(data) < 16<<20 {
		data = append(data, block...)
	}
	sampler := textio.Sampler{Budget: 512 << 10, Seed: 7}
	return textio.NewLines(sampler.Sample(data))
}

func BenchmarkGeneration(b *testing.B) {
	lines := benchLines(b)
	b.SetBytes(int64(len(lines.Data())))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		generation.Generate(lines, generation.Config{})
	}
}

func BenchmarkGenerationGreedy(b *testing.B) {
	lines := benchLines(b)
	b.SetBytes(int64(len(lines.Data())))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		generation.Generate(lines, generation.Config{Search: generation.Greedy})
	}
}

// BenchmarkGenerationReference measures the frozen pre-interning engine
// on the same input, so the speedup of the rewrite stays visible in one
// `go test -bench Generation` run.
func BenchmarkGenerationReference(b *testing.B) {
	lines := benchLines(b)
	b.SetBytes(int64(len(lines.Data())))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		generation.GenerateReference(lines, generation.Config{})
	}
}

// BenchmarkGenerationManyShapes runs Generate where it is slow: three of
// the benchmark's Table-5 analogs, at its scale and seed-1 variant, whose
// windows reduce to tens of thousands of distinct templates (heterogeneous
// lines, long records) — the homogeneous web log above has a few hundred.
// Nearly all of those templates never reach α, so what this pins
// (scripts/bench_allocs.sh) is that a template costs its table entry, not a
// tree: a tree per distinct window is 4.8–6.1 M allocations on each input.
func BenchmarkGenerationManyShapes(b *testing.B) {
	for _, in := range []struct {
		name string
		d    *datagen.Dataset
	}{
		{"MacASL", datagen.MacASLLog(150, 6003)},
		{"LogFile5", datagen.LogFile5(75, 6024)},
		{"Netstat", datagen.NetstatOutput(150, 6008)},
	} {
		lines := textio.NewLines(in.d.Data)
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				generation.Generate(lines, generation.Config{})
			}
		})
	}
}
