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

// manyShapes are three of the benchmark's Table-5 analogs, at its scale
// and seed-1 variant, whose windows reduce to tens of thousands of
// distinct templates (heterogeneous lines, long records) — the
// homogeneous web log above has a few hundred — each with the ceiling
// TestGenerationManyShapesAllocs holds a whole Generate on it to.
var manyShapes = []struct {
	name    string
	data    func() *datagen.Dataset
	ceiling float64
}{
	{"MacASL", func() *datagen.Dataset { return datagen.MacASLLog(150, 6003) }, 3500},
	{"LogFile5", func() *datagen.Dataset { return datagen.LogFile5(75, 6024) }, 350000},
	{"Netstat", func() *datagen.Dataset { return datagen.NetstatOutput(150, 6008) }, 450000},
}

// TestGenerationManyShapesAllocs: nearly all of those templates never
// reach α, so a template must cost its table entry, not a tree. With
// templates kept as interned id sequences and trees built only for the
// candidates returned, what a Generate allocates is the table's key
// strings, the transition rows and those trees; each ceiling is about
// twice that. A tree per distinct window is 4.8–6.1 million allocations
// on each input, an order of magnitude over any ceiling.
func TestGenerationManyShapesAllocs(t *testing.T) {
	if generation.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, in := range manyShapes {
		lines := textio.NewLines(in.data().Data)
		allocs := testing.AllocsPerRun(1, func() { generation.Generate(lines, generation.Config{}) })
		if allocs > in.ceiling {
			t.Errorf("Generate on %s: %.0f allocations, ceiling %.0f", in.name, allocs, in.ceiling)
		}
	}
}

// BenchmarkGenerationManyShapes runs Generate where it is slow: on the
// manyShapes inputs.
func BenchmarkGenerationManyShapes(b *testing.B) {
	for _, in := range manyShapes {
		lines := textio.NewLines(in.data().Data)
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				generation.Generate(lines, generation.Config{})
			}
		})
	}
}
