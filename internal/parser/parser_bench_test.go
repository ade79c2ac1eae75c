package parser

import (
	"strings"
	"testing"

	"datamaran/internal/template"
	"datamaran/internal/textio"
)

func benchLines(rows int) *textio.Lines {
	var b strings.Builder
	for i := 0; i < rows; i++ {
		b.WriteString("12,alpha,3.5,OK\n")
	}
	return textio.NewLines([]byte(b.String()))
}

func benchTemplate() *template.Node {
	return template.Struct(
		template.Field(), template.Lit(","), template.Field(), template.Lit(","),
		template.Field(), template.Lit("."), template.Field(), template.Lit(","),
		template.Field(), template.Lit("\n"),
	).Normalize()
}

func BenchmarkScanSequential(b *testing.B) {
	lines := benchLines(5000)
	m := NewMatcher(benchTemplate())
	b.SetBytes(int64(len(lines.Data())))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Scan(lines)
	}
}

func BenchmarkMatchSingleRecord(b *testing.B) {
	data := []byte("12,alpha,3.5,OK\n")
	m := NewMatcher(benchTemplate())
	var occs []FieldOcc
	var arrays []ArrayOcc
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var ok bool
		if occs, arrays, ok = m.AppendRecord(data, 0, occs[:0], arrays[:0]); !ok {
			b.Fatal("no match")
		}
	}
}

// benchNoiseLines builds input no record of benchTemplate starts on.
func benchNoiseLines(rows int) *textio.Lines {
	var b strings.Builder
	for i := 0; i < rows; i++ {
		b.WriteString("!! unparseable noise line with spaces !!\n")
	}
	return textio.NewLines([]byte(b.String()))
}

// warmScan is the steady state the zero-allocation pins and their
// benchmarks share: a matcher of benchTemplate and a result one ScanInto
// over lines has grown. The returned func repeats that scan.
func warmScan(lines *textio.Lines) (scan func(), res *ScanResult) {
	m := NewMatcher(benchTemplate())
	res = &ScanResult{}
	m.ScanInto(lines, res)
	return func() { m.ScanInto(lines, res) }, res
}

// BenchmarkScanNoiseReject measures steady-state noise rejection through
// the reusable ScanInto; TestNoiseRejectionZeroAllocs pins it at 0
// allocs/op: rejecting a line must never touch the heap.
func BenchmarkScanNoiseReject(b *testing.B) {
	lines := benchNoiseLines(5000)
	scan, _ := warmScan(lines)
	b.SetBytes(int64(len(lines.Data())))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scan()
	}
}

// BenchmarkScanArenaReuse measures the steady-state apply path — every
// line a record — through the reusable ScanInto;
// TestApplyPathAllocsPerRecord pins it at 0 allocs/op: arena reuse must
// make repeated scans allocation-free.
func BenchmarkScanArenaReuse(b *testing.B) {
	lines := benchLines(5000)
	scan, _ := warmScan(lines)
	b.SetBytes(int64(len(lines.Data())))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scan()
	}
}
