package core_test

// Failure-injection tests: corrupted records, truncation, binary bytes
// and adversarial shapes must degrade gracefully (records lost become
// noise), never panic or mis-span.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"datamaran/internal/core"
)

func cleanCSV(rows int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&b, "%d,%s,%d\n", rng.Intn(100000), []string{"ok", "warn", "err"}[rng.Intn(3)], rng.Intn(1000))
	}
	return []byte(b.String())
}

func TestCorruptedRecordsBecomeNoise(t *testing.T) {
	data := cleanCSV(200, 1)
	// Corrupt ~5% of lines by deleting their commas.
	lines := strings.Split(string(data), "\n")
	rng := rand.New(rand.NewSource(2))
	corrupted := 0
	for i := range lines {
		if lines[i] != "" && rng.Intn(20) == 0 {
			lines[i] = strings.ReplaceAll(lines[i], ",", " CORRUPT ")
			corrupted++
		}
	}
	res, err := extract([]byte(strings.Join(lines, "\n")), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Structures) == 0 {
		t.Fatal("corruption destroyed extraction entirely")
	}
	if res.Structures[0].Records < 200-corrupted-5 {
		t.Fatalf("records = %d, want about %d", res.Structures[0].Records, 200-corrupted)
	}
}

func TestTruncatedFinalRecord(t *testing.T) {
	data := cleanCSV(100, 3)
	// Truncate mid-way through the last line (no trailing newline).
	data = data[:len(data)-4]
	res, err := extract(data, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Structures) == 0 || res.Structures[0].Records < 99 {
		t.Fatalf("truncation broke extraction: %+v", res.Structures)
	}
}

func TestBinaryGarbageLines(t *testing.T) {
	data := cleanCSV(150, 4)
	garbage := []byte{0x00, 0x01, 0xFF, 0xFE, 0x80, 0x7F, '\n'}
	mixed := append(append(append([]byte{}, garbage...), data...), garbage...)
	res, err := extract(mixed, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Structures) == 0 || res.Structures[0].Records < 150 {
		t.Fatalf("binary garbage broke extraction: %+v", res.Structures)
	}
	// Field spans must stay within bounds.
	for _, r := range res.Records {
		for _, f := range r.Fields {
			if f.Start < 0 || f.End > len(mixed) || f.Start > f.End {
				t.Fatalf("field span out of bounds: %+v", f)
			}
		}
	}
}

func TestVeryLongSingleLine(t *testing.T) {
	// An 8 KB single line among normal records must not blow up the
	// window enumeration (MaxRecordBytes guard). The junk line must stay
	// below (1-α) of the bytes or the records honestly fall under the
	// coverage threshold (coverage is defined over total dataset bytes).
	var b strings.Builder
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&b, "%d,%d\n", i, i*7)
	}
	b.WriteString(strings.Repeat("x", 8<<10) + "\n")
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&b, "%d,%d\n", i, i*3)
	}
	res, err := extract([]byte(b.String()), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Structures) == 0 || res.Structures[0].Records < 600 {
		t.Fatalf("long line broke extraction: %+v", res.Structures)
	}
}

func TestAllIdenticalLines(t *testing.T) {
	// Zero-entropy data: the enum typing collapses every column to one
	// value; extraction must still identify per-line records.
	data := strings.Repeat("a,b,c\n", 200)
	res, err := extract([]byte(data), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range res.Structures {
		total += s.Records
	}
	if total == 0 {
		t.Fatal("no records from identical lines")
	}
}

func TestEmptyLinesInterspersed(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second full-pipeline case")
	}
	var b strings.Builder
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 150; i++ {
		if rng.Intn(10) == 0 {
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "k=%d v=%d\n", rng.Intn(100), rng.Intn(100))
	}
	res, err := extract([]byte(b.String()), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Structures) == 0 || res.Structures[0].Records < 140 {
		t.Fatalf("empty lines broke extraction: %+v", res.Structures)
	}
}

func TestRecordsWithEmptyFields(t *testing.T) {
	// CSV with frequently empty cells.
	rng := rand.New(rand.NewSource(6))
	var b strings.Builder
	for i := 0; i < 150; i++ {
		a, c := fmt.Sprintf("%d", rng.Intn(100)), fmt.Sprintf("%d", rng.Intn(100))
		if rng.Intn(4) == 0 {
			a = ""
		}
		if rng.Intn(4) == 0 {
			c = ""
		}
		fmt.Fprintf(&b, "%s,%s,%d\n", a, c, rng.Intn(10))
	}
	res, err := extract([]byte(b.String()), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Structures) == 0 || res.Structures[0].Records != 150 {
		t.Fatalf("empty fields broke extraction: %+v", res.Structures)
	}
}

func TestAlphaExtremes(t *testing.T) {
	data := cleanCSV(100, 7)
	// α so high nothing qualifies: no structures, all noise.
	res, err := extract(data, core.Options{Alpha: 0.999})
	if err != nil {
		t.Fatal(err)
	}
	// α=0.999 still admits a 100%-coverage template; α beyond 1 cannot.
	res2, err := extract(data, core.Options{Alpha: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Structures) != 0 {
		t.Fatalf("alpha > 1 should extract nothing, got %d structures", len(res2.Structures))
	}
	_ = res
}
