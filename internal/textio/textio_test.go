package textio

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestLinesBasic(t *testing.T) {
	l := NewLines([]byte("a\nbb\nccc\n"))
	if got := l.N(); got != 3 {
		t.Fatalf("N() = %d, want 3", got)
	}
	if got := string(l.Line(0)); got != "a\n" {
		t.Errorf("Line(0) = %q", got)
	}
	if got := string(l.Line(1)); got != "bb\n" {
		t.Errorf("Line(1) = %q", got)
	}
	if got := string(l.Line(2)); got != "ccc\n" {
		t.Errorf("Line(2) = %q", got)
	}
}

func TestLinesNoTrailingNewline(t *testing.T) {
	l := NewLines([]byte("a\nb"))
	if got := l.N(); got != 2 {
		t.Fatalf("N() = %d, want 2", got)
	}
	if got := string(l.Line(1)); got != "b" {
		t.Errorf("Line(1) = %q, want \"b\"", got)
	}
}

func TestLinesEmpty(t *testing.T) {
	l := NewLines(nil)
	if got := l.N(); got != 0 {
		t.Fatalf("N() = %d, want 0", got)
	}
}

func TestLinesSingleNewline(t *testing.T) {
	l := NewLines([]byte("\n"))
	if got := l.N(); got != 1 {
		t.Fatalf("N() = %d, want 1", got)
	}
	if got := string(l.Line(0)); got != "\n" {
		t.Errorf("Line(0) = %q", got)
	}
}

func TestLinesEmptyLines(t *testing.T) {
	l := NewLines([]byte("\n\nx\n\n"))
	if got := l.N(); got != 4 {
		t.Fatalf("N() = %d, want 4", got)
	}
	if got := string(l.Line(2)); got != "x\n" {
		t.Errorf("Line(2) = %q", got)
	}
	if got := string(l.Line(3)); got != "\n" {
		t.Errorf("Line(3) = %q", got)
	}
}

func TestLinesSlice(t *testing.T) {
	l := NewLines([]byte("a\nbb\nccc\ndddd\n"))
	if got := string(l.Slice(1, 3)); got != "bb\nccc\n" {
		t.Fatalf("Slice(1,3) = %q", got)
	}
	if got := string(l.Slice(0, l.N())); got != "a\nbb\nccc\ndddd\n" {
		t.Fatalf("full Slice = %q", got)
	}
	if got := string(l.Slice(2, 2)); got != "" {
		t.Fatalf("empty Slice = %q", got)
	}
}

func TestLinesStart(t *testing.T) {
	data := []byte("ab\ncd\n")
	l := NewLines(data)
	if got := l.Start(0); got != 0 {
		t.Errorf("Start(0) = %d", got)
	}
	if got := l.Start(1); got != 3 {
		t.Errorf("Start(1) = %d", got)
	}
	if got := l.Start(2); got != len(data) {
		t.Errorf("Start(N) = %d, want %d", got, len(data))
	}
}

// Property: concatenating all lines reproduces the input exactly.
func TestQuickLinesRoundTrip(t *testing.T) {
	f := func(raw []byte) bool {
		l := NewLines(raw)
		var buf bytes.Buffer
		for i := 0; i < l.N(); i++ {
			buf.Write(l.Line(i))
		}
		return bytes.Equal(buf.Bytes(), raw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: every line except possibly the last ends in '\n', and no line
// contains an interior '\n'.
func TestQuickLinesShape(t *testing.T) {
	f := func(raw []byte) bool {
		l := NewLines(raw)
		for i := 0; i < l.N(); i++ {
			line := l.Line(i)
			if len(line) == 0 {
				return false
			}
			interior := line[:len(line)-1]
			if bytes.IndexByte(interior, '\n') >= 0 {
				return false
			}
			if i < l.N()-1 && line[len(line)-1] != '\n' {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSamplerSmallDataUnchanged(t *testing.T) {
	data := []byte("a\nb\nc\n")
	s := Sampler{Budget: 100}
	got := s.Sample(data)
	if !bytes.Equal(got, data) {
		t.Fatalf("Sample of small data = %q, want unchanged", got)
	}
}

func TestSamplerZeroBudgetUnchanged(t *testing.T) {
	data := []byte(strings.Repeat("line\n", 1000))
	s := Sampler{}
	if got := s.Sample(data); !bytes.Equal(got, data) {
		t.Fatal("zero budget should disable sampling")
	}
}

func TestSamplerRespectsBudget(t *testing.T) {
	data := []byte(strings.Repeat("0123456789\n", 10000))
	s := Sampler{Budget: 4096, Seed: 7}
	got := s.Sample(data)
	if len(got) > 4096+11 {
		t.Fatalf("sample size %d exceeds budget 4096 (+1 line slack)", len(got))
	}
	if len(got) == 0 {
		t.Fatal("sample should not be empty")
	}
}

func TestSamplerCutsAtLineBoundaries(t *testing.T) {
	data := []byte(strings.Repeat("alpha,beta,gamma\n", 5000))
	s := Sampler{Budget: 2048, Seed: 3}
	got := s.Sample(data)
	for _, ln := range bytes.SplitAfter(got, []byte{'\n'}) {
		if len(ln) == 0 {
			continue
		}
		if !bytes.HasSuffix(ln, []byte{'\n'}) && !bytes.Equal(ln, []byte("alpha,beta,gamma")) {
			t.Fatalf("sample contains partial line %q", ln)
		}
		if bytes.HasSuffix(ln, []byte{'\n'}) && string(ln) != "alpha,beta,gamma\n" {
			t.Fatalf("sample contains mangled line %q", ln)
		}
	}
}

func TestSamplerDeterministic(t *testing.T) {
	data := []byte(strings.Repeat("0123456789\n", 10000))
	a := Sampler{Budget: 4096, Seed: 42}.Sample(data)
	b := Sampler{Budget: 4096, Seed: 42}.Sample(data)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed should give same sample")
	}
}

func TestSamplerCoversFile(t *testing.T) {
	// Lines in the second half of the file must appear in the sample:
	// chunks are stratified across the file.
	var sb strings.Builder
	for i := 0; i < 10000; i++ {
		if i < 5000 {
			sb.WriteString("first\n")
		} else {
			sb.WriteString("second\n")
		}
	}
	got := Sampler{Budget: 8192, Seed: 1}.Sample([]byte(sb.String()))
	if !bytes.Contains(got, []byte("second")) {
		t.Fatal("sample never reached the second half of the file")
	}
	if !bytes.Contains(got, []byte("first")) {
		t.Fatal("sample never covered the first half of the file")
	}
}

func TestLinesLastLineOnlyNewlines(t *testing.T) {
	l := NewLines([]byte("\n\n\n"))
	if l.N() != 3 {
		t.Fatalf("N = %d", l.N())
	}
	for i := 0; i < 3; i++ {
		if string(l.Line(i)) != "\n" {
			t.Fatalf("line %d = %q", i, l.Line(i))
		}
	}
}

func TestSamplerBudgetLargerThanData(t *testing.T) {
	data := []byte("one\ntwo\n")
	got := Sampler{Budget: 1 << 20}.Sample(data)
	if &got[0] != &data[0] {
		t.Fatal("sample should alias the input when it fits the budget")
	}
}

func TestSamplerSingleChunk(t *testing.T) {
	data := []byte(strings.Repeat("abcdefgh\n", 2000))
	got := Sampler{Budget: 512, Chunks: 1, Seed: 5}.Sample(data)
	if len(got) == 0 || len(got) > 512+9 {
		t.Fatalf("sample size %d", len(got))
	}
}

func TestSamplerNoNewlines(t *testing.T) {
	data := bytes.Repeat([]byte{'x'}, 10000)
	got := Sampler{Budget: 128, Seed: 1}.Sample(data)
	if len(got) == 0 {
		t.Fatal("sample empty for newline-free data")
	}
}

// TestLinesResetMatchesNewLines: one index Reset over a sequence of buffers
// — shrinking, then growing past anything it held — reads exactly like a
// fresh NewLines of each, and both like the byte-at-a-time definition (a
// line starts at 0 and after every '\n' but the last byte's).
func TestLinesResetMatchesNewLines(t *testing.T) {
	inputs := []string{
		"a\nbb\nccc\n",
		"",
		"tail without newline",
		"x\nunterminated",
		"\n",
		"\n\n\n",
		strings.Repeat("shrinking from here\n", 40),
		"two\nlines\n",
		"",
		"\n",
		strings.Repeat("growing past every earlier index\n\n", 200) + "end",
	}
	var reused Lines
	for i, in := range inputs {
		data := []byte(in)
		var want []int
		for j := range data {
			if j == 0 || data[j-1] == '\n' {
				want = append(want, j)
			}
		}
		want = append(want, len(data))

		reused.Reset(data)
		for name, l := range map[string]*Lines{"Reset": &reused, "NewLines": NewLines(data)} {
			if l.N() != len(want)-1 {
				t.Fatalf("input %d, %s: N() = %d, want %d", i, name, l.N(), len(want)-1)
			}
			for k, w := range want {
				if l.Start(k) != w {
					t.Fatalf("input %d, %s: Start(%d) = %d, want %d", i, name, k, l.Start(k), w)
				}
				if line, ok := l.AlignedLine(w); !ok || line != k {
					t.Fatalf("input %d, %s: AlignedLine(%d) = %d, %v, want %d", i, name, w, line, ok, k)
				}
			}
			for k := 0; k < l.N(); k++ {
				if got := string(l.Line(k)); got != in[want[k]:want[k+1]] {
					t.Fatalf("input %d, %s: Line(%d) = %q", i, name, k, got)
				}
			}
			if !bytes.Equal(l.Data(), data) {
				t.Fatalf("input %d, %s: Data() is not the buffer it indexes", i, name)
			}
		}
	}
}

// requireSameIndex fails unless got indexes exactly what want does.
func requireSameIndex(t *testing.T, label string, got, want *Lines) {
	t.Helper()
	if got.N() != want.N() || !bytes.Equal(got.Data(), want.Data()) {
		t.Fatalf("%s: N() = %d over %q, want %d over %q", label, got.N(), got.Data(), want.N(), want.Data())
	}
	for k := 0; k <= want.N(); k++ {
		if got.Start(k) != want.Start(k) {
			t.Fatalf("%s: Start(%d) = %d, want %d", label, k, got.Start(k), want.Start(k))
		}
	}
}

// TestLinesExtendAndDropMatchReset grows one index piece by piece, the way
// the extraction engine feeds a window — pieces cut anywhere, mid-line
// included — and cuts decided lines off its front, checking after every
// step that it reads exactly like a fresh index of the same bytes.
func TestLinesExtendAndDropMatchReset(t *testing.T) {
	inputs := []string{
		"a\nbb\nccc\n",
		"tail without newline",
		"x\nunterminated",
		"\n\n\n",
		strings.Repeat("some line\n\n", 20) + "end",
	}
	for _, in := range inputs {
		for _, piece := range []int{1, 2, 3, 7, len(in)} {
			for _, drop := range []int{0, 1, 2} {
				label := fmt.Sprintf("%q/piece%d/drop%d", in[:min(len(in), 12)], piece, drop)
				var l Lines
				var buf []byte
				for off := 0; off < len(in); off += piece {
					buf = append(buf, in[off:min(off+piece, len(in))]...)
					l.Extend(buf)
					requireSameIndex(t, label+"/extend", &l, NewLines(buf))
					// Drop only whole lines the next piece cannot extend.
					if k := min(drop, l.N()-1); k > 0 {
						buf = append(buf[:0], buf[l.Start(k):]...)
						l.Drop(k, buf)
						requireSameIndex(t, label+"/drop", &l, NewLines(buf))
					}
				}
			}
		}
	}
	var l Lines
	l.Extend(nil)
	if l.N() != 0 {
		t.Fatalf("empty Extend: N() = %d", l.N())
	}
}
