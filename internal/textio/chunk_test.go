package textio

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
)

// readAllChunks drains a ChunkReader, asserting chunk-local invariants.
func readAllChunks(t *testing.T, cr *ChunkReader) [][]byte {
	t.Helper()
	var chunks [][]byte
	for {
		c, err := cr.Next()
		if len(c) > 0 {
			chunks = append(chunks, c)
		}
		if err == io.EOF {
			return chunks
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
	}
}

func TestChunkReaderReassembles(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&b, "line %d with some padding text\n", i)
	}
	want := b.String()
	for _, size := range []int{1, 7, 64, 300, 1 << 20} {
		cr := NewChunkReader(strings.NewReader(want), size)
		chunks := readAllChunks(t, cr)
		var got []byte
		for i, c := range chunks {
			if i < len(chunks)-1 && (len(c) == 0 || c[len(c)-1] != '\n') {
				t.Fatalf("size %d: chunk %d not line-aligned (%q...)", size, i, c[max(0, len(c)-10):])
			}
			got = append(got, c...)
		}
		if string(got) != want {
			t.Fatalf("size %d: reassembly differs (%d vs %d bytes)", size, len(got), len(want))
		}
	}
}

func TestChunkReaderNoTrailingNewline(t *testing.T) {
	in := "a,b\nc,d\nunterminated tail"
	cr := NewChunkReader(strings.NewReader(in), 4)
	chunks := readAllChunks(t, cr)
	var got []byte
	for _, c := range chunks {
		got = append(got, c...)
	}
	if string(got) != in {
		t.Fatalf("got %q, want %q", got, in)
	}
	last := chunks[len(chunks)-1]
	if !bytes.HasSuffix(last, []byte("unterminated tail")) {
		t.Fatalf("tail chunk = %q", last)
	}
}

func TestChunkReaderOversizedLine(t *testing.T) {
	long := strings.Repeat("x", 10_000)
	in := "short\n" + long + "\nshort2\n"
	cr := NewChunkReader(strings.NewReader(in), 16)
	chunks := readAllChunks(t, cr)
	var got []byte
	for i, c := range chunks {
		if c[len(c)-1] != '\n' && i != len(chunks)-1 {
			t.Fatalf("chunk %d not line-aligned", i)
		}
		got = append(got, c...)
	}
	if string(got) != in {
		t.Fatal("reassembly differs")
	}
}

func TestChunkReaderEmpty(t *testing.T) {
	cr := NewChunkReader(strings.NewReader(""), 16)
	if c, err := cr.Next(); err != io.EOF || len(c) != 0 {
		t.Fatalf("Next = %q, %v; want nil, EOF", c, err)
	}
}

// errReader fails after serving its payload.
type errReader struct {
	data []byte
	err  error
}

func (e *errReader) Read(p []byte) (int, error) {
	if len(e.data) == 0 {
		return 0, e.err
	}
	n := copy(p, e.data)
	e.data = e.data[n:]
	return n, nil
}

func TestChunkReaderSurfacesBytesBeforeError(t *testing.T) {
	boom := fmt.Errorf("boom")
	cr := NewChunkReader(&errReader{data: []byte("a\nb\nc"), err: boom}, 1<<20)
	c, err := cr.Next()
	if string(c) != "a\nb\nc" || err != nil {
		t.Fatalf("Next = %q, %v; want all bytes, nil", c, err)
	}
	if _, err := cr.Next(); err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestAlignedLine(t *testing.T) {
	l := NewLines([]byte("ab\ncd\nef"))
	cases := []struct {
		off     int
		line    int
		aligned bool
	}{
		{0, 0, true}, {3, 1, true}, {6, 2, true}, {8, 3, true},
		{1, 0, false}, {2, 0, false}, {7, 0, false},
	}
	for _, c := range cases {
		line, ok := l.AlignedLine(c.off)
		if ok != c.aligned || (ok && line != c.line) {
			t.Errorf("AlignedLine(%d) = %d, %v; want %d, %v", c.off, line, ok, c.line, c.aligned)
		}
	}
}

// TestNextIntoMatchesNext: filling one lent buffer over and over cuts the
// stream into exactly the chunks Next allocates, whatever the buffer held
// before — each chunk is scribbled over once compared, so a chunk that
// still leaned on the previous one's bytes (the carried partial line)
// would come out wrong.
func TestNextIntoMatchesNext(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&b, "line %d %s\n", i, strings.Repeat("x", i%37))
	}
	b.WriteString(strings.Repeat("y", 500) + "\nunterminated tail")
	in := b.String()
	for _, size := range []int{1, 7, 64, 300, 1 << 20} {
		want := readAllChunks(t, NewChunkReader(strings.NewReader(in), size))
		cr := NewChunkReader(strings.NewReader(in), size)
		var buf []byte
		for i := 0; ; i++ {
			chunk, err := cr.NextInto(buf)
			if len(chunk) > 0 {
				if i >= len(want) || !bytes.Equal(chunk, want[i]) {
					t.Fatalf("size %d: chunk %d = %q, Next cuts %d chunks and this one as %q", size, i, chunk, len(want), want[min(i, len(want)-1)])
				}
				for k := range chunk {
					chunk[k] = '#'
				}
				buf = chunk
			}
			if err == io.EOF {
				if i+1 < len(want) {
					t.Fatalf("size %d: %d chunks, Next cuts %d", size, i+1, len(want))
				}
				break
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestNextIntoReusesTheBuffer: a lent buffer of the chunk size is all the
// chunk storage a stream of any length needs — a reader allocates itself
// and the few bytes of the carried line, nothing per chunk (68 here).
func TestNextIntoReusesTheBuffer(t *testing.T) {
	in := strings.Repeat("0123456789abcdef\n", 4096)
	buf := make([]byte, 0, 2048)
	allocs := testing.AllocsPerRun(3, func() {
		cr := NewChunkReader(strings.NewReader(in), 1024)
		total := 0
		for {
			chunk, err := cr.NextInto(buf)
			total += len(chunk)
			if cap(chunk) != cap(buf) && len(chunk) > 0 {
				t.Fatalf("a %d-byte chunk left the %d-byte buffer", len(chunk), cap(buf))
			}
			if err != nil {
				break
			}
		}
		if total != len(in) {
			t.Fatalf("read %d of %d bytes", total, len(in))
		}
	})
	if allocs > 5 {
		t.Fatalf("%.0f allocations for 68 chunks: NextInto allocates per chunk", allocs)
	}
}
