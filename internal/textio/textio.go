// Package textio provides the text-layer substrate for Datamaran: line
// indexing over a byte buffer, block slicing between end-of-line
// characters, and the cache-aware chunk sampling used by the generation
// and evaluation steps on large datasets (§9.1 of the paper).
package textio

import (
	"bytes"
	"math/rand"
	"slices"
)

// Lines indexes the line structure of a dataset. Per Definition 2.4,
// blocks are separated by '\n'; a candidate record is the content between
// two line boundaries at most L lines apart.
type Lines struct {
	data []byte
	// starts[i] is the byte offset of the first byte of line i.
	// A sentinel entry equal to len(data) is appended so that
	// starts[i+1] is always valid for line i.
	starts []int
}

// NewLines builds a line index for data. A trailing line without a final
// '\n' is still counted as a line.
func NewLines(data []byte) *Lines {
	l := &Lines{}
	l.Reset(data)
	return l
}

// Reset re-indexes l over data in place, so a caller that indexes one
// buffer after another (the extraction engine, once per batch) keeps one
// index instead of allocating one per buffer. The zero Lines is ready for
// Reset. A first use sizes the index exactly with one count of the
// newlines; a reused index grows by appending, and in the steady state of
// same-sized buffers does not grow at all.
func (l *Lines) Reset(data []byte) {
	starts := l.starts[:0]
	if starts == nil {
		starts = make([]int, 0, bytes.Count(data, []byte{'\n'})+2)
	}
	if len(data) > 0 {
		starts = append(starts, 0)
		// A '\n' in the last byte ends the last line; it starts no new one.
		for off := 0; ; {
			i := bytes.IndexByte(data[off:len(data)-1], '\n')
			if i < 0 {
				break
			}
			off += i + 1
			starts = append(starts, off)
		}
	}
	l.data, l.starts = data, append(starts, len(data))
}

// Extend re-indexes l over data, which holds the indexed buffer followed by
// more bytes (it may have moved since, as a buffer grown by append does),
// scanning only the bytes appended: a window fed piece by piece is indexed
// once, as it grows, and not again per batch. The index equals
// Reset(data)'s.
func (l *Lines) Extend(data []byte) {
	old := len(l.data)
	if len(l.starts) == 0 {
		l.starts = append(l.starts, 0)
	}
	starts := l.starts[:len(l.starts)-1] // drop the sentinel
	if len(data) > old {
		// The first appended byte starts a line when the buffer was empty
		// or ended in '\n'; otherwise it continues the buffer's last line.
		if old == 0 || data[old-1] == '\n' {
			starts = append(starts, old)
		}
		for off := old; ; {
			i := bytes.IndexByte(data[off:len(data)-1], '\n')
			if i < 0 {
				break
			}
			off += i + 1
			if len(starts) == cap(starts) {
				// Double, from a page of entries: an index grown line by
				// line reaches a window's size in a few steps, not the
				// dozens append's gentler growth of large slices takes.
				starts = slices.Grow(starts, max(len(starts), 512))
			}
			starts = append(starts, off)
		}
	}
	l.data, l.starts = data, append(starts, len(data))
}

// Drop removes lines [0, k) from the index and re-indexes l over data,
// which must hold the indexed buffer's bytes from line k on: what is left
// of a window once its decided prefix is cut off. Nothing is scanned; the
// remaining line starts are rebased.
func (l *Lines) Drop(k int, data []byte) {
	cut := l.starts[k]
	n := copy(l.starts, l.starts[k:])
	l.starts = l.starts[:n]
	for i := range l.starts {
		l.starts[i] -= cut
	}
	l.data = data
}

// N returns the number of lines.
func (l *Lines) N() int { return len(l.starts) - 1 }

// Data returns the underlying buffer.
func (l *Lines) Data() []byte { return l.data }

// IndexBytes returns the size of the index storage l holds across Resets
// (not of the data it indexes): what keeping l around keeps allocated.
func (l *Lines) IndexBytes() int { return cap(l.starts) * 8 }

// Line returns the content of line i including its trailing '\n' when
// present.
func (l *Lines) Line(i int) []byte {
	return l.data[l.starts[i]:l.starts[i+1]]
}

// Start returns the byte offset of line i. Start(N()) is len(data).
func (l *Lines) Start(i int) int { return l.starts[i] }

// Slice returns the contents of lines [from, to) including trailing
// newlines.
func (l *Lines) Slice(from, to int) []byte {
	return l.data[l.starts[from]:l.starts[to]]
}

// AlignedLine returns the index of the line starting at byte offset off,
// and whether off is a line boundary. Offset len(data) counts as the
// boundary of the sentinel line N(). It is the shared offset→line index
// of the scanners — a binary search over the sorted starts, so concurrent
// matchers share one index instead of each building an offset map.
func (l *Lines) AlignedLine(off int) (int, bool) {
	lo, hi := 0, len(l.starts)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if l.starts[mid] < off {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(l.starts) && l.starts[lo] == off {
		return lo, true
	}
	return 0, false
}

// Sampler extracts a bounded, cache-friendly sample of a dataset: a few
// large contiguous chunks, concatenated at line boundaries. Per §9.1 this
// caps Sdata so the generation and evaluation steps run in time
// independent of the total dataset size.
type Sampler struct {
	// Budget is the maximum number of bytes in the sample. Zero means
	// no sampling (the whole dataset is the sample).
	Budget int
	// Chunks is the number of contiguous chunks to cut. Zero means 8.
	Chunks int
	// Seed makes sampling deterministic.
	Seed int64
}

// Sample returns a sample of data no larger than s.Budget (when Budget>0)
// cut at line boundaries. If the dataset fits in the budget it is returned
// unchanged (no copy).
func (s Sampler) Sample(data []byte) []byte {
	if s.Budget <= 0 || len(data) <= s.Budget {
		return data
	}
	nChunks := s.Chunks
	if nChunks <= 0 {
		nChunks = 8
	}
	lines := NewLines(data)
	n := lines.N()
	if n == 0 {
		return data[:s.Budget]
	}
	perChunk := s.Budget / nChunks
	if perChunk <= 0 {
		perChunk = s.Budget
		nChunks = 1
	}
	rng := rand.New(rand.NewSource(s.Seed))
	out := make([]byte, 0, s.Budget)
	// Cut nChunks chunks starting at random line offsets spread over
	// the file; each chunk extends whole lines until its byte share is
	// exhausted.
	for c := 0; c < nChunks && len(out) < s.Budget; c++ {
		// Stratified start: chunk c starts in the c-th n/nChunks
		// stripe so samples cover the whole file.
		lo := c * n / nChunks
		hi := (c + 1) * n / nChunks
		if hi <= lo {
			hi = lo + 1
		}
		start := lo + rng.Intn(hi-lo)
		budget := perChunk
		if c == nChunks-1 {
			budget = s.Budget - len(out)
		}
		for i := start; i < n && budget > 0; i++ {
			line := lines.Line(i)
			if len(line) > budget && len(out) > 0 {
				break
			}
			out = append(out, line...)
			budget -= len(line)
		}
	}
	if len(out) == 0 {
		return data[:s.Budget]
	}
	return out
}
