package textio

import (
	"bytes"
	"io"
	"slices"
)

// ChunkReader slices a byte stream into line-aligned chunks of roughly a
// target size. Every chunk but the last ends exactly after a '\n'; bytes
// of a line straddling the target boundary are carried over into the next
// chunk, so no line is ever split across chunks. It is the shard source of
// the streaming extraction engine (internal/pipeline): shards can be
// matched independently because each holds whole lines.
//
// A line longer than the target size is returned as one oversized chunk
// rather than being split.
//
// Who owns a chunk's bytes is the caller's choice: Next allocates each
// chunk and never touches it again; NextInto fills a buffer the caller
// lends and may lend again once it is done with the chunk, which is what a
// caller that copies every chunk elsewhere (the engine, into its stage
// window) wants. The reader keeps no reference to either.
type ChunkReader struct {
	r    io.Reader
	size int
	// carry holds the partial trailing line of the previous read, in
	// storage of the reader's own.
	carry []byte
	err   error
}

// DefaultChunkSize is the shard granularity used when no size is given.
const DefaultChunkSize = 1 << 20

// NewChunkReader returns a ChunkReader emitting chunks of about size
// bytes. size <= 0 selects DefaultChunkSize.
func NewChunkReader(r io.Reader, size int) *ChunkReader {
	if size <= 0 {
		size = DefaultChunkSize
	}
	return &ChunkReader{r: r, size: size}
}

// Next returns the next line-aligned chunk. The returned slice is owned by
// the caller (it is never reused). At end of stream it returns the final
// bytes (possibly without a trailing '\n') and then (nil, io.EOF); any
// other error is returned as-is, after surfacing the bytes read so far.
func (c *ChunkReader) Next() ([]byte, error) {
	if c.err != nil && len(c.carry) == 0 {
		return nil, c.err
	}
	return c.fill(make([]byte, 0, c.size+len(c.carry)))
}

// NextInto is Next into the caller's buffer: the chunk is written over
// buf[:0], growing it when the chunk is longer than its capacity, and the
// returned slice aliases it — valid until the caller's next use of that
// storage, which is typically the next call: chunk, err = NextInto(chunk).
func (c *ChunkReader) NextInto(buf []byte) ([]byte, error) {
	if c.err != nil && len(c.carry) == 0 {
		return nil, c.err
	}
	return c.fill(buf[:0])
}

// fill appends the next chunk to buf, which is empty.
func (c *ChunkReader) fill(buf []byte) ([]byte, error) {
	buf = append(buf, c.carry...)
	c.carry = c.carry[:0]
	// scanned marks the prefix already known to contain no '\n', so an
	// oversized line costs one linear scan rather than one per round.
	scanned := 0
	for c.err == nil {
		// Fill up to the target size, then keep extending until the
		// buffer ends in a complete line.
		need := c.size - len(buf)
		if need <= 0 {
			if cut := lastNewline(buf[scanned:]); cut >= 0 {
				cut += scanned
				c.carry = append(c.carry, buf[cut+1:]...)
				return buf[:cut+1], nil
			}
			// Oversized line: extend by another round.
			scanned = len(buf)
			need = c.size
		}
		// Read straight into the buffer's spare capacity: what a lent
		// buffer held before is overwritten, never zeroed first.
		off := len(buf)
		buf = slices.Grow(buf, need)[:off+need]
		n, err := c.r.Read(buf[off:])
		buf = buf[:off+n]
		if err != nil {
			c.err = err
		}
	}
	if len(buf) == 0 {
		return nil, c.err
	}
	return buf, nil
}

// lastNewline returns the index of the last '\n' in b, or -1.
func lastNewline(b []byte) int {
	return bytes.LastIndexByte(b, '\n')
}
