package lake

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// segMagicV2 opens every segment file, the only format read or written:
// blocks carry per-column byte lengths after the row count, so a scan
// skips columns it does not read without decoding a single cell, and
// the file ends with a stats footer (per-block per-column zone maps plus
// per-column distinct estimates) found via a fixed-size length trailer
// at the end of the file.
var segMagicV2 = []byte("dmseg2\n")

// segBlockRows caps the rows per segment block: the unit of buffering
// for both the writer and the streaming reader.
const segBlockRows = 1024

// segDistinctCap bounds the per-column distinct-value tracking while a
// segment is written: counts are exact up to the cap, and a column that
// reaches it reports the cap itself ("at least this many") — plenty of
// resolution for join-order selectivity, bounded memory for the writer.
const segDistinctCap = 4096

// segReader is the read position inside one segment file. Several
// spans of a compacted table share a file, so the reader persists
// across the spans that reference it, tracking its absolute row
// position and block index (the footer's zone maps are block-indexed).
// Headers come through a small read-ahead window; column bytes are read
// straight from their offsets.
type segReader struct {
	file string
	f    *os.File
	// size is the file's length, taken once at open: every length prefix
	// is checked against the bytes left before anything is allocated for
	// it, so a corrupt header cannot ask for more memory than the file
	// could fill.
	size     int64
	pos      int64  // offset of the next unread byte
	win      []byte // file bytes [winOff, winOff+len(win))
	winOff   int64
	ncols    int
	rowPos   int
	blockIdx int
	foot     *segFooter // loaded to prune blocks (pushed predicates) or to relocate them
	colBytes []int64    // the current block's per-column byte lengths
	bufs     [][]byte   // scratch: raw per-column cell bytes
}

// segWindow is the read-ahead window's size: enough for any block
// header of a table of ordinary width in one read.
const segWindow = 4096

// newSegReader positions a reader at the first block of an open segment
// file of ncols columns, having validated the magic and, where the
// manifest records one (size > 0), the file's size.
func newSegReader(file string, f *os.File, ncols int, size int64) (*segReader, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if size != 0 && st.Size() != size {
		return nil, fmt.Errorf("file is %d bytes, the manifest records %d", st.Size(), size)
	}
	sr := &segReader{
		file:     file,
		f:        f,
		size:     st.Size(),
		win:      make([]byte, 0, max(segWindow, binary.MaxVarintLen64*(ncols+1))),
		ncols:    ncols,
		colBytes: make([]int64, ncols),
		bufs:     make([][]byte, ncols),
	}
	magic, err := sr.peek(len(segMagicV2))
	if err != nil || !bytes.Equal(magic, segMagicV2) {
		return nil, errors.New("bad magic")
	}
	sr.pos += int64(len(magic))
	return sr, nil
}

// peek returns the n bytes at the reader's position without consuming
// them — fewer only where the file ends first. n is at most the
// window's capacity.
func (sr *segReader) peek(n int) ([]byte, error) {
	lo := sr.pos - sr.winOff
	if lo < 0 || lo+int64(n) > int64(len(sr.win)) {
		sr.win = sr.win[:min(int64(cap(sr.win)), sr.size-sr.pos)]
		if _, err := sr.f.ReadAt(sr.win, sr.pos); err != nil {
			sr.win = sr.win[:0]
			return nil, unexpectedEOF(err)
		}
		sr.winOff, lo = sr.pos, 0
	}
	return sr.win[lo:min(lo+int64(n), int64(len(sr.win)))], nil
}

// uvarint consumes one uvarint.
func (sr *segReader) uvarint() (uint64, error) {
	b, err := sr.peek(binary.MaxVarintLen64)
	if err != nil {
		return 0, err
	}
	v, w := binary.Uvarint(b)
	switch {
	case w == 0:
		return 0, io.ErrUnexpectedEOF
	case w < 0:
		return 0, errors.New("bad varint")
	}
	sr.pos += int64(w)
	return v, nil
}

// length consumes a length prefix, rejecting one that promises more
// bytes than the file has left.
func (sr *segReader) length() (int64, error) {
	v, err := sr.uvarint()
	if err != nil {
		return 0, err
	}
	if left := sr.size - sr.pos; v > uint64(left) {
		return 0, fmt.Errorf("length %d overruns the file (%d bytes left)", v, left)
	}
	return int64(v), nil
}

// skipTo advances the reader to absolute row rowOff — the start of the
// next span — by skipping whole blocks. Spans are block-aligned (the
// compactor flushes at every path boundary), so landing inside a block
// means the file and manifest disagree.
func (sr *segReader) skipTo(rowOff int) error {
	for sr.rowPos < rowOff {
		nrows, err := sr.blockHeader()
		if err != nil {
			return err
		}
		if nrows == 0 {
			return fmt.Errorf("ends at row %d, span starts at %d", sr.rowPos, rowOff)
		}
		sr.skipBlock(nrows)
	}
	if sr.rowPos != rowOff {
		return fmt.Errorf("span at row %d is not block-aligned (reader at row %d)", rowOff, sr.rowPos)
	}
	return nil
}

// blockHeader consumes the next block's header, leaving the reader at
// the block's first column and its per-column byte lengths in colBytes.
// It returns the block's row count; 0 is the end-of-blocks sentinel (the
// stats footer follows).
func (sr *segReader) blockHeader() (int, error) {
	n, err := sr.uvarint()
	if err != nil {
		return 0, err
	}
	if n > segBlockRows {
		return 0, fmt.Errorf("bad block row count %d", n)
	}
	if n == 0 {
		return 0, nil
	}
	var total int64
	for c := range sr.colBytes {
		if sr.colBytes[c], err = sr.length(); err != nil {
			return 0, err
		}
		total += sr.colBytes[c]
	}
	if left := sr.size - sr.pos; total > left {
		return 0, fmt.Errorf("block of %d bytes overruns the file (%d bytes left)", total, left)
	}
	return int(n), nil
}

// skipBlock steps over the nrows-row block whose header was just
// consumed, reading nothing.
func (sr *segReader) skipBlock(nrows int) {
	for _, n := range sr.colBytes {
		sr.pos += n
	}
	sr.rowPos += nrows
	sr.blockIdx++
}

// readColumn reads column c's raw cell bytes (uvarint-length-prefixed
// values) from file offset off into the column's scratch buffer.
func (sr *segReader) readColumn(c int, off int64) ([]byte, error) {
	n := int(sr.colBytes[c])
	if cap(sr.bufs[c]) < n {
		sr.bufs[c] = make([]byte, n)
	}
	buf := sr.bufs[c][:n]
	sr.bufs[c] = buf
	if _, err := sr.f.ReadAt(buf, off); err != nil {
		return nil, unexpectedEOF(err)
	}
	return buf, nil
}

var errCorruptCells = errors.New("corrupt column cells")

// cellAt decodes the length prefix at buf[off:] and returns the cell's
// bounds, or ok=false when the prefix or the cell overruns the buffer.
func cellAt(buf []byte, off int) (start, end int, ok bool) {
	if off < len(buf) && buf[off] < 0x80 {
		start = off + 1
		end = start + int(buf[off])
		return start, end, end <= len(buf)
	}
	n, w := binary.Uvarint(buf[off:])
	if w <= 0 || n > uint64(len(buf)-off-w) {
		return 0, 0, false
	}
	return off + w, off + w + int(n), true
}

func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// colZone is one column's zone map over one block: lexicographic
// min/max always, numeric min/max only when every cell in the block
// parses as a (non-NaN) float — a mixed block compares some rows
// lexicographically, which numeric bounds cannot speak for.
type colZone struct {
	allNumeric     bool
	lexMin, lexMax string
	numMin, numMax float64
}

// footBlock is one block's footer entry: its row count plus one zone
// per column.
type footBlock struct {
	rows int
	cols []colZone
}

// segFooter is a segment's decoded stats footer. distincts is
// informational — planning reads the manifest's per-span Distincts, not
// this line: in a per-path file it is the count over the file's values
// (exact up to segDistinctCap), in a compacted file the per-column max
// over the spans' manifest Distincts, the fold TableInfo.Distincts
// documents (relocated blocks are not decoded, so there are no values to
// count).
type segFooter struct {
	blocks    []footBlock
	distincts []int
}

// zonesOf returns the footer entry of block idx for a caller about to
// move that block's bytes and keep this entry as its zone map: the
// entry must describe the nrows-row, ncols-column block the header
// announced, or file and footer disagree.
func (foot *segFooter) zonesOf(idx, nrows, ncols int) (footBlock, error) {
	if idx >= len(foot.blocks) {
		return footBlock{}, fmt.Errorf("stats footer has %d blocks, file has more", len(foot.blocks))
	}
	fb := foot.blocks[idx]
	if fb.rows != nrows || len(fb.cols) != ncols {
		return footBlock{}, fmt.Errorf("stats footer describes block %d as %d rows × %d columns, its header as %d × %d", idx, fb.rows, len(fb.cols), nrows, ncols)
	}
	return fb, nil
}

// appendFooter appends the stats footer to b: uvarint block and column
// counts, then per block its row count and per column a flags byte,
// length-prefixed lexicographic min/max (full values, raw bytes — the
// footer is binary precisely so that non-UTF-8 cells round-trip), and,
// for allNumeric columns, little-endian float64 numeric bounds; then
// the per-column distinct estimates.
func appendFooter(b []byte, blocks []footBlock, distincts []int) []byte {
	var tmp [binary.MaxVarintLen64]byte
	putU := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		b = append(b, tmp[:n]...)
	}
	putS := func(s string) {
		putU(uint64(len(s)))
		b = append(b, s...)
	}
	putF := func(f float64) {
		var fb [8]byte
		binary.LittleEndian.PutUint64(fb[:], math.Float64bits(f))
		b = append(b, fb[:]...)
	}
	putU(uint64(len(blocks)))
	putU(uint64(len(distincts)))
	for _, fb := range blocks {
		putU(uint64(fb.rows))
		for _, z := range fb.cols {
			var flags byte
			if z.allNumeric {
				flags |= 1
			}
			b = append(b, flags)
			putS(z.lexMin)
			putS(z.lexMax)
			if z.allNumeric {
				putF(z.numMin)
				putF(z.numMax)
			}
		}
	}
	for _, d := range distincts {
		putU(uint64(d))
	}
	return b
}

// readFooter locates and decodes the stats footer of a segment of size
// bytes via the 8-byte length trailer at the end of the file.
func readFooter(f *os.File, size int64) (*segFooter, error) {
	if size < int64(len(segMagicV2))+9 {
		return nil, errors.New("file too short")
	}
	var tr [8]byte
	if _, err := f.ReadAt(tr[:], size-8); err != nil {
		return nil, err
	}
	flen := int64(binary.LittleEndian.Uint64(tr[:]))
	if flen < 0 || flen > size-8-int64(len(segMagicV2)) {
		return nil, fmt.Errorf("bad footer length %d", flen)
	}
	blob := make([]byte, flen)
	if _, err := f.ReadAt(blob, size-8-flen); err != nil {
		return nil, err
	}
	return decodeFooter(blob)
}

func decodeFooter(blob []byte) (*segFooter, error) {
	text := string(blob) // every zone bound is a substring of this one copy
	r := bytes.NewReader(blob)
	readS := func() (string, error) {
		n, err := binary.ReadUvarint(r)
		if err != nil {
			return "", unexpectedEOF(err)
		}
		if n > uint64(r.Len()) {
			return "", fmt.Errorf("bad footer string length %d", n)
		}
		off := len(blob) - r.Len()
		_, _ = r.Seek(int64(n), io.SeekCurrent) // within the blob: cannot fail
		return text[off : off+int(n)], nil
	}
	readF := func() (float64, error) {
		var fb [8]byte
		if _, err := io.ReadFull(r, fb[:]); err != nil {
			return 0, unexpectedEOF(err)
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(fb[:])), nil
	}
	nblocks, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, unexpectedEOF(err)
	}
	ncols, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, unexpectedEOF(err)
	}
	// A block entry is a row count plus, per column, a flags byte and two
	// length prefixes: a shape that needs more bytes than the footer has
	// is rejected before anything is allocated for it.
	if left := uint64(r.Len()); ncols > left || nblocks > left/(1+3*ncols) {
		return nil, fmt.Errorf("implausible footer shape (%d blocks, %d columns in %d bytes)", nblocks, ncols, left)
	}
	foot := &segFooter{blocks: make([]footBlock, nblocks)}
	zones := make([]colZone, nblocks*ncols)
	for bi := range foot.blocks {
		rows, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, unexpectedEOF(err)
		}
		fb := footBlock{rows: int(rows), cols: zones[:ncols:ncols]}
		zones = zones[ncols:]
		for c := range fb.cols {
			flags, err := r.ReadByte()
			if err != nil {
				return nil, unexpectedEOF(err)
			}
			z := colZone{allNumeric: flags&1 != 0}
			if z.lexMin, err = readS(); err != nil {
				return nil, err
			}
			if z.lexMax, err = readS(); err != nil {
				return nil, err
			}
			if z.allNumeric {
				if z.numMin, err = readF(); err != nil {
					return nil, err
				}
				if z.numMax, err = readF(); err != nil {
					return nil, err
				}
			}
			fb.cols[c] = z
		}
		foot.blocks[bi] = fb
	}
	foot.distincts = make([]int, ncols)
	for c := range foot.distincts {
		d, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, unexpectedEOF(err)
		}
		foot.distincts[c] = int(d)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("footer has %d trailing bytes", r.Len())
	}
	return foot, nil
}
