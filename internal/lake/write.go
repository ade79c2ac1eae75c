package lake

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unsafe"

	"datamaran/internal/atomicfile"
	"datamaran/internal/core"
	"datamaran/internal/parser"
	"datamaran/internal/pipeline"
	"datamaran/internal/relational"
	"datamaran/internal/semtype"
	"datamaran/internal/template"
)

// The record store's write side: the segment writer, and the path writer
// a crawl stages each file's segments through while the file is read.
//
// A crawl writes what the matcher found. Its extraction hands each batch
// to the file's pathWriter (pipeline.Config.OnBatch): the batch's window
// bytes and, per record, its field occurrences. Each record becomes one
// row of its type's segment, its cells encoded straight from those spans
// into the column buffers of the block being filled; no record, row or
// cell string is built on the way. A worker therefore holds one batch of
// its file, the block being filled per record type, and the distinct sets
// and zone maps of the segments it is writing — not the file's records.

// segWriter streams rows into v2 column-major blocks. A row's cells are
// encoded as they arrive — from a record's field spans (addSpans), or
// from cells already in hand (addColumns, the replay of kept rows) — into
// their columns' buffers, so the block buffer is the block's encoded
// bytes and nothing else. A full block is written as it stands; what a
// segment derives from values rather than bytes — the running semtype
// kinds, the per-column distinct sets and the block's zone map — is
// computed from those bytes as it is flushed. The kinds depend only on
// the row sequence, not on how callers batch their writes, so an
// incremental append that replays the kept rows re-derives exactly the
// kinds a from-scratch write would. Blocks that already exist encoded
// enter through passBlock (a resume: observed, not re-encoded) or
// spliceBlocks (compaction: not even decoded, which is why it ends its
// file with writeFooter instead of finish).
//
// A writer is borrowed (newSegWriter) and given back (release): the
// column buffers, the distinct sets, the zone-map and footer storage and
// the file buffer are what a crawl worker writes every file of the crawl
// through, sized by the widest table and the fullest block it has seen.
// What a segment keeps until its footer — a block's zone bounds, each
// new distinct value — is copied out of the block buffer, and what it
// hands out — the kinds and distinct counts that go into the manifest —
// is allocated for it.
type segWriter struct {
	w *bufio.Writer
	// out counts the bytes w flushes to the segment: its size.
	out   countingWriter
	ncols int
	// nbuf is the number of rows in the block buffer; colBuf holds their
	// encoded cells, one buffer per column.
	nbuf   int
	colBuf [][]byte
	kinds  []semtype.Kind
	rows   int
	blocks []footBlock
	// zones is the storage of the zone maps this writer computed: block
	// k's are a run of it (blocks that arrive encoded bring their own).
	zones    []colZone
	distinct []map[string]struct{}
	foot     []byte
	// views holds, while a block is observed, its cells (see cellViews);
	// lens and seen are the per-column scratch of addSpans.
	views [][]string
	lens  []int
	seen  []bool
}

var segWriterPool = sync.Pool{New: func() any {
	sw := &segWriter{}
	sw.w = bufio.NewWriter(&sw.out)
	return sw
}}

// countingWriter counts the bytes that reach w.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// newSegWriter borrows a writer of ncols-column rows onto w. The caller
// gives it back with release once the segment is finished or given up.
func newSegWriter(w io.Writer, ncols int) *segWriter {
	return segWriterPool.Get().(*segWriter).reset(w, ncols)
}

// reset points the writer at a new segment.
func (sw *segWriter) reset(w io.Writer, ncols int) *segWriter {
	sw.out = countingWriter{w: w}
	sw.w.Reset(&sw.out)
	sw.ncols, sw.rows, sw.nbuf, sw.kinds = ncols, 0, 0, nil
	sw.colBuf, sw.distinct, sw.views = widen(sw.colBuf, ncols), widen(sw.distinct, ncols), widen(sw.views, ncols)
	sw.lens, sw.seen = widen(sw.lens, ncols), widen(sw.seen, ncols)
	for c := range sw.colBuf {
		sw.colBuf[c] = sw.colBuf[c][:0]
	}
	return sw
}

// widen returns s with length n, keeping what its capacity already holds:
// a column's buffer survives a narrower table in between.
func widen[T any](s []T, n int) []T {
	s = s[:cap(s)]
	if len(s) < n {
		s = append(s, make([]T, n-len(s))...)
	}
	return s[:n]
}

// release gives the writer back, holding on to nothing of the segment.
func (sw *segWriter) release() {
	sw.forget()
	segWriterPool.Put(sw)
}

// forget drops every value the writer kept of its segment — zone bounds,
// distinct values, the views of its last block — so that a pooled writer
// carries none of them into the collections that follow.
func (sw *segWriter) forget() {
	for c := range sw.colBuf {
		clear(sw.distinct[c])
	}
	for _, v := range sw.views[:cap(sw.views)] {
		clear(v[:cap(v)])
	}
	clear(sw.blocks)
	clear(sw.zones)
	sw.blocks, sw.zones = sw.blocks[:0], sw.zones[:0]
	sw.out.w = nil
}

func (sw *segWriter) putUvarint(v uint64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, err := sw.w.Write(buf[:n])
	return err
}

// addSpans encodes one row from a record's field occurrences over data.
// Column c's cell is the values of c's occurrences, in order, joined by
// seps[c] — an array's repetitions joined by their innermost array's
// separator, the row relational.Denormalizer builds — and a column that
// nothing occurs in is empty.
func (sw *segWriter) addSpans(data []byte, fields []parser.FieldOcc, seps []byte) error {
	lens, seen := sw.lens, sw.seen
	clear(lens)
	clear(seen)
	for _, f := range fields {
		if uint(f.Col) >= uint(sw.ncols) {
			continue
		}
		if seen[f.Col] {
			lens[f.Col]++
		}
		lens[f.Col] += f.End - f.Start
		seen[f.Col] = true
	}
	// Each cell's length goes first, then its values as they come: the
	// columns' buffers are separate, so the interleaving of columns in
	// fields does not matter.
	for c, n := range lens {
		sw.colBuf[c] = binary.AppendUvarint(sw.colBuf[c], uint64(n))
	}
	clear(seen)
	for _, f := range fields {
		c := f.Col
		if uint(c) >= uint(sw.ncols) {
			continue
		}
		if seen[c] {
			sw.colBuf[c] = append(sw.colBuf[c], seps[c])
		}
		sw.colBuf[c] = append(sw.colBuf[c], data[f.Start:f.End]...)
		seen[c] = true
	}
	return sw.rowAdded()
}

// appendCell appends one encoded cell: its uvarint length, then its bytes.
func appendCell(buf []byte, v string) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(v))), v...)
}

// rowAdded counts the row just encoded, flushing the block when full.
func (sw *segWriter) rowAdded() error {
	sw.rows++
	if sw.nbuf++; sw.nbuf >= segBlockRows {
		return sw.flushBlock()
	}
	return nil
}

// addColumns encodes the first n rows of a column-major batch, flushing
// at every block boundary.
func (sw *segWriter) addColumns(cols [][]string, n int) error {
	for i := 0; i < n; i++ {
		for c := range sw.colBuf {
			sw.colBuf[c] = appendCell(sw.colBuf[c], cols[c][i])
		}
		if err := sw.rowAdded(); err != nil {
			return err
		}
	}
	return nil
}

// cellViews returns the cells of an encoded block of n rows, per column,
// as strings that alias the block's bytes. They are views, valid while
// those bytes are and never kept: whatever the writer keeps of a value
// copies it (blockZones, observe), so the block buffer can be reused the
// moment its block is written.
func (sw *segWriter) cellViews(encoded [][]byte, n int) [][]string {
	for c, col := range encoded {
		v := sw.views[c][:0]
		for off := 0; len(v) < n; {
			l, w := binary.Uvarint(col[off:])
			off += w
			if w <= 0 || l > uint64(len(col)-off) {
				// The block is this writer's encoding or one a scan has
				// decoded: a cell past its end is a bug, not input.
				panic("lake: encoded block ends inside a cell")
			}
			if l == 0 {
				v = append(v, "")
				continue
			}
			v = append(v, unsafe.String(&col[off], int(l)))
			off += int(l)
		}
		sw.views[c] = v
	}
	return sw.views[:len(encoded)]
}

// zoneNumber is strconv.ParseFloat(v, 64) for the values a zone map can
// use — ok is false where ParseFloat fails or yields NaN. An optionally
// signed run of at most 15 decimal digits is below 2^53, so its float64
// is exact and is the integer itself: most numeric cells of a log are
// such, and skip the general parser. A negative zero is left to it
// ("-0" parses to -0.0, which the integer path would lose).
func zoneNumber(v string) (f float64, ok bool) {
	digits := v
	if len(digits) > 0 && (digits[0] == '-' || digits[0] == '+') {
		digits = digits[1:]
	}
	if n := len(digits); n > 0 && n <= 15 {
		u := uint64(0)
		for i := 0; i < n; i++ {
			d := digits[i] - '0'
			if d > 9 {
				return zoneNumberSlow(v)
			}
			u = u*10 + uint64(d)
		}
		if v[0] != '-' {
			return float64(u), true
		}
		if u != 0 {
			return -float64(u), true
		}
	}
	return zoneNumberSlow(v)
}

func zoneNumberSlow(v string) (float64, bool) {
	f, err := strconv.ParseFloat(v, 64)
	return f, err == nil && !math.IsNaN(f)
}

// blockZones computes the zone maps of one block, from its cells, into
// zones, one per column. The bounds are copied: the cells are views.
func blockZones(cols [][]string, zones []colZone) footBlock {
	fb := footBlock{rows: len(cols[0]), cols: zones}
	for c, vals := range cols {
		z := colZone{allNumeric: true}
		for i, v := range vals {
			if i == 0 || v < z.lexMin {
				z.lexMin = v
			}
			if i == 0 || v > z.lexMax {
				z.lexMax = v
			}
			if !z.allNumeric {
				continue
			}
			f, ok := zoneNumber(v)
			if !ok {
				z.allNumeric = false
				continue
			}
			if i == 0 || f < z.numMin {
				z.numMin = f
			}
			if i == 0 || f > z.numMax {
				z.numMax = f
			}
		}
		z.lexMin = strings.Clone(z.lexMin)
		if z.lexMax == z.lexMin {
			z.lexMax = z.lexMin
		} else {
			z.lexMax = strings.Clone(z.lexMax)
		}
		fb.cols[c] = z
	}
	return fb
}

// observe folds one block's cells into what a segment derives from values
// rather than bytes: the running kinds and the distinct sets. A value
// equal to the one before it is in its set already — runs are what log
// columns are made of (a host, a status, a date), and the comparison is a
// fraction of the hash and probe it saves. A set is probed with the view
// itself, and only a value it does not hold yet is copied into it.
func (sw *segWriter) observe(cols [][]string) {
	sw.foldKinds(cols)
	for c, vals := range cols {
		m := sw.distinct[c]
		if m == nil {
			m = make(map[string]struct{})
			sw.distinct[c] = m
		}
		for i, v := range vals {
			if len(m) >= segDistinctCap {
				break
			}
			if i > 0 && v == vals[i-1] {
				continue
			}
			if _, ok := m[v]; !ok {
				m[strings.Clone(v)] = struct{}{}
			}
		}
	}
}

// foldKinds classifies the block's column values and merges them into
// the running kinds.
func (sw *segWriter) foldKinds(cols [][]string) {
	if len(cols) == 0 || len(cols[0]) == 0 {
		return
	}
	first := sw.kinds == nil
	if first {
		sw.kinds = make([]semtype.Kind, len(cols))
	}
	for c, vals := range cols {
		if k := semtype.ClassifyValues(vals); first {
			sw.kinds[c] = k
		} else {
			sw.kinds[c] = semtype.MergeKinds(sw.kinds[c], k)
		}
	}
}

// flushBlock writes the buffered block, observing it and recording its
// zone map first.
func (sw *segWriter) flushBlock() error {
	n := sw.nbuf
	if n == 0 {
		return nil
	}
	cells := sw.cellViews(sw.colBuf, n)
	sw.observe(cells)
	lo := len(sw.zones)
	sw.zones = slices.Grow(sw.zones, sw.ncols)[:lo+sw.ncols]
	sw.blocks = append(sw.blocks, blockZones(cells, sw.zones[lo:lo+sw.ncols:lo+sw.ncols]))
	err := sw.writeBlock(n, sw.colBuf)
	for c := range sw.colBuf {
		sw.colBuf[c] = sw.colBuf[c][:0]
	}
	sw.nbuf = 0
	return err
}

// writeBlock writes one block: its row count, each column's byte
// length, then the columns' encoded cells.
func (sw *segWriter) writeBlock(n int, encoded [][]byte) error {
	if err := sw.putUvarint(uint64(n)); err != nil {
		return err
	}
	for _, col := range encoded {
		if err := sw.putUvarint(uint64(len(col))); err != nil {
			return err
		}
	}
	for _, col := range encoded {
		if _, err := sw.w.Write(col); err != nil {
			return err
		}
	}
	return nil
}

// passBlock writes a block that is already encoded: encoded is its column
// bytes, well formed (a scan decoded them), and zones the zone map the
// source footer held for it. The caller guarantees the block buffer is
// empty and the block full, so these are the bytes flushBlock would have
// produced from the same cells.
func (sw *segWriter) passBlock(encoded [][]byte, zones footBlock) error {
	sw.observe(sw.cellViews(encoded, zones.rows))
	sw.blocks = append(sw.blocks, zones)
	sw.rows += zones.rows
	return sw.writeBlock(zones.rows, encoded)
}

// spliceBlocks appends blocks that exist encoded in another file,
// unseen: size bytes of whole blocks from encoded, holding rows rows,
// and the zone maps their source footer held for them. Nothing is
// decoded, so nothing is observed — the caller already has the kinds
// and distinct counts of these rows. The block buffer must be empty.
func (sw *segWriter) spliceBlocks(encoded io.Reader, size int64, zones []footBlock, rows int) error {
	copied, err := io.Copy(sw.w, encoded)
	if err == nil && copied != size {
		err = io.ErrUnexpectedEOF
	}
	sw.blocks = append(sw.blocks, zones...)
	sw.rows += rows
	return err
}

// finish flushes the residual block and closes the file with the stats
// footer, and returns the folded kinds, the total row count and the
// distinct estimates.
func (sw *segWriter) finish() ([]semtype.Kind, int, []int, error) {
	if err := sw.flushBlock(); err != nil {
		return nil, 0, nil, err
	}
	dist := make([]int, sw.ncols)
	for c, m := range sw.distinct {
		dist[c] = len(m)
	}
	if err := sw.writeFooter(dist); err != nil {
		return nil, 0, nil, err
	}
	kinds := sw.kinds
	if kinds == nil {
		kinds = make([]semtype.Kind, sw.ncols)
		for i := range kinds {
			kinds[i] = semtype.KindString
		}
	}
	return kinds, sw.rows, dist, nil
}

// writeFooter ends the file: the end-of-blocks sentinel, the stats
// footer over every block written and its length trailer.
func (sw *segWriter) writeFooter(distincts []int) error {
	if err := sw.putUvarint(0); err != nil {
		return err
	}
	sw.foot = appendFooter(sw.foot[:0], sw.blocks, distincts)
	if _, err := sw.w.Write(sw.foot); err != nil {
		return err
	}
	var tr [8]byte
	binary.LittleEndian.PutUint64(tr[:], uint64(len(sw.foot)))
	if _, err := sw.w.Write(tr[:]); err != nil {
		return err
	}
	return sw.w.Flush()
}

// pathWriter stages one source file's contribution to the store: one
// segment per record type of its format, each a temp file in the store
// directory that its type's rows are encoded into as they arrive (add).
// A full extraction's segments start empty; a resumed one's start with
// the kept rows of the segments they replace. Nothing is visible to the
// transaction until commit has finished every segment and installs them
// all under one hold of its lock: a path's write is all or nothing, so a
// file whose write fails keeps the rows it had, for the next crawl to
// extend from the checkpoint it also kept. abort, or a failed commit,
// removes every staged file.
type pathWriter struct {
	t           *StoreTxn
	relPath, fp string
	rev         int
	resumed     bool
	segs        []stagedSeg
}

// stagedSeg is one record type's segment being written.
type stagedSeg struct {
	f     *os.File
	sw    *segWriter
	ncols int
	// seps joins the repetitions of the type's array columns.
	seps []byte
	// base is the segment file a resume extends.
	base string
}

// writePath opens relPath's pathWriter for a format's templates: resumed
// extends the path's segments (the resume path of the incremental crawl,
// which extracts [checkpoint, EOF): each segment's provisional tail rows
// are dropped, since the resume emits them again, and its kept rows
// replayed, so the result is byte-identical to a from-scratch write of
// the whole file); otherwise they are replaced. The crawl only plans a
// resume when Covers is true, so a missing base segment is an invariant
// violation, not a fallback.
func (t *StoreTxn) writePath(relPath, fp string, templates []*template.Node, resumed bool) (*pathWriter, error) {
	w := &pathWriter{t: t, relPath: relPath, fp: fp, resumed: resumed, segs: make([]stagedSeg, len(templates))}
	var bases []manSeg
	t.mu.Lock()
	w.rev = t.nextRevLocked(relPath)
	for typeID := 0; resumed && typeID < len(templates); typeID++ {
		seg := segOf(t.man.table(fp, typeID), relPath)
		if seg == nil {
			t.mu.Unlock()
			return nil, fmt.Errorf("lake: append to %s type %d: no base segment for %s", fp, typeID, relPath)
		}
		bases = append(bases, *seg)
	}
	t.mu.Unlock()
	for typeID, tpl := range templates {
		s := &w.segs[typeID]
		s.ncols, s.seps = tpl.NumFields(), relational.ArraySeps(tpl)
		f, err := atomicfile.Create(t.s.dir)
		if err != nil {
			w.abort()
			return nil, err
		}
		s.f, s.sw = f, newSegWriter(f, s.ncols)
		_, err = s.sw.w.Write(segMagicV2)
		if err == nil && resumed {
			err = t.replayKept(s, fp, typeID, relPath, bases[typeID])
		}
		if err != nil {
			w.abort()
			return nil, err
		}
	}
	return w, nil
}

// replayKept writes the kept rows of relPath's segment of one type, seg
// as the transaction saw it, into s, and notes the file it read them
// from as the one s replaces.
func (t *StoreTxn) replayKept(s *stagedSeg, fp string, typeID int, relPath string, seg manSeg) error {
	span := seg
	t.mu.Lock()
	src, isStaged := t.staged[span.File]
	t.mu.Unlock()
	if !isStaged {
		src = filepath.Join(t.s.dir, span.File)
	}
	in, err := os.Open(src)
	for attempt := 0; errors.Is(err, os.ErrNotExist) && !isStaged && attempt < scanOpenRetries; attempt++ {
		cur := t.relocated(fp, typeID, relPath, seg)
		if cur == nil {
			break
		}
		span = *cur
		in, err = os.Open(filepath.Join(t.s.dir, span.File))
	}
	if err != nil {
		return err
	}
	defer in.Close()
	s.base = span.File
	return copyRows(s.sw, in, s.ncols, span)
}

// relocated returns relPath's span of one type in the store's current
// manifest when a compaction published since Begin moved seg, the span
// as the transaction saw it, and unlinked the file it was in: the same
// rows under a new (File, RowOff). A span that changed in any other way
// was rewritten by another transaction, which is not this one's to
// merge, and yields nil.
func (t *StoreTxn) relocated(fp string, typeID int, relPath string, seg manSeg) *manSeg {
	cur := segOf(t.s.snapshot().table(fp, typeID), relPath)
	if cur == nil || cur.Rows != seg.Rows || cur.Provisional != seg.Provisional {
		return nil
	}
	return cur
}

// add writes one extraction batch's records into their type's segment,
// straight from their field spans: the crawl's pipeline.Config.OnBatch.
func (w *pathWriter) add(b *pipeline.Batch) error {
	s := &w.segs[b.TypeID()]
	data := b.Data()
	for k := 0; k < b.Len(); k++ {
		if err := s.sw.addSpans(data, b.Fields(k), s.seps); err != nil {
			return err
		}
	}
	return nil
}

// addRecordOuts writes records already materialized through the same
// encoder: each record's values are laid back to back in scratch and its
// fields become spans over them. Records of a type the format does not
// have are skipped.
func (w *pathWriter) addRecordOuts(recs []core.RecordOut) error {
	var data []byte
	var occs []parser.FieldOcc
	for i := range recs {
		r := &recs[i]
		if r.TypeID < 0 || r.TypeID >= len(w.segs) {
			continue
		}
		data, occs = data[:0], occs[:0]
		for _, f := range r.Fields {
			occs = append(occs, parser.FieldOcc{Col: f.Column, Rep: f.Repetition, Start: len(data), End: len(data) + len(f.Value)})
			data = append(data, f.Value...)
		}
		s := &w.segs[r.TypeID]
		if err := s.sw.addSpans(data, occs, s.seps); err != nil {
			return err
		}
	}
	return nil
}

// commit finishes every segment and installs them together; provisional
// counts, per record type, the rows past the extraction's checkpoint,
// which the next resume drops.
func (w *pathWriter) commit(provisional []int) error {
	entries := make([]manSeg, len(w.segs))
	for typeID := range w.segs {
		s := &w.segs[typeID]
		kinds, rows, dist, err := s.sw.finish()
		size := s.sw.out.n
		s.sw.release()
		s.sw = nil
		if cerr := s.f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			w.abort()
			return err
		}
		entries[typeID] = manSeg{
			Path: w.relPath, File: segFileName(w.relPath, typeID, w.rev), Size: size, Rev: w.rev,
			Rows: rows, Provisional: provisional[typeID], Kinds: kinds, Distincts: dist,
		}
	}
	t := w.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if !w.resumed {
		t.dropLocked(w.relPath)
	}
	for typeID, entry := range entries {
		s := &w.segs[typeID]
		tbl := t.man.table(w.fp, typeID)
		if w.resumed {
			// The extended segment publishes under a fresh revision; the
			// base file is doomed (or its staged bytes discarded) — never
			// mutated, so pinned readers keep their snapshot.
			if old, ok := t.staged[s.base]; ok {
				os.Remove(old)
				delete(t.staged, s.base)
			} else {
				t.doomed[s.base] = true
			}
			*segOf(tbl, w.relPath) = entry
		} else {
			if tbl == nil {
				t.man.Tables = append(t.man.Tables, manTable{
					Fingerprint: w.fp,
					Type:        typeID,
					Columns:     columnNames(s.ncols),
				})
				tbl = &t.man.Tables[len(t.man.Tables)-1]
			}
			tbl.Segments = append(tbl.Segments, entry)
		}
		t.staged[entry.File] = s.f.Name()
		delete(t.doomed, entry.File)
	}
	t.touched[w.relPath] = true
	w.segs = nil
	return nil
}

// abort gives up the path's write: every staged file is closed and
// removed.
func (w *pathWriter) abort() {
	for i := range w.segs {
		s := &w.segs[i]
		if s.sw != nil {
			s.sw.release()
			s.sw = nil
		}
		if s.f != nil {
			s.f.Close()
			os.Remove(s.f.Name())
		}
	}
	w.segs = nil
}

// Rewrite replaces relPath's contribution with recs: one segment per
// record type of the format (empty segments included, so later resumes
// and truncations have a base). provisional is the count of records, of
// whatever type, that start at or past the extraction's checkpoint and
// are not yet final; provisionalByType gives each segment its share. It
// is the crawl's write path fed records instead of batches.
func (t *StoreTxn) Rewrite(relPath, fp string, templates []*template.Node, recs []core.RecordOut, provisional int) error {
	w, err := t.writePath(relPath, fp, templates, false)
	if err != nil {
		return err
	}
	if err := w.addRecordOuts(recs); err != nil {
		w.abort()
		return err
	}
	return w.commit(provisionalByType(recs, len(templates), provisional))
}

// provisionalByType counts, per record type, how many of the k
// provisional records each type contributes — the not-yet-finalized rows
// the next resume will re-emit, which a resumed writePath drops before
// appending. What an extraction's checkpoint finalizes is a prefix of the file's
// lines, so the k provisional records are the k that start last, whatever
// their types and wherever they sit in recs (which holds one type after
// the other, each in line order): walking recs backwards, the first k
// records met of each type are that type's last k, and the k latest
// starts among those are the provisional ones.
func provisionalByType(recs []core.RecordOut, ntypes, k int) []int {
	counts := make([]int, ntypes)
	if k <= 0 {
		return counts
	}
	type tail struct{ start, typeID int }
	var tails []tail
	seen := make([]int, ntypes)
	for i, full := len(recs)-1, 0; i >= 0 && full < ntypes; i-- {
		t := recs[i].TypeID
		if t < 0 || t >= ntypes || seen[t] == k {
			continue
		}
		if seen[t]++; seen[t] == k {
			full++
		}
		tails = append(tails, tail{recs[i].StartLine, t})
	}
	slices.SortFunc(tails, func(a, b tail) int { return b.start - a.start })
	for _, tl := range tails[:min(k, len(tails))] {
		counts[tl.typeID]++
	}
	return counts
}
