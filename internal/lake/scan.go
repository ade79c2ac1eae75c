package lake

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
)

// ScanPred is one pushed single-column predicate: column Op literal,
// with the query comparison set (= != < <= > >=). Numeric mirrors the
// executor's comparison rule: when true (the column's kind is numeric),
// an ordering comparison is numeric whenever both sides parse as
// floats and lexicographic otherwise — exactly internal/query's
// compareKeyed, so a pushed scan selects the same rows the executor
// would have selected above it.
type ScanPred struct {
	Col     int
	Op      string
	Lit     string
	Numeric bool
}

// ScanOptions narrows a scan. Columns lists the column indexes the
// caller will actually read (nil means all); Preds are conjunctive row
// filters evaluated inside the scan, against raw cell bytes, before
// any row materializes. Rows and batches still come back at full table
// width — columns outside the pushed set are never read: a nil vector
// in a Batch, empty strings in a row.
type ScanOptions struct {
	Columns []int
	Preds   []ScanPred
}

// scanPred is the compiled per-scan form of a ScanPred: the literal's
// float value is parsed once, not per cell.
type scanPred struct {
	op       string
	lit      string
	numeric  bool
	litF     float64
	litIsNum bool
}

// scanPlan is the normalized form of ScanOptions for one table width.
type scanPlan struct {
	width   int
	need    []bool // materialize into the batch
	preds   [][]scanPred
	hasPred bool
}

func newScanPlan(ncols int, opts ScanOptions) (*scanPlan, error) {
	p := &scanPlan{width: ncols, need: make([]bool, ncols)}
	if opts.Columns == nil {
		for c := range p.need {
			p.need[c] = true
		}
	} else {
		for _, c := range opts.Columns {
			if c < 0 || c >= ncols {
				return nil, fmt.Errorf("lake: scan column %d out of range (table has %d)", c, ncols)
			}
			p.need[c] = true
		}
	}
	p.preds = make([][]scanPred, ncols)
	for _, sp := range opts.Preds {
		if sp.Col < 0 || sp.Col >= ncols {
			return nil, fmt.Errorf("lake: scan predicate column %d out of range (table has %d)", sp.Col, ncols)
		}
		switch sp.Op {
		case "=", "!=", "<", "<=", ">", ">=":
		default:
			return nil, fmt.Errorf("lake: unsupported scan predicate op %q", sp.Op)
		}
		cp := scanPred{op: sp.Op, lit: sp.Lit, numeric: sp.Numeric}
		if f, err := strconv.ParseFloat(sp.Lit, 64); err == nil {
			cp.litF, cp.litIsNum = f, true
		}
		p.preds[sp.Col] = append(p.preds[sp.Col], cp)
		p.hasPred = true
	}
	return p, nil
}

// Batch is one decoded block of a scan: the rows that passed the pushed
// predicates, column-major. Cols has one vector per table column. A
// requested column's vector holds Rows cells, every one a substring of
// the single string the scan allocated for that column of that block —
// the selected cells' bytes and nothing else, so a batch never wastes
// the memory it keeps alive. An unrequested column's vector is nil (its
// cells read as "").
//
// The vectors belong to the scan and are overwritten by the next
// NextBatch or Next. The cell strings are immutable and may be kept,
// but one kept cell keeps its block's whole column string alive: clone
// a few cells that must outlive many batches.
type Batch struct {
	Rows int
	Cols [][]string
}

// SegmentScan streams one table's rows across its segments in sorted
// path order, a block (at most segBlockRows rows) at a time. NextBatch
// is the decode path: it applies the pushed projection and predicates
// inside the block and yields what survives as a column Batch. Next is
// a row view carved from the same batches, for callers that want rows;
// use one or the other on a scan (a NextBatch drops the rows Next has
// not handed out yet).
//
// Memory is bounded by one block plus one open descriptor per distinct
// segment file: Scan opens every file eagerly, so the scan owns its
// bytes for its whole lifetime — a concurrent commit that unlinks a
// superseded segment file cannot pull data out from under a reader that
// already resolved it. Blocks are read by offset: a pruned block, an
// unrequested column and the columns of a block no row of which passed
// its predicates cost no I/O.
type SegmentScan struct {
	columns []string
	segs    []manSeg
	// files pins one descriptor per distinct segment file (a compacted
	// table stores many paths' spans in one shared file); lastUse maps
	// each file to the last span index reading it, so descriptors
	// release as soon as no later span needs them.
	files   map[string]*os.File
	lastUse map[string]int
	readers map[string]*segReader
	plan    *scanPlan

	segIdx   int
	cur      *segReader
	rowsLeft int

	batch Batch
	// The row view: the current batch transposed into one slab, and how
	// many of its rows Next has yet to return.
	rows     []string
	viewLeft int

	sel  []bool // scratch: per block row, passed the predicates so far
	ends []int  // scratch: where each selected cell ends once packed

	// Scan-lifetime observability counters (single-goroutine; read via
	// BlockStats after — or during — the scan).
	blocksDecoded int
	blocksPruned  int
	rowsScanned   int
}

// newSegmentScan assembles a scan over segs, whose files the caller has
// opened into files.
func newSegmentScan(columns []string, segs []manSeg, files map[string]*os.File, plan *scanPlan) *SegmentScan {
	sc := &SegmentScan{
		columns: columns,
		segs:    segs,
		files:   files,
		lastUse: map[string]int{},
		readers: map[string]*segReader{},
		plan:    plan,
		batch:   Batch{Cols: make([][]string, len(columns))},
	}
	for i, seg := range segs {
		sc.lastUse[seg.File] = i
	}
	return sc
}

// BlockStats reports how many blocks this scan decoded versus skipped
// outright on their zone maps, plus the rows consumed (pruned blocks
// included — their rows are accounted, just never decoded). The
// counters survive Close, so callers can drain, close, then report.
func (sc *SegmentScan) BlockStats() (decoded, pruned, rows int) {
	return sc.blocksDecoded, sc.blocksPruned, sc.rowsScanned
}

// scanOpenRetries bounds how many times Scan re-resolves a table whose
// segment files vanished between snapshotting the manifest and opening
// them (a commit won the race); each retry sees a strictly newer
// manifest, so in practice one suffices.
const scanOpenRetries = 8

// Scan opens a streaming scan of the named table (exact name or unique
// fingerprint prefix). All segment files open up front: once Scan
// returns, the rows it will yield are pinned — commits publish new
// revisions under new filenames and only unlink old ones, and an open
// descriptor keeps its bytes past the unlink. If a commit lands in the
// narrow window between reading the manifest and opening the files,
// Scan retries against the fresh manifest; a file missing while the
// manifest stays the same is missing outright, and its open error,
// which names it, is returned.
func (s *SegmentStore) Scan(name string) (*SegmentScan, error) {
	return s.ScanWith(name, ScanOptions{})
}

// ScanWith opens a scan with pushed projection and predicates; see
// Scan for the pinning contract.
func (s *SegmentStore) ScanWith(name string, opts ScanOptions) (*SegmentScan, error) {
	man := s.snapshot()
	for attempt := 1; ; attempt++ {
		sc, err := openScan(s.dir, man, name, opts)
		if err == nil || !errors.Is(err, os.ErrNotExist) {
			return sc, err
		}
		next := s.snapshot()
		if next == man {
			return nil, fmt.Errorf("lake: table %q: %w", name, err)
		}
		if attempt == scanOpenRetries {
			return nil, fmt.Errorf("lake: table %q: segments kept vanishing across %d manifest snapshots: %w", name, scanOpenRetries, err)
		}
		man = next
	}
}

// openScan resolves name in man and opens every distinct segment file.
// An os.ErrNotExist from a vanished segment propagates to the caller,
// which owns the retry policy (fresh snapshot for the store, stale-view
// error for a pinned view).
func openScan(dir string, man *manifest, name string, opts ScanOptions) (*SegmentScan, error) {
	ti, err := resolveIn(man, name)
	if err != nil {
		return nil, err
	}
	t := man.table(ti.Fingerprint, ti.Type)
	if t == nil {
		return nil, fmt.Errorf("lake: no table %q in store", name)
	}
	plan, err := newScanPlan(len(t.Columns), opts)
	if err != nil {
		return nil, err
	}
	sc := newSegmentScan(append([]string(nil), t.Columns...), append([]manSeg(nil), t.Segments...), map[string]*os.File{}, plan)
	for _, seg := range sc.segs {
		if _, ok := sc.files[seg.File]; ok {
			continue
		}
		f, err := os.Open(filepath.Join(dir, seg.File))
		if err != nil {
			sc.Close()
			return nil, err
		}
		sc.files[seg.File] = f
	}
	return sc, nil
}

// ErrStaleView marks a StoreView whose manifest snapshot was superseded
// before all of its segments could be opened — the caller should take a
// fresh view and retry.
var ErrStaleView = errors.New("lake: store view superseded before its segments opened")

// StoreView is a pinned point-in-time view of the store: Tables,
// Resolve and ScanWith all answer from the one manifest snapshot taken
// by View, so a multi-table consumer (a relational query joining
// tables) sees a single consistent store state even while commits land.
// Each successful ScanWith pins its segment bytes via open descriptors;
// the only race left is a commit deleting a superseded segment between
// View and ScanWith, which surfaces as ErrStaleView (retry with a fresh
// view).
type StoreView struct {
	dir string
	man *manifest
}

// View pins the store's current state.
func (s *SegmentStore) View() *StoreView {
	return &StoreView{dir: s.dir, man: s.snapshot()}
}

// Tables lists the view's tables.
func (v *StoreView) Tables() []TableInfo { return tablesIn(v.man) }

// Resolve finds a table in the view by query name.
func (v *StoreView) Resolve(name string) (TableInfo, error) { return resolveIn(v.man, name) }

// ScanWith streams one of the view's tables with pushed projection and
// predicates. A vanished segment yields ErrStaleView.
func (v *StoreView) ScanWith(name string, opts ScanOptions) (*SegmentScan, error) {
	sc, err := openScan(v.dir, v.man, name, opts)
	if err != nil && errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: %v", ErrStaleView, err)
	}
	return sc, err
}

// Columns returns the scan's column names.
func (sc *SegmentScan) Columns() []string { return sc.columns }

// Next returns the next row passing the pushed predicates, or io.EOF
// after the last. Rows are full table width; columns outside the
// pushed set are empty strings. The returned slice is the caller's: it
// is carved from a slab allocated per block, its cells the batch's
// substrings (see Batch for what keeping one keeps alive).
func (sc *SegmentScan) Next() ([]string, error) {
	w := sc.plan.width
	if sc.viewLeft == 0 {
		b, err := sc.NextBatch()
		if err != nil {
			return nil, err
		}
		sc.rows = make([]string, b.Rows*w)
		for c, col := range b.Cols {
			for i, cell := range col {
				sc.rows[i*w+c] = cell
			}
		}
		sc.viewLeft = b.Rows
	}
	sc.viewLeft--
	row := sc.rows[:w:w]
	sc.rows = sc.rows[w:]
	return row, nil
}

// NextBatch decodes blocks until one has rows passing the pushed
// predicates and returns them, or io.EOF after the last block. The
// batch is valid until the next NextBatch or Next.
func (sc *SegmentScan) NextBatch() (*Batch, error) {
	sc.viewLeft = 0
	for {
		if sc.rowsLeft == 0 {
			// The current span is done: release its file unless a later
			// span continues in it, then position for the next span.
			if sc.cur != nil {
				if sc.lastUse[sc.cur.file] == sc.segIdx-1 {
					sc.files[sc.cur.file].Close()
					delete(sc.files, sc.cur.file)
					delete(sc.readers, sc.cur.file)
				}
				sc.cur = nil
			}
			if sc.segIdx >= len(sc.segs) {
				return nil, io.EOF
			}
			seg := sc.segs[sc.segIdx]
			sc.segIdx++
			sr, err := sc.reader(seg)
			if err != nil {
				return nil, fmt.Errorf("lake: segment %s: %w", seg.File, err)
			}
			sc.cur = sr
			if err := sr.skipTo(seg.RowOff); err != nil {
				return nil, fmt.Errorf("lake: segment %s: %w", seg.File, err)
			}
			sc.rowsLeft = seg.Rows
			continue
		}
		consumed, err := sc.decodeBlock()
		if err != nil {
			return nil, fmt.Errorf("lake: segment %s: %w", sc.cur.file, err)
		}
		sc.rowsLeft -= consumed
		if sc.batch.Rows > 0 {
			return &sc.batch, nil
		}
	}
}

// reader returns (creating if needed) the reader over seg's file,
// validating the magic and the size the manifest records and, when
// predicates are pushed, loading the zone-map footer.
func (sc *SegmentScan) reader(seg manSeg) (*segReader, error) {
	if sr, ok := sc.readers[seg.File]; ok {
		return sr, nil
	}
	sr, err := newSegReader(seg.File, sc.files[seg.File], len(sc.columns), seg.Size)
	if err != nil {
		return nil, err
	}
	if sc.plan.hasPred {
		foot, err := readFooter(sr.f, sr.size)
		if err != nil {
			return nil, fmt.Errorf("stats footer: %w", err)
		}
		sr.foot = foot
	}
	sc.readers[seg.File] = sr
	return sr, nil
}

// decodeBlock decodes the current span's next block into sc.batch,
// applying the pushed predicates and projection: a block whose zone map
// cannot match is stepped over on its byte lengths alone, predicate
// columns are read and evaluated first, an empty selection reads
// nothing else, and only the selected cells of the requested columns
// materialize. Returns the input rows consumed; sc.batch.Rows is 0 when
// none of them survived.
func (sc *SegmentScan) decodeBlock() (int, error) {
	sr, plan := sc.cur, sc.plan
	sc.batch.Rows = 0
	nrows, err := sr.blockHeader()
	if err != nil {
		return 0, err
	}
	if nrows == 0 || nrows > sc.rowsLeft {
		return 0, fmt.Errorf("block of %d rows overruns span (%d rows expected)", nrows, sc.rowsLeft)
	}
	blockIdx, base := sr.blockIdx, sr.pos
	sr.skipBlock(nrows)
	sc.rowsScanned += nrows
	if sr.foot != nil && blockIdx < len(sr.foot.blocks) && zonePruned(&sr.foot.blocks[blockIdx], plan) {
		sc.blocksPruned++
		return nrows, nil
	}
	sc.blocksDecoded++
	var sel []bool
	selCount := nrows
	if plan.hasPred {
		if cap(sc.sel) < nrows {
			sc.sel = make([]bool, nrows)
		}
		sel = sc.sel[:nrows]
		for i := range sel {
			sel[i] = true
		}
		off := base
		for c := 0; c < sr.ncols && selCount > 0; c++ {
			if preds := plan.preds[c]; len(preds) > 0 {
				buf, err := sr.readColumn(c, off)
				if err != nil {
					return 0, err
				}
				if selCount, err = filterColumn(buf, nrows, preds, sel, selCount); err != nil {
					return 0, err
				}
			}
			off += sr.colBytes[c]
		}
		if selCount == 0 {
			return nrows, nil
		}
	}
	off := base
	for c := 0; c < sr.ncols; c++ {
		if plan.need[c] {
			buf := sr.bufs[c]
			if len(plan.preds[c]) == 0 {
				if buf, err = sr.readColumn(c, off); err != nil {
					return 0, err
				}
			}
			if sc.batch.Cols[c], err = sc.carve(buf, nrows, sel, sc.batch.Cols[c][:0]); err != nil {
				return 0, err
			}
		}
		off += sr.colBytes[c]
	}
	sc.batch.Rows = selCount
	return nrows, nil
}

// carve appends the selected cells (all when sel is nil) of a raw
// column to cells, as substrings of one new string. When predicates
// ran, the survivors' bytes are packed to the front of buf first, so
// the string holds them and nothing else.
func (sc *SegmentScan) carve(buf []byte, nrows int, sel []bool, cells []string) ([]string, error) {
	off := 0
	if sel == nil {
		data := string(buf)
		for i := 0; i < nrows; i++ {
			start, end, ok := cellAt(buf, off)
			if !ok {
				return nil, errCorruptCells
			}
			cells = append(cells, data[start:end])
			off = end
		}
	} else {
		ends, w := sc.ends[:0], 0
		for i := 0; i < nrows; i++ {
			start, end, ok := cellAt(buf, off)
			if !ok {
				return nil, errCorruptCells
			}
			if sel[i] {
				w += copy(buf[w:], buf[start:end])
				ends = append(ends, w)
			}
			off = end
		}
		sc.ends = ends
		data, start := string(buf[:w]), 0
		for _, end := range ends {
			cells = append(cells, data[start:end])
			start = end
		}
	}
	if off != len(buf) {
		return nil, fmt.Errorf("column has %d trailing bytes", len(buf)-off)
	}
	return cells, nil
}

// filterColumn evaluates one column's predicates over its raw cells,
// clearing selection bits for rows that fail.
func filterColumn(buf []byte, nrows int, preds []scanPred, sel []bool, selCount int) (int, error) {
	off := 0
	for i := 0; i < nrows; i++ {
		start, end, ok := cellAt(buf, off)
		if !ok {
			return 0, errCorruptCells
		}
		off = end
		if !sel[i] {
			continue
		}
		for j := range preds {
			if !predMatch(buf[start:end], &preds[j]) {
				sel[i] = false
				selCount--
				break
			}
		}
	}
	if off != len(buf) {
		return 0, fmt.Errorf("column has %d trailing bytes", len(buf)-off)
	}
	return selCount, nil
}

// predMatch evaluates one predicate against a raw cell, mirroring the
// executor's compareKeyed: equality is exact bytes; ordering is numeric
// only when the column kind is numeric and both sides parse as floats,
// lexicographic otherwise.
func predMatch(cell []byte, p *scanPred) bool {
	switch p.op {
	case "=":
		return string(cell) == p.lit
	case "!=":
		return string(cell) != p.lit
	}
	if p.numeric && p.litIsNum {
		if f, err := strconv.ParseFloat(string(cell), 64); err == nil {
			c := 0
			switch {
			case f < p.litF:
				c = -1
			case f > p.litF:
				c = 1
			}
			return cmpHolds(c, p.op)
		}
	}
	return cmpHolds(compareBytesStr(cell, p.lit), p.op)
}

func cmpHolds(c int, op string) bool {
	switch op {
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	case ">=":
		return c >= 0
	}
	return false
}

// compareBytesStr is strings.Compare without materializing the cell.
func compareBytesStr(b []byte, s string) int {
	n := len(b)
	if len(s) < n {
		n = len(s)
	}
	for i := 0; i < n; i++ {
		if b[i] != s[i] {
			if b[i] < s[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(b) < len(s):
		return -1
	case len(b) > len(s):
		return 1
	}
	return 0
}

// Close releases the scan's open segment files.
func (sc *SegmentScan) Close() error {
	var first error
	for name, f := range sc.files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
		delete(sc.files, name)
	}
	sc.readers = map[string]*segReader{}
	sc.cur = nil
	return first
}

// zonePruned reports whether a block's zone maps prove that no row can
// pass the pushed predicates.
func zonePruned(fb *footBlock, plan *scanPlan) bool {
	for c, preds := range plan.preds {
		if len(preds) == 0 || c >= len(fb.cols) {
			continue
		}
		for j := range preds {
			if zoneExcludes(&fb.cols[c], &preds[j]) {
				return true
			}
		}
	}
	return false
}

// zoneExcludes mirrors predMatch block-wide: equality prunes on the
// lexicographic bounds; an ordering predicate on a numeric column
// prunes numerically only when the whole block parses (allNumeric),
// because a mixed block falls back to per-row lexicographic comparison
// that min/max in either order cannot bound; every other ordering
// comparison is lexicographic for every row, so the lex bounds decide.
func zoneExcludes(z *colZone, p *scanPred) bool {
	switch p.op {
	case "=":
		return p.lit < z.lexMin || p.lit > z.lexMax
	case "!=":
		return z.lexMin == z.lexMax && z.lexMin == p.lit
	}
	if p.numeric && p.litIsNum {
		if !z.allNumeric {
			return false
		}
		switch p.op {
		case "<":
			return z.numMin >= p.litF
		case "<=":
			return z.numMin > p.litF
		case ">":
			return z.numMax <= p.litF
		case ">=":
			return z.numMax < p.litF
		}
		return false
	}
	switch p.op {
	case "<":
		return z.lexMin >= p.lit
	case "<=":
		return z.lexMin > p.lit
	case ">":
		return z.lexMax <= p.lit
	case ">=":
		return z.lexMax < p.lit
	}
	return false
}
