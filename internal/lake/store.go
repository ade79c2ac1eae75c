package lake

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"datamaran/internal/atomicfile"
	"datamaran/internal/semtype"
)

// The record store: per-format columnar segments written next to the
// registry by the crawl, so the query engine can scan the lake's
// extracted records without re-extracting anything.
//
// Layout under the store directory:
//
//	manifest.json          table directory (versioned, atomic, deterministic)
//	<hash>.t<k>.seg        one segment per (source file, record type)
//
// A table is one (format fingerprint, record type) pair; its rows are
// the denormalized records (one row per record, columns f0..fN, array
// repetitions joined with the array separator) of every claimed file,
// concatenated in sorted path order. Segments are block-structured and
// column-major inside each block, and a block is self-contained: its
// header carries its own lengths and nothing in it points outside it,
// so an encoded block can be moved between files as bytes, its zone map
// moving with it from one footer to the next. Published bytes are never
// mutated: a grown file's segment is rewritten under a fresh revision
// (a resumed write, see writePath), and what that costs per kept block
// is below.
//
// Mutations go through a StoreTxn: the crawl stages new segment bytes
// in the store directory and nothing becomes visible until Commit
// renames them in and swaps the manifest — the same
// only-completed-crawls-publish discipline the serve daemon applies to
// the registry and checkpoint store.
//
// Reads go through a SegmentScan, whose unit is the block: one decoder
// (decodeBlock) turns a block into a column Batch — pushed predicates
// and zone-map pruning applied, one string allocated per requested
// column — and everything that reads cells is a view of those batches:
// the query engine consumes them as they are and Next hands them out as
// rows.
//
// The store's own rewrites encode a block once. Compact (compact.go)
// relocates blocks: it walks block headers, copies each span's byte
// range into the shared file and carries the span's zone maps over from
// the source footer, decoding nothing. A resume's replay of a grown
// file's kept rows (copyRows) reads batches: a whole kept block is
// decoded once, because the segment's kinds and distinct counts are
// folded over the values, and is then written back as the column bytes
// and zone map it arrived with; only the last, partial kept block is
// buffered again and re-encoded together with the new rows. A v1 span
// has neither header lengths nor a footer and is replayed cell by cell
// on both paths.

// manifestVersion is the on-disk manifest format this package reads and
// writes.
const manifestVersion = 1

// segMagicV1 opens every v1 segment file: blocks of
// uvarint-length-prefixed cells, terminated by EOF, no statistics.
var segMagicV1 = []byte("dmseg1\n")

// segMagicV2 opens every v2 segment file. v2 blocks carry per-column
// byte lengths after the row count, so a scan skips columns it does not
// read without decoding a single cell, and the file ends with a stats
// footer (per-block per-column zone maps plus per-column distinct
// estimates) found via a fixed-size length trailer at the end of the
// file. New segments always write v2; v1 stays readable.
var segMagicV2 = []byte("dmseg2\n")

// segBlockRows caps the rows per segment block: the unit of buffering
// for both the writer and the streaming reader.
const segBlockRows = 1024

// segDistinctCap bounds the per-column distinct-value tracking while a
// segment is written: counts are exact up to the cap, and a column that
// reaches it reports the cap itself ("at least this many") — plenty of
// resolution for join-order selectivity, bounded memory for the writer.
const segDistinctCap = 4096

// TableInfo describes one queryable table of the record store.
type TableInfo struct {
	// Name is the table's query name: the format fingerprint, with a
	// "_<k>" suffix for record types beyond the first.
	Name string
	// Fingerprint is the owning format.
	Fingerprint string
	// Type is the record type index within the format.
	Type int
	// Columns are the column names (f0..fN, the denormalized schema).
	Columns []string
	// Kinds are the per-column scalar kinds (semtype classification,
	// folded across segments).
	Kinds []semtype.Kind
	// Rows is the total row count across segments.
	Rows int
	// Segments counts the contributing source files.
	Segments int
	// Distincts are per-column distinct-count estimates, the max across
	// segments (exact per segment up to segDistinctCap). 0 means
	// unknown — v1-era segments carry no stats.
	Distincts []int
}

// tableName renders the query name of a (fingerprint, type) pair.
func tableName(fp string, typeID int) string {
	if typeID == 0 {
		return fp
	}
	return fmt.Sprintf("%s_%d", fp, typeID)
}

// manSeg is one source file's contribution to a table.
type manSeg struct {
	// Path is the source file, slash-separated relative to the lake root.
	Path string `json:"path"`
	// File is the segment filename inside the store directory.
	File string `json:"file"`
	// Rev is the write revision behind File. Every rewrite or append
	// publishes a fresh filename (rev+1), never mutating bytes a live
	// manifest can reference — a scan that opened its segments keeps
	// reading exactly the snapshot it resolved, across any number of
	// commits.
	Rev int `json:"rev,omitempty"`
	// Rows is the segment's row count.
	Rows int `json:"rows"`
	// Provisional counts the trailing rows whose records were not yet
	// finalized at the last crawl — an incremental resume re-emits
	// them, so a resumed write truncates them before appending.
	Provisional int `json:"provisional,omitempty"`
	// Kinds are the column kinds observed over this segment's values.
	Kinds []semtype.Kind `json:"kinds"`
	// Distincts are per-column distinct estimates observed when the
	// segment's rows were written (capped at segDistinctCap); nil for
	// segments written before the stats footer existed.
	Distincts []int `json:"distincts,omitempty"`
	// RowOff is this span's starting row inside File. Zero for a
	// dedicated per-path segment file; a compacted table shares one
	// file across paths, each path's rows a block-aligned span starting
	// at RowOff.
	RowOff int `json:"rowOff,omitempty"`
}

// manTable is one table of the manifest.
type manTable struct {
	Fingerprint string   `json:"fingerprint"`
	Type        int      `json:"type"`
	Columns     []string `json:"columns"`
	Segments    []manSeg `json:"segments"`
}

// manifest is the store directory's table index.
type manifest struct {
	Tables []manTable
}

type manifestJSON struct {
	Version int        `json:"version"`
	Tables  []manTable `json:"tables"`
}

// clone deep-copies the manifest so a transaction can mutate freely.
func (m *manifest) clone() *manifest {
	out := &manifest{Tables: make([]manTable, len(m.Tables))}
	for i, t := range m.Tables {
		ct := t
		ct.Columns = append([]string(nil), t.Columns...)
		ct.Segments = make([]manSeg, len(t.Segments))
		for j, s := range t.Segments {
			cs := s
			cs.Kinds = append([]semtype.Kind(nil), s.Kinds...)
			cs.Distincts = append([]int(nil), s.Distincts...)
			ct.Segments[j] = cs
		}
		out.Tables[i] = ct
	}
	return out
}

// normalize sorts tables by (fingerprint, type) and segments by path,
// and drops tables with no segments — the canonical (deterministic)
// form both Commit and MarshalJSON rely on.
func (m *manifest) normalize() {
	tables := m.Tables[:0]
	for _, t := range m.Tables {
		if len(t.Segments) > 0 {
			sort.Slice(t.Segments, func(a, b int) bool { return t.Segments[a].Path < t.Segments[b].Path })
			tables = append(tables, t)
		}
	}
	m.Tables = tables
	sort.Slice(m.Tables, func(a, b int) bool {
		if m.Tables[a].Fingerprint != m.Tables[b].Fingerprint {
			return m.Tables[a].Fingerprint < m.Tables[b].Fingerprint
		}
		return m.Tables[a].Type < m.Tables[b].Type
	})
}

// table finds the (fingerprint, type) table, or nil.
func (m *manifest) table(fp string, typeID int) *manTable {
	for i := range m.Tables {
		if m.Tables[i].Fingerprint == fp && m.Tables[i].Type == typeID {
			return &m.Tables[i]
		}
	}
	return nil
}

// SegmentStore is the on-disk record store handle. It is safe for
// concurrent use: scans snapshot the manifest, and commits swap it
// whole.
type SegmentStore struct {
	dir string
	mu  sync.RWMutex
	man *manifest
}

// OpenSegmentStore opens (creating if needed) the record store rooted
// at dir. A missing manifest yields an empty store, so first runs need
// no setup.
func OpenSegmentStore(dir string) (*SegmentStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	man := &manifest{}
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	switch {
	case os.IsNotExist(err):
	case err != nil:
		return nil, err
	default:
		var mj manifestJSON
		if err := json.Unmarshal(raw, &mj); err != nil {
			return nil, fmt.Errorf("lake: bad store manifest: %w", err)
		}
		if mj.Version != manifestVersion {
			return nil, fmt.Errorf("lake: unsupported store manifest version %d (supported: %d)", mj.Version, manifestVersion)
		}
		man.Tables = mj.Tables
		man.normalize()
	}
	return &SegmentStore{dir: dir, man: man}, nil
}

// Dir returns the store directory.
func (s *SegmentStore) Dir() string { return s.dir }

// snapshot returns the current manifest pointer (immutable once
// published).
func (s *SegmentStore) snapshot() *manifest {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.man
}

// info converts a manifest table into its public form, folding segment
// kinds into table kinds.
func info(t *manTable) TableInfo {
	ti := TableInfo{
		Name:        tableName(t.Fingerprint, t.Type),
		Fingerprint: t.Fingerprint,
		Type:        t.Type,
		Columns:     append([]string(nil), t.Columns...),
		Segments:    len(t.Segments),
	}
	for i, seg := range t.Segments {
		ti.Rows += seg.Rows
		if len(seg.Distincts) > 0 {
			if ti.Distincts == nil {
				ti.Distincts = make([]int, len(t.Columns))
			}
			for c := 0; c < len(ti.Distincts) && c < len(seg.Distincts); c++ {
				if seg.Distincts[c] > ti.Distincts[c] {
					ti.Distincts[c] = seg.Distincts[c]
				}
			}
		}
		if i == 0 {
			ti.Kinds = append([]semtype.Kind(nil), seg.Kinds...)
			continue
		}
		for c := range ti.Kinds {
			if c < len(seg.Kinds) {
				ti.Kinds[c] = semtype.MergeKinds(ti.Kinds[c], seg.Kinds[c])
			}
		}
	}
	if ti.Kinds == nil {
		ti.Kinds = make([]semtype.Kind, len(ti.Columns))
		for i := range ti.Kinds {
			ti.Kinds[i] = semtype.KindString
		}
	}
	return ti
}

// Tables lists the store's tables in manifest (fingerprint, type)
// order.
func (s *SegmentStore) Tables() []TableInfo {
	return tablesIn(s.snapshot())
}

func tablesIn(man *manifest) []TableInfo {
	out := make([]TableInfo, 0, len(man.Tables))
	for i := range man.Tables {
		out = append(out, info(&man.Tables[i]))
	}
	return out
}

// Resolve finds a table by query name: an exact name, or a unique
// fingerprint prefix (with optional "_<k>" type suffix) — the
// git-style shorthand the query surfaces accept.
func (s *SegmentStore) Resolve(name string) (TableInfo, error) {
	return resolveIn(s.snapshot(), name)
}

func resolveIn(man *manifest, name string) (TableInfo, error) {
	base, typeID := name, 0
	if i := strings.LastIndexByte(name, '_'); i > 0 {
		if _, err := fmt.Sscanf(name[i+1:], "%d", &typeID); err == nil {
			base = name[:i]
		} else {
			typeID = 0
		}
	}
	var hits []*manTable
	for i := range man.Tables {
		t := &man.Tables[i]
		if tableName(t.Fingerprint, t.Type) == name {
			hits = []*manTable{t}
			break
		}
		if t.Type == typeID && strings.HasPrefix(t.Fingerprint, base) {
			hits = append(hits, t)
		}
	}
	switch len(hits) {
	case 1:
		return info(hits[0]), nil
	case 0:
		return TableInfo{}, fmt.Errorf("lake: no table %q in store (have %s)", name, storeTableNames(man))
	default:
		return TableInfo{}, fmt.Errorf("lake: table prefix %q is ambiguous", name)
	}
}

func storeTableNames(man *manifest) string {
	if len(man.Tables) == 0 {
		return "none"
	}
	names := make([]string, 0, len(man.Tables))
	for _, t := range man.Tables {
		names = append(names, tableName(t.Fingerprint, t.Type))
	}
	return strings.Join(names, ", ")
}

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
	version  int
	ncols    int
	rowPos   int
	blockIdx int
	foot     *segFooter // v2 only: loaded to prune blocks (pushed predicates) or to relocate them
	colBytes []int64    // the current block's per-column byte lengths
	bufs     [][]byte   // scratch: raw per-column cell bytes
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
// Scan retries against the fresh manifest.
func (s *SegmentStore) Scan(name string) (*SegmentScan, error) {
	return s.ScanWith(name, ScanOptions{})
}

// ScanWith opens a scan with pushed projection and predicates; see
// Scan for the pinning contract.
func (s *SegmentStore) ScanWith(name string, opts ScanOptions) (*SegmentScan, error) {
	var lastErr error
	for attempt := 0; attempt < scanOpenRetries; attempt++ {
		sc, err := openScan(s.dir, s.snapshot(), name, opts)
		if err != nil && errors.Is(err, os.ErrNotExist) {
			lastErr = err
			continue
		}
		return sc, err
	}
	return nil, fmt.Errorf("lake: table %q: segments kept vanishing across %d manifest snapshots: %w", name, scanOpenRetries, lastErr)
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
// Resolve and Scan all answer from the one manifest snapshot taken by
// View, so a multi-table consumer (a relational query joining tables)
// sees a single consistent store state even while commits land. Each
// successful Scan pins its segment bytes via open descriptors; the only
// race left is a commit deleting a superseded segment between View and
// Scan, which surfaces as ErrStaleView (retry with a fresh view).
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

// Scan streams one of the view's tables. A vanished segment yields
// ErrStaleView.
func (v *StoreView) Scan(name string) (*SegmentScan, error) {
	return v.ScanWith(name, ScanOptions{})
}

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
			sr, err := sc.reader(seg.File)
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

// segWindow is the read-ahead window's size: enough for any block
// header of a table of ordinary width in one read.
const segWindow = 4096

// reader returns (creating if needed) the reader over one segment file,
// validating the magic and, when predicates are pushed against a v2
// segment, loading the zone-map footer.
func (sc *SegmentScan) reader(file string) (*segReader, error) {
	if sr, ok := sc.readers[file]; ok {
		return sr, nil
	}
	sr, err := newSegReader(file, sc.files[file], len(sc.columns))
	if err != nil {
		return nil, err
	}
	if sc.plan.hasPred && sr.version >= 2 {
		foot, err := readFooter(sr.f, sr.size)
		if err != nil {
			return nil, fmt.Errorf("stats footer: %w", err)
		}
		sr.foot = foot
	}
	sc.readers[file] = sr
	return sr, nil
}

// newSegReader positions a reader at the first block of an open segment
// file of ncols columns, having validated the magic.
func newSegReader(file string, f *os.File, ncols int) (*segReader, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
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
	magic, err := sr.peek(len(segMagicV1))
	switch {
	case err != nil:
		return nil, errors.New("bad magic")
	case bytes.Equal(magic, segMagicV1):
		sr.version = 1
	case bytes.Equal(magic, segMagicV2):
		sr.version = 2
	default:
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
// It returns the block's row count; 0 is the v2 end-of-blocks sentinel
// (the stats footer follows). A v2 header carries the lengths; a v1
// block has none, so its cells are walked once to measure its columns —
// after which both versions decode, and skip, the same way.
func (sr *segReader) blockHeader() (int, error) {
	n, err := sr.uvarint()
	if err != nil {
		return 0, err
	}
	if n == 0 && sr.version < 2 {
		return 0, errors.New("bad block row count 0")
	}
	if n > segBlockRows {
		return 0, fmt.Errorf("bad block row count %d", n)
	}
	if n == 0 {
		return 0, nil
	}
	if sr.version >= 2 {
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
	start := sr.pos
	for c := range sr.colBytes {
		colStart := sr.pos
		for i := 0; i < int(n); i++ {
			cell, err := sr.length()
			if err != nil {
				return 0, err
			}
			sr.pos += cell
		}
		sr.colBytes[c] = sr.pos - colStart
	}
	sr.pos = start
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

// segFooter is a v2 segment's decoded stats footer. distincts is
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

// readFooter locates and decodes the stats footer of a v2 segment of
// size bytes via the 8-byte length trailer at the end of the file.
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

// segFileName derives the segment filename of one (source file, type,
// revision) triple — a hash, so arbitrary lake paths map onto flat
// store names. Revision 0 (the fresh-crawl case) keeps the historical
// unsuffixed name; later revisions are distinct files, so concurrent
// readers pinned to an older manifest never observe mutated bytes.
func segFileName(relPath string, typeID, rev int) string {
	sum := sha256.Sum256([]byte(relPath))
	if rev == 0 {
		return fmt.Sprintf("%x.t%d.seg", sum[:12], typeID)
	}
	return fmt.Sprintf("%x.t%d.r%d.seg", sum[:12], typeID, rev)
}

// StoreTxn stages one crawl's record-store mutations. Methods are safe
// to call from the crawl's worker pool; nothing is visible to readers
// (or survives a crash) until Commit. Commit rebases: the transaction
// is authoritative only for the source files it touched, so concurrent
// transactions over disjoint file sets (the serve daemon's per-format
// scoped reindexes) compose instead of clobbering each other.
//
// A source file's rows are written one way (see write.go): a crawl
// streams each batch of the file's extraction into the file's staged
// segments, one per record type, and Rewrite feeds the same writer
// records already in hand. A file's write is all or nothing
// within the transaction: its segments are installed together once every
// one is complete, and a write that fails leaves the file's rows as they
// were and no staged file behind.
type StoreTxn struct {
	s   *SegmentStore
	mu  sync.Mutex
	man *manifest
	// staged maps final segment filenames to their staged temp paths;
	// doomed lists segment files to delete at commit; touched records
	// the source paths this transaction rewrote, appended or dropped —
	// the paths its Commit is authoritative for.
	staged  map[string]string
	doomed  map[string]bool
	touched map[string]bool
	done    bool
}

// Begin opens a transaction over the store's current state.
func (s *SegmentStore) Begin() *StoreTxn {
	return &StoreTxn{
		s:       s,
		man:     s.snapshot().clone(),
		staged:  map[string]string{},
		doomed:  map[string]bool{},
		touched: map[string]bool{},
	}
}

// nextRevLocked picks the write revision for relPath's next segment
// files: one past the highest revision any table holds for the path (0
// for a first write). Revisions are monotonic within the transaction,
// so repeated rewrites of one path never reuse a published filename.
func (t *StoreTxn) nextRevLocked(relPath string) int {
	rev := 0
	for i := range t.man.Tables {
		for _, seg := range t.man.Tables[i].Segments {
			if seg.Path == relPath && seg.Rev >= rev {
				rev = seg.Rev + 1
			}
		}
	}
	return rev
}

// copyRows replays the first limit rows of a span — rows rows starting
// at row skip of a segment file of either format version — into the
// writer, a block at a time. A full v2 block that lies within the limit
// and meets an empty block buffer is passed through: decoded for the
// writer's kinds and distinct sets, then written as the column bytes
// the reader holds under the zone map of the source footer. Everything
// else — v1 blocks, a partial block, the block the limit cuts — is
// buffered and encoded again.
func copyRows(sw *segWriter, in *os.File, ncols, skip, rows, limit int) error {
	plan, err := newScanPlan(ncols, ScanOptions{})
	if err != nil {
		return err
	}
	span := manSeg{File: in.Name(), RowOff: skip, Rows: rows}
	sc := newSegmentScan(make([]string, ncols), []manSeg{span}, map[string]*os.File{span.File: in}, plan)
	var foot *segFooter
	for copied := 0; copied < limit; {
		b, err := sc.NextBatch()
		if err == io.EOF {
			return fmt.Errorf("segment %s: %d rows, expected at least %d", span.File, copied, limit)
		}
		if err != nil {
			return err
		}
		sr := sc.cur
		if sr.version < 2 || b.Rows != segBlockRows || copied+b.Rows > limit || sw.nbuf > 0 {
			n := min(b.Rows, limit-copied)
			if err := sw.addColumns(b.Cols, n); err != nil {
				return err
			}
			copied += n
			continue
		}
		if foot == nil {
			if foot, err = readFooter(in, sr.size); err != nil {
				return fmt.Errorf("lake: segment %s: stats footer: %w", span.File, err)
			}
		}
		// The scan read every column: sr.bufs holds the block's bytes.
		zones, err := foot.zonesOf(sr.blockIdx-1, b.Rows, ncols)
		if err != nil {
			return fmt.Errorf("lake: segment %s: %w", span.File, err)
		}
		if err := sw.passBlock(sr.bufs, zones); err != nil {
			return err
		}
		copied += b.Rows
	}
	return nil
}

// Covers reports whether the transaction's view holds a segment of
// relPath for each of the format's ntypes record types — i.e. the
// store already has this file's rows, so a checkpointed skip or resume
// is sound.
func (t *StoreTxn) Covers(relPath, fp string, ntypes int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	for typeID := 0; typeID < ntypes; typeID++ {
		if segOf(t.man.table(fp, typeID), relPath) == nil {
			return false
		}
	}
	return true
}

// Drop removes relPath's contribution from every table (the file is
// gone, unstructured, or reclassified).
func (t *StoreTxn) Drop(relPath string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.dropLocked(relPath)
}

func (t *StoreTxn) dropLocked(relPath string) {
	t.touched[relPath] = true
	for i := range t.man.Tables {
		tbl := &t.man.Tables[i]
		kept := tbl.Segments[:0]
		for _, seg := range tbl.Segments {
			if seg.Path == relPath {
				if tmp, ok := t.staged[seg.File]; ok {
					os.Remove(tmp)
					delete(t.staged, seg.File)
				}
				t.doomed[seg.File] = true
				continue
			}
			kept = append(kept, seg)
		}
		tbl.Segments = kept
	}
}

// Retain drops every source file the predicate rejects — the
// departed-file pruning mirror of follow.Store.Retain.
func (t *StoreTxn) Retain(keep func(path string) bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var gone []string
	seen := map[string]bool{}
	for i := range t.man.Tables {
		for _, seg := range t.man.Tables[i].Segments {
			if !seen[seg.Path] && !keep(seg.Path) {
				gone = append(gone, seg.Path)
			}
			seen[seg.Path] = true
		}
	}
	for _, p := range gone {
		t.dropLocked(p)
	}
}

// Commit publishes the transaction: staged segments rename to their
// final names, the transaction's outcome is rebased onto the store's
// current manifest (see mergeManifest) and saved atomically, the
// in-memory store swaps to the merged state, and doomed segment files
// are deleted only after the swap — readers that opened their segments
// keep their bytes (open descriptors survive the unlink), and every
// rewrite publishes fresh filenames, so a concurrent scan always reads
// exactly the manifest snapshot it resolved. A failed commit leaves
// staged temp files cleaned up and the store unchanged (a torn rename
// set can leave orphan segment bytes on disk, but the manifest — the
// source of truth — still names only complete files).
func (t *StoreTxn) Commit() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return errors.New("lake: store transaction already finished")
	}
	t.done = true
	t.man.normalize()
	for name, tmp := range t.staged {
		if err := os.Rename(tmp, filepath.Join(t.s.dir, name)); err != nil {
			t.abortLocked()
			return err
		}
		delete(t.staged, name)
	}
	// Merge and publish under the store lock: concurrent commits
	// serialize here, each rebasing its touched paths onto whatever the
	// other already published.
	t.s.mu.Lock()
	replaced := t.s.man
	merged := mergeManifest(replaced, t.man, t.touched)
	err := saveManifest(t.s.dir, merged)
	if err == nil {
		t.s.man = merged
	}
	t.s.mu.Unlock()
	if err != nil {
		return err
	}
	// A doomed file can still back spans of the published manifest: a
	// compacted file is shared by several paths, and this transaction
	// dooms it when it rewrites or drops just one of them. Keep any
	// file the published manifest still references. A file the replaced
	// manifest named and the published one does not is superseded too,
	// even unseen: a compaction after Begin may have folded every path
	// this transaction rewrote into it.
	live := referencedFiles(merged)
	for _, dead := range []map[string]bool{t.doomed, referencedFiles(replaced)} {
		for name := range dead {
			if !live[name] {
				os.Remove(filepath.Join(t.s.dir, name))
			}
		}
	}
	return nil
}

// referencedFiles collects every segment filename a manifest points at.
func referencedFiles(man *manifest) map[string]bool {
	out := map[string]bool{}
	for i := range man.Tables {
		for _, seg := range man.Tables[i].Segments {
			out[seg.File] = true
		}
	}
	return out
}

// mergeManifest rebases a transaction's outcome onto the store's
// current manifest: for every source path the transaction touched, the
// transaction is authoritative (its segments replace whatever the
// current manifest holds — including absence, for drops); untouched
// paths keep their current segments. Transactions over disjoint path
// sets therefore compose — a per-format scoped reindex committing
// mid-flight of another never loses its work.
func mergeManifest(cur, txn *manifest, touched map[string]bool) *manifest {
	out := cur.clone()
	for i := range out.Tables {
		tbl := &out.Tables[i]
		kept := tbl.Segments[:0]
		for _, seg := range tbl.Segments {
			if !touched[seg.Path] {
				kept = append(kept, seg)
			}
		}
		tbl.Segments = kept
	}
	for _, tt := range txn.Tables {
		for _, seg := range tt.Segments {
			if !touched[seg.Path] {
				continue
			}
			tbl := out.table(tt.Fingerprint, tt.Type)
			if tbl == nil {
				out.Tables = append(out.Tables, manTable{
					Fingerprint: tt.Fingerprint,
					Type:        tt.Type,
					Columns:     append([]string(nil), tt.Columns...),
				})
				tbl = &out.Tables[len(out.Tables)-1]
			}
			tbl.Segments = append(tbl.Segments, seg)
		}
	}
	out.normalize()
	return out
}

// Abort discards the transaction's staged files; the store is
// untouched.
func (t *StoreTxn) Abort() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return
	}
	t.done = true
	t.abortLocked()
}

func (t *StoreTxn) abortLocked() {
	for _, tmp := range t.staged {
		os.Remove(tmp)
	}
	t.staged = map[string]string{}
}

// saveManifest writes the manifest atomically (see atomicfile),
// indented — the same discipline as the registry.
func saveManifest(dir string, man *manifest) error {
	mj := manifestJSON{Version: manifestVersion, Tables: man.Tables}
	if mj.Tables == nil {
		mj.Tables = []manTable{}
	}
	raw, err := json.MarshalIndent(mj, "", "  ")
	if err != nil {
		return err
	}
	return atomicfile.WriteBytes(filepath.Join(dir, "manifest.json"), append(raw, '\n'))
}

// segOf finds relPath's segment in a table, or nil.
func segOf(tbl *manTable, relPath string) *manSeg {
	if tbl == nil {
		return nil
	}
	for i := range tbl.Segments {
		if tbl.Segments[i].Path == relPath {
			return &tbl.Segments[i]
		}
	}
	return nil
}

// columnNames renders the denormalized header f0..fN.
func columnNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("f%d", i)
	}
	return out
}
