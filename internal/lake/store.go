package lake

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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
// buffered again and re-encoded together with the new rows.
//
// The manifest records each segment file's size. A scan or a replay
// refuses a file of another size, naming it, and a crawl trusts neither
// it nor an entry that records no size (Covers): the source is extracted
// again, so a store written before sizes were recorded is re-extracted
// once, at its first crawl.

// manifestVersion is the on-disk manifest format this package reads and
// writes.
const manifestVersion = 1

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
	// unknown: no segment's manifest entry records one.
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
	// File is the segment's base name inside the store directory.
	File string `json:"file"`
	// Size is File's length in bytes; 0 where the manifest records none.
	// Every span of a shared file records the whole file's size.
	Size int64 `json:"size,omitempty"`
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
	// segment's rows were written (capped at segDistinctCap); nil where
	// the manifest records none.
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

// MarshalJSON serializes the manifest with its version.
func (m *manifest) MarshalJSON() ([]byte, error) {
	mj := manifestJSON{Version: manifestVersion, Tables: m.Tables}
	if mj.Tables == nil {
		mj.Tables = []manTable{}
	}
	return json.Marshal(mj)
}

// UnmarshalJSON parses a manifest serialized by MarshalJSON. A manifest
// that names a segment file by anything but a base name in the store
// directory is refused: commits unlink the files they supersede.
func (m *manifest) UnmarshalJSON(data []byte) error {
	var mj manifestJSON
	if err := atomicfile.DecodeVersioned(data, manifestVersion, "lake", "store manifest", &mj); err != nil {
		return err
	}
	for _, t := range mj.Tables {
		for _, seg := range t.Segments {
			if f := seg.File; filepath.Base(f) != f || f == "." || f == ".." || f == "manifest.json" {
				return fmt.Errorf("lake: store manifest names segment file %q, not a file of the store directory", f)
			}
		}
	}
	m.Tables = mj.Tables
	m.normalize()
	return nil
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
	if err := atomicfile.LoadJSON(filepath.Join(dir, "manifest.json"), man.UnmarshalJSON); err != nil {
		return nil, err
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
		if k, err := strconv.ParseUint(name[i+1:], 10, 31); err == nil {
			base, typeID = name[:i], int(k)
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

// copyRows replays the kept rows of span — all but its provisional
// tail — from its segment file, open as in, into the writer, a block at
// a time. A full block that the kept rows take whole and that meets an
// empty block buffer is passed through: decoded for the writer's kinds
// and distinct sets, then written as the column bytes the reader holds
// under the zone map of the source footer. Everything else — a partial
// block, the block the provisional tail cuts — is buffered and encoded
// again.
func copyRows(sw *segWriter, in *os.File, ncols int, span manSeg) error {
	plan, err := newScanPlan(ncols, ScanOptions{})
	if err != nil {
		return err
	}
	sc := newSegmentScan(make([]string, ncols), []manSeg{span}, map[string]*os.File{span.File: in}, plan)
	var foot *segFooter
	for copied, limit := 0, span.Rows-span.Provisional; copied < limit; {
		b, err := sc.NextBatch()
		if err == io.EOF {
			return fmt.Errorf("segment %s: %d rows, expected at least %d", span.File, copied, limit)
		}
		if err != nil {
			return err
		}
		sr := sc.cur
		if b.Rows != segBlockRows || copied+b.Rows > limit || sw.nbuf > 0 {
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
// relPath for each of the format's ntypes record types, each in a file
// the store directory has at the size the manifest records — i.e. the
// store already has this file's rows, so a checkpointed skip or resume
// is sound. A file that is missing or of another size, or an entry that
// records no size, is not trusted: the file takes the full path and its
// segments are written again. A span a compaction moved since Begin
// counts where it now is, which is where a resume replays it from
// (replayKept).
func (t *StoreTxn) Covers(relPath, fp string, ntypes int) bool {
	segs := make([]manSeg, 0, ntypes)
	t.mu.Lock()
	for typeID := 0; typeID < ntypes; typeID++ {
		seg := segOf(t.man.table(fp, typeID), relPath)
		if seg == nil {
			t.mu.Unlock()
			return false
		}
		segs = append(segs, *seg)
	}
	t.mu.Unlock()
	intact := func(seg *manSeg) bool {
		st, err := os.Stat(filepath.Join(t.s.dir, seg.File))
		return err == nil && seg.Size != 0 && st.Size() == seg.Size
	}
	for typeID, seg := range segs {
		if intact(&seg) {
			continue
		}
		if cur := t.relocated(fp, typeID, relPath, seg); cur == nil || !intact(cur) {
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
	return atomicfile.SaveJSON(filepath.Join(dir, "manifest.json"), man)
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
