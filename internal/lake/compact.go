package lake

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"datamaran/internal/atomicfile"
)

// DefaultCompactFiles is the per-table segment-file bound the crawl
// passes to Compact: a table spread over more files than this is
// rewritten into one shared file.
const DefaultCompactFiles = 2

// compactFileName names a table's compacted shared segment file. gen
// rises past every revision the table has published (and the spans it
// writes carry Rev=gen), so repeated compactions and interleaved
// appends never reuse a live filename.
func compactFileName(fp string, typeID, gen int) string {
	sum := sha256.Sum256([]byte("compact\x00" + fp))
	return fmt.Sprintf("%x.t%d.c%d.seg", sum[:12], typeID, gen)
}

// Compact rewrites every table whose rows are spread across more than
// maxFiles segment files into one fresh shared file per table: the
// paths' spans follow each other in sorted path order, every span
// block-aligned (zone maps never mix paths), and each span keeps its
// original row count, provisional tail, kinds and distinct estimates
// under a new (File, Size, Rev, RowOff). A span is relocated, not
// rewritten: its blocks are copied as bytes and its zone maps carried
// over from the source footer (spliceSpan). Logical table contents are
// untouched — only the file layout changes — so Compact is an
// optimization the crawl runs after committing: it publishes via
// compare-and-swap against the manifest it read and simply skips
// (returning 0) if a concurrent commit got there first; the next crawl
// retries. Superseded segment files are deleted once the new manifest
// is published. Returns the number of tables rewritten.
func (s *SegmentStore) Compact(maxFiles int) (int, error) {
	return s.compact(s.snapshot(), maxFiles)
}

// stagedFile is one compacted table on its way to being published.
type stagedFile struct{ tmp, final string }

// compact is Compact over the manifest the caller read. A commit
// published after base was read unlinks the segment files it
// superseded, so a failure to stage while the store has already moved
// past base is not reported: the work was going to lose the
// compare-and-swap whatever happened to it, and a fault that was not
// that commit's doing shows again at the next compaction, over a
// manifest that is current.
func (s *SegmentStore) compact(base *manifest, maxFiles int) (int, error) {
	if maxFiles < 1 {
		maxFiles = 1
	}
	var targets []int
	for i := range base.Tables {
		files := map[string]bool{}
		for _, seg := range base.Tables[i].Segments {
			files[seg.File] = true
		}
		if len(files) > maxFiles {
			targets = append(targets, i)
		}
	}
	if len(targets) == 0 {
		return 0, nil
	}
	next, staged, err := stageCompaction(s.dir, base, targets)
	if err != nil {
		if s.snapshot() != base {
			return 0, nil
		}
		return 0, err
	}
	s.mu.Lock()
	if s.man != base {
		// A commit published while we were rewriting; our inputs are
		// stale. Drop the work — the next crawl re-triggers compaction.
		s.mu.Unlock()
		removeStaged(staged)
		return 0, nil
	}
	renamed := 0
	for _, sf := range staged {
		if err = os.Rename(sf.tmp, filepath.Join(s.dir, sf.final)); err != nil {
			break
		}
		renamed++
	}
	if err == nil {
		err = saveManifest(s.dir, next)
	}
	if err != nil {
		// Nothing was published: take back the files already renamed —
		// under the lock and still at base, so the names are ours — and
		// the temps not yet renamed.
		for _, sf := range staged[:renamed] {
			os.Remove(filepath.Join(s.dir, sf.final))
		}
		s.mu.Unlock()
		removeStaged(staged[renamed:])
		return 0, err
	}
	s.man = next
	s.mu.Unlock()
	live := referencedFiles(next)
	for name := range referencedFiles(base) {
		if !live[name] {
			os.Remove(filepath.Join(s.dir, name))
		}
	}
	return len(targets), nil
}

func removeStaged(staged []stagedFile) {
	for _, sf := range staged {
		os.Remove(sf.tmp)
	}
}

// stageCompaction writes the shared file of every target table of base
// under a temp name and returns the manifest that would publish them.
// Every input opens before anything is written: an open descriptor
// outlives the unlink of a commit that supersedes the file meanwhile,
// so the staging either sees all of base or fails at once. On error
// nothing staged is left behind.
func stageCompaction(dir string, base *manifest, targets []int) (*manifest, []stagedFile, error) {
	inputs := map[string]*os.File{}
	defer func() {
		for _, f := range inputs {
			f.Close()
		}
	}()
	for _, ti := range targets {
		for _, seg := range base.Tables[ti].Segments {
			if inputs[seg.File] != nil {
				continue
			}
			f, err := os.Open(filepath.Join(dir, seg.File))
			if err != nil {
				return nil, nil, err
			}
			inputs[seg.File] = f
		}
	}
	next := base.clone()
	var staged []stagedFile
	for _, ti := range targets {
		sf, err := compactTable(dir, &next.Tables[ti], inputs)
		if err != nil {
			removeStaged(staged)
			return nil, nil, err
		}
		staged = append(staged, sf)
	}
	next.normalize()
	return next, staged, nil
}

// compactTable stages one table's shared file from the open inputs and
// points the table's spans at it.
func compactTable(dir string, tbl *manTable, inputs map[string]*os.File) (stagedFile, error) {
	ncols := len(tbl.Columns)
	gen := 0
	for _, seg := range tbl.Segments {
		if seg.Rev >= gen {
			gen = seg.Rev + 1
		}
	}
	sf := stagedFile{final: compactFileName(tbl.Fingerprint, tbl.Type, gen)}
	var err error
	sf.tmp, err = atomicfile.Stage(dir, func(w io.Writer) error {
		sw := newSegWriter(w, ncols)
		defer sw.release()
		if _, err := sw.w.Write(segMagicV2); err != nil {
			return err
		}
		// Spans that share a source file (an earlier compaction's output)
		// follow each other in it in path order, so one forward-only
		// reader per file serves them all.
		readers := map[string]*segReader{}
		rowOff := 0
		for si := range tbl.Segments {
			seg := &tbl.Segments[si]
			sr := readers[seg.File]
			if sr == nil {
				var err error
				if sr, err = openSpliceReader(seg.File, inputs[seg.File], ncols, seg.Size); err != nil {
					return fmt.Errorf("lake: segment %s: %w", seg.File, err)
				}
				readers[seg.File] = sr
			}
			if err := spliceSpan(sw, sr, seg); err != nil {
				return fmt.Errorf("lake: segment %s: %w", seg.File, err)
			}
			seg.File, seg.Rev, seg.RowOff = sf.final, gen, rowOff
			rowOff += seg.Rows
		}
		if sw.rows != rowOff {
			return fmt.Errorf("lake: compaction wrote %d rows, manifest names %d", sw.rows, rowOff)
		}
		// No value was seen, so the footer's distincts line is the fold
		// of what the spans recorded: TableInfo's per-column max.
		distincts := info(tbl).Distincts
		if distincts == nil {
			distincts = make([]int, ncols)
		}
		if err := sw.writeFooter(distincts); err != nil {
			return err
		}
		for si := range tbl.Segments {
			tbl.Segments[si].Size = sw.out.n
		}
		return nil
	})
	return sf, err
}

// openSpliceReader opens the header-walking reader over one input file
// of a compaction, of the size the manifest records (0: none), and loads
// the footer its zone maps are carried over from.
func openSpliceReader(name string, f *os.File, ncols int, size int64) (*segReader, error) {
	sr, err := newSegReader(name, f, ncols, size)
	if err != nil {
		return nil, err
	}
	if sr.foot, err = readFooter(f, sr.size); err != nil {
		return nil, fmt.Errorf("stats footer: %w", err)
	}
	return sr, nil
}

// spliceSpan relocates one span into the file sw is writing: it
// walks the span's block headers — nothing else of a block is read —
// to find the byte range the span occupies and to hold every header to
// the footer entry that is about to become its zone map, then hands
// that range and those entries to the writer. The span must start and
// end on block boundaries of the source. A source that fails a check is
// an error; there is no fallback to decoding it.
func spliceSpan(sw *segWriter, sr *segReader, seg *manSeg) error {
	if err := sr.skipTo(seg.RowOff); err != nil {
		return err
	}
	start, first := sr.pos, sr.blockIdx
	for left := seg.Rows; left > 0; {
		nrows, err := sr.blockHeader()
		if err != nil {
			return err
		}
		if nrows == 0 || nrows > left {
			return fmt.Errorf("block of %d rows overruns span (%d rows expected)", nrows, left)
		}
		if _, err := sr.foot.zonesOf(sr.blockIdx, nrows, sr.ncols); err != nil {
			return err
		}
		sr.skipBlock(nrows)
		left -= nrows
	}
	return sw.spliceBlocks(io.NewSectionReader(sr.f, start, sr.pos-start), sr.pos-start, sr.foot.blocks[first:sr.blockIdx], seg.Rows)
}
