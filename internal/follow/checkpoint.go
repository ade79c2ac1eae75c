// Package follow implements checkpointed incremental extraction — the
// ingestion half of a continuously-growing data lake. A file whose
// format is already known (a registered profile fingerprint) is
// extracted once, and a per-file checkpoint records how far extraction
// is final: a line-aligned byte offset below which every record and
// noise decision can never change, plus file-identity heuristics (size
// and a prefix hash) that detect rotation and truncation. Re-indexing a
// grown file then resumes extraction at the checkpoint instead of byte
// 0; a rotated or truncated file falls back to full re-extraction.
//
// Checkpoints live next to the lake profile registry and follow the
// same persistence discipline: versioned JSON, deterministic bytes
// (files sorted by path, no timestamps), atomic save via temp file +
// rename.
package follow

import (
	"encoding/json"
	"fmt"
	"maps"
	"sort"
	"sync"

	"datamaran/internal/atomicfile"
)

// storeVersion is the on-disk checkpoint format version this package
// reads and writes.
const storeVersion = 1

// Checkpoint is the resume state of one lake file. All coordinates are
// whole-file: Offset/Line locate the stable boundary (everything below
// is final), Records/Noise count the finalized region, and
// TotalRecords/TotalNoise count the whole file as of the last run.
// Treat a Checkpoint held by a Store as immutable; replace it with Put.
type Checkpoint struct {
	// Path is the file's slash-separated path relative to the lake
	// root — the store key.
	Path string `json:"path"`
	// Fingerprint names the profile the file was extracted with. A
	// claim change (reclassification, registry edit) invalidates the
	// checkpoint.
	Fingerprint string `json:"fingerprint"`
	// Offset is the stable resume byte offset. It falls on a line
	// start, and no record of any record type crosses it.
	Offset int64 `json:"offset"`
	// Line is the line index at Offset.
	Line int `json:"line"`
	// Size is the file size when the checkpoint was taken. A smaller
	// current size means truncation; an equal size (with matching
	// prefix) means nothing changed.
	Size int64 `json:"size"`
	// PrefixLen and PrefixSHA fingerprint the file's identity: the
	// SHA-256 of its first PrefixLen bytes. A mismatch means the path
	// was rotated to different content.
	PrefixLen int64  `json:"prefix_len"`
	PrefixSHA string `json:"prefix_sha256"`
	// Records and Noise count records and noise lines finalized in
	// [0, Offset) — the region a resumed run does not re-emit.
	Records int `json:"records"`
	Noise   int `json:"noise"`
	// TotalRecords and TotalNoise count the whole file at the last
	// run, so an unchanged file can be reported without re-extraction.
	TotalRecords int `json:"total_records"`
	TotalNoise   int `json:"total_noise"`
}

// Store holds the checkpoints of one lake, keyed by relative path. The
// zero value is not usable; call NewStore or LoadStore. A Store is safe
// for concurrent use — the extraction phase of a crawl checkpoints
// files from a worker pool while the serve daemon reads.
type Store struct {
	mu     sync.RWMutex
	byPath map[string]*Checkpoint
}

// NewStore returns an empty checkpoint store.
func NewStore() *Store {
	return &Store{byPath: map[string]*Checkpoint{}}
}

// Get returns the checkpoint for the given relative path, or nil.
func (s *Store) Get(path string) *Checkpoint {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.byPath[path]
}

// Put inserts or replaces the checkpoint for cp.Path.
func (s *Store) Put(cp *Checkpoint) {
	s.mu.Lock()
	s.byPath[cp.Path] = cp
	s.mu.Unlock()
}

// Delete removes the checkpoint for the given path, if any.
func (s *Store) Delete(path string) {
	s.mu.Lock()
	delete(s.byPath, path)
	s.mu.Unlock()
}

// Len reports the number of checkpointed files.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.byPath)
}

// Paths lists the checkpointed paths in sorted order.
func (s *Store) Paths() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.byPath))
	for p := range s.byPath {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Retain drops every checkpoint whose path keep rejects — the
// post-crawl prune of files that no longer exist in the lake.
func (s *Store) Retain(keep func(path string) bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for p := range s.byPath {
		if !keep(p) {
			delete(s.byPath, p)
		}
	}
}

// Clone returns an independent store holding the same checkpoints — what
// a crawl works on while readers keep the original. The checkpoints
// themselves are shared: they are immutable once stored.
func (s *Store) Clone() *Store {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return &Store{byPath: maps.Clone(s.byPath)}
}

// storeJSON is the serialized store.
type storeJSON struct {
	Version int           `json:"version"`
	Files   []*Checkpoint `json:"files"`
}

// MarshalJSON serializes the store deterministically: checkpoints in
// sorted path order, no timestamps or host state.
func (s *Store) MarshalJSON() ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sj := storeJSON{Version: storeVersion, Files: []*Checkpoint{}}
	paths := make([]string, 0, len(s.byPath))
	for p := range s.byPath {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		sj.Files = append(sj.Files, s.byPath[p])
	}
	return json.Marshal(sj)
}

// UnmarshalJSON parses a store serialized by MarshalJSON, and accepts
// only what a crawl can write: a known version, distinct non-empty
// paths, and checkpoints whose geometry and counts Extract or Observe
// could have produced (see valid).
func (s *Store) UnmarshalJSON(data []byte) error {
	var sj storeJSON
	if err := atomicfile.DecodeVersioned(data, storeVersion, "follow", "checkpoint store", &sj); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.byPath = map[string]*Checkpoint{}
	for _, cp := range sj.Files {
		if cp == nil || cp.Path == "" {
			return fmt.Errorf("follow: checkpoint with empty path")
		}
		if _, ok := s.byPath[cp.Path]; ok {
			return fmt.Errorf("follow: duplicate checkpoint path %q", cp.Path)
		}
		if !cp.valid() {
			return fmt.Errorf("follow: checkpoint %q is inconsistent (offset=%d line=%d size=%d prefix_len=%d records=%d/%d noise=%d/%d)",
				cp.Path, cp.Offset, cp.Line, cp.Size, cp.PrefixLen, cp.Records, cp.TotalRecords, cp.Noise, cp.TotalNoise)
		}
		s.byPath[cp.Path] = cp
	}
	return nil
}

// valid reports whether cp holds what Extract and Observe guarantee:
// 0 ≤ Line ≤ Offset ≤ Size (a line holds at least its newline),
// 0 ≤ PrefixLen ≤ Size, and counts of at least 0 whose finalized part
// is at most the whole file's.
func (cp *Checkpoint) valid() bool {
	return 0 <= cp.Line && int64(cp.Line) <= cp.Offset && cp.Offset <= cp.Size &&
		0 <= cp.PrefixLen && cp.PrefixLen <= cp.Size &&
		0 <= cp.Records && cp.Records <= cp.TotalRecords &&
		0 <= cp.Noise && cp.Noise <= cp.TotalNoise
}

// LoadStore reads a checkpoint file. A missing file yields an empty
// store, so first runs need no setup.
func LoadStore(path string) (*Store, error) {
	s := NewStore()
	if err := atomicfile.LoadJSON(path, s.UnmarshalJSON); err != nil {
		return nil, err
	}
	return s, nil
}

// Save writes the store atomically (see atomicfile), indented for human
// inspection — the same discipline as the lake registry it lives next
// to.
func (s *Store) Save(path string) error {
	return atomicfile.SaveJSON(path, s)
}
