package datamaran

import (
	"context"

	"datamaran/internal/lake"
)

// IndexOptions configures IndexDir, the data-lake crawl.
type IndexOptions struct {
	// Extract holds the per-file discovery/extraction options.
	Extract Options
	// RegistryPath names the persistent profile registry (JSON). When
	// set, known formats are loaded before the crawl and the updated
	// registry is written back after it, so structure discovered by one
	// run is reused by every later run. Empty means a fresh in-memory
	// registry.
	RegistryPath string
	// Workers is the number of files extracted concurrently (0 means
	// GOMAXPROCS). The output is byte-identical for any worker count.
	Workers int
	// SampleBytes caps the per-file prefix used to classify a file
	// against known profiles and to discover new formats (0 means
	// 256 KiB).
	SampleBytes int
	// MatchThreshold is the minimum fraction of a file's sample a known
	// profile must cover to claim the file (0 means 0.5).
	MatchThreshold float64
	// CheckpointPath names the persistent per-file checkpoint store
	// (JSON). Every crawl is incremental: files already indexed under a
	// still-valid checkpoint skip classification and resume extraction
	// at the checkpointed offset (unchanged files skip extraction
	// entirely); rotated or truncated files fall back to a full
	// re-extraction. The store is loaded before the crawl and written
	// back after, like the registry it lives next to. Empty means the
	// crawl starts from an empty in-memory store, so every file is new.
	CheckpointPath string
	// StorePath names the record-store directory where the crawl writes
	// per-format columnar segments — the tables Query reads. Segments
	// are staged during the crawl and committed only when it completes;
	// an incremental crawl extends a grown file's segments in place.
	// Empty disables the store: the crawl still classifies, extracts and
	// checkpoints every file, but reports counts only.
	StorePath string
}

// IndexedFile is the indexing outcome of one crawled file.
type IndexedFile struct {
	// Path is the slash-separated path relative to the indexed root.
	Path string
	// Size is the file size in bytes.
	Size int64
	// Fingerprint identifies the format that claimed the file ("" when
	// the file is unstructured or failed).
	Fingerprint string
	// Discovered reports that this file went through full template
	// discovery — usually the first file of a new format, though
	// discovery can also re-derive an already-known format when the
	// file's sample missed the match threshold.
	Discovered bool
	// Unstructured reports that no record structure was found.
	Unstructured bool
	// Err is the per-file failure, nil otherwise. Indexing continues
	// past failed files.
	Err error
	// Resume reports how the file was handled against its checkpoint:
	// "resumed", "unchanged" (also an unstructured file skipped because
	// it did not change), or — for a claimed file that took the full
	// path — the reason ("new", "rotated", "truncated", "profile-gone",
	// "grown"). Without CheckpointPath every crawl starts from no
	// checkpoints, so every structured file is "new". It is "" for a
	// file that classified unstructured or failed before a format
	// claimed it.
	Resume string
	// TotalRecords and TotalNoise are whole-file counts, valid for every
	// structured file, resumed and unchanged ones included. The crawl
	// keeps no records: ExtractReaderWithProfile with the format's
	// profile returns them, as many as these counts say, and with a
	// StorePath, Query reads them from the store.
	TotalRecords, TotalNoise int
}

// IndexedFormat is one format known to the registry after an IndexDir
// run.
type IndexedFormat struct {
	// Fingerprint is the format's stable identifier (see
	// Profile.Fingerprint).
	Fingerprint string
	// Templates lists the structure templates in the paper's notation.
	Templates []string
	// Files counts the files this format has claimed over the
	// registry's lifetime (across runs when the registry persists).
	Files int
	// Discovered reports that the format was first registered by this
	// run.
	Discovered bool

	profile *Profile
}

// Profile returns the format's profile, usable with the
// ExtractWithProfile family.
func (f *IndexedFormat) Profile() *Profile { return f.profile }

// IndexSummary aggregates an IndexDir run.
type IndexSummary struct {
	// Files is the number of regular files crawled.
	Files int
	// Structured counts files extracted under some format.
	Structured int
	// Unstructured counts files with no discoverable structure.
	Unstructured int
	// Failed counts files that errored.
	Failed int
	// FormatsKnown is the registry size after the run.
	FormatsKnown int
	// FormatsDiscovered counts formats first registered by this run.
	FormatsDiscovered int
	// CacheHits counts files claimed by an already-known profile —
	// files that skipped discovery entirely.
	CacheHits int
	// Resumed counts files whose extraction resumed at a checkpoint
	// (never without CheckpointPath).
	Resumed int
	// Unchanged counts checkpointed files skipped entirely because
	// nothing changed (never without CheckpointPath).
	Unchanged int
}

// IndexResult is a completed IndexDir crawl.
type IndexResult struct {
	// Files lists every crawled file in sorted path order.
	Files []IndexedFile
	// Formats lists the registry's formats in first-registered order.
	Formats []IndexedFormat
	// Summary aggregates the run.
	Summary IndexSummary
}

// IndexDir crawls a directory tree of heterogeneous log files — the
// paper's data-lake scenario. Structure is discovered once per format,
// on a bounded sample of the first file exhibiting it; every other file
// of that format is claimed by the registered profile and runs the
// discovery-free one-pass extraction. Files are sampled, matched and
// extracted concurrently (IndexOptions.Workers), but every claim is
// committed in sorted path order by the one goroutine that may change
// the registry, so the registry and every result are independent of the
// worker count.
//
// Hidden files and directories (name starting with ".") are skipped.
func IndexDir(dir string, opts IndexOptions) (*IndexResult, error) {
	return IndexDirContext(context.Background(), dir, opts)
}

// IndexDirContext is IndexDir with cancellation: ctx aborts the crawl
// between files and, within a file, between shards. The crawl is one
// lake.State transaction: on cancellation or failure nothing is written
// back — registry, checkpoints and record store stay as the last
// completed run left them.
func IndexDirContext(ctx context.Context, dir string, opts IndexOptions) (*IndexResult, error) {
	st, err := lake.OpenState(opts.RegistryPath, opts.CheckpointPath, opts.StorePath)
	if err != nil {
		return nil, err
	}
	res, err := st.Crawl(ctx, dir, lake.Config{
		Core:           opts.Extract.config(nil).Core,
		Workers:        opts.Workers,
		SampleBytes:    opts.SampleBytes,
		MatchThreshold: opts.MatchThreshold,
	}, "")
	if err != nil {
		return nil, err
	}
	return wrapIndexResult(res, st.Snapshot().Registry), nil
}

// wrapIndexResult converts the internal crawl result to the public form.
func wrapIndexResult(res *lake.Result, reg *lake.Registry) *IndexResult {
	out := &IndexResult{Summary: IndexSummary(res.Summary)}
	for _, f := range res.Files {
		pf := IndexedFile{
			Path:         f.Path,
			Size:         f.Size,
			Fingerprint:  f.Fingerprint,
			Discovered:   f.Status == lake.StatusDiscovered,
			Unstructured: f.Status == lake.StatusUnstructured,
			Err:          f.Err,
		}
		if f.Inc != nil {
			pf.Resume = f.Inc.Resume()
			pf.TotalRecords = f.Inc.TotalRecords
			pf.TotalNoise = f.Inc.TotalNoise
		}
		out.Files = append(out.Files, pf)
	}
	for _, e := range reg.Entries() {
		// A registry entry is immutable and compiled once: its profile
		// shares its templates and its matchers.
		p := &Profile{templates: e.Templates, matchers: e.Matchers()}
		out.Formats = append(out.Formats, IndexedFormat{
			Fingerprint: e.Fingerprint,
			Templates:   p.Templates(),
			Files:       e.Files,
			Discovered:  res.NewFormats[e.Fingerprint],
			profile:     p,
		})
	}
	return out
}
