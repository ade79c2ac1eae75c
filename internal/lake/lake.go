package lake

import (
	"bytes"
	"context"
	"io"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"datamaran/internal/core"
	"datamaran/internal/follow"
	"datamaran/internal/obsv"
	"datamaran/internal/template"
)

// DefaultSampleBytes is the per-file prefix examined to classify a file
// (profile matching, and template discovery for new formats).
const DefaultSampleBytes = 256 << 10

// DefaultMatchThreshold is the minimum fraction of a file's sample that
// a known profile must cover to claim the file.
const DefaultMatchThreshold = 0.5

// Config parameterizes an Index run.
type Config struct {
	// Core holds the discovery options applied to each file nothing claims.
	Core core.Options
	// Workers is the file-level fan-out of the match stage and of the
	// extract stage (<= 0 means GOMAXPROCS). Worker count never changes
	// any output.
	Workers int
	// SampleBytes caps the per-file prefix used for classification
	// (<= 0 means DefaultSampleBytes). Samples are trimmed to the last
	// complete line.
	SampleBytes int
	// MatchThreshold is the minimum sample coverage fraction for a
	// known profile to claim a file (<= 0 means DefaultMatchThreshold).
	MatchThreshold float64
	// Checkpoints holds the per-file resume state every crawl reads and
	// updates: files whose checkpoint still matches the registry and the
	// on-disk identity heuristics skip classification entirely and
	// resume extraction at the checkpointed offset (unchanged files skip
	// extraction altogether). Rotated, truncated or reclassified files
	// fall back to the full path. Nil means a fresh in-memory store, so
	// a crawl without one is the same crawl with nothing checkpointed
	// yet. The store is updated in place; persisting it is the caller's
	// concern.
	Checkpoints *follow.Store
	// Segments, when non-nil, records every structured file's extracted
	// rows into the columnar record store: full extractions rewrite the
	// file's segments, incremental resumes append, unchanged files are
	// untouched, and files that left the lake (or lost their structure)
	// are pruned. The transaction is staged — committing (or aborting)
	// it is the caller's concern, mirroring registry persistence.
	Segments *StoreTxn
	// Filter, when non-nil, restricts the crawl to the files it accepts
	// (slash-separated paths relative to root). Rejected files are not
	// classified, extracted or counted, and their checkpoints and
	// record-store segments are left exactly as they are — departed-file
	// pruning applies only to accepted paths. This is the scoped-crawl
	// hook of the serve daemon's per-format reindex.
	Filter func(rel string) bool
	// Metrics, when non-nil, receives the crawl's per-stage wall spans
	// (walk/classify/extract histograms; the stages overlap) and its
	// file/discovery/record/byte counters, labeled by status, discovery
	// outcome and format fingerprint — all bounded label sets. Nil
	// records nothing.
	Metrics *obsv.Registry
	// Logger, when non-nil, receives one structured log/slog event per
	// crawl with the stage timings and the run summary.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.SampleBytes <= 0 {
		c.SampleBytes = DefaultSampleBytes
	}
	if c.MatchThreshold <= 0 {
		c.MatchThreshold = DefaultMatchThreshold
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Checkpoints == nil {
		c.Checkpoints = follow.NewStore()
	}
	return c
}

// Status classifies how the indexer handled one file.
type Status int

const (
	// StatusDiscovered marks a file that went through full template
	// discovery because no registered profile claimed its sample.
	StatusDiscovered Status = iota
	// StatusMatched marks a file claimed by an already-registered
	// profile, extracted with no discovery.
	StatusMatched
	// StatusUnstructured marks a file in which discovery found no
	// record structure (or an empty file).
	StatusUnstructured
	// StatusFailed marks a file the indexer could not process.
	StatusFailed
)

// String names the status for human-readable summaries.
func (s Status) String() string {
	switch s {
	case StatusDiscovered:
		return "discovered"
	case StatusMatched:
		return "matched"
	case StatusUnstructured:
		return "unstructured"
	case StatusFailed:
		return "failed"
	}
	return "unknown"
}

// FileResult is the indexing outcome of one file.
type FileResult struct {
	// Path is the file's slash-separated path relative to the indexed
	// root.
	Path string
	// Size is the file size in bytes.
	Size int64
	// Fingerprint names the format that claimed the file ("" for
	// unstructured or failed files).
	Fingerprint string
	// Status reports how the file was handled.
	Status Status
	// Err is the failure for StatusFailed files.
	Err error
	// Inc describes how the file was extracted against its checkpoint:
	// set for every structured file and for unchanged-unstructured
	// skips, nil otherwise.
	Inc *IncInfo
}

// IncInfo is the checkpoint bookkeeping of one structured file.
type IncInfo struct {
	// Action says how the file was extracted (full, resumed,
	// unchanged).
	Action follow.Action
	// Reason explains a full extraction: "new", "rotated", "truncated",
	// "profile-gone" (checkpointed fingerprint no longer registered),
	// "store-new" (the record store lacks the file's rows, or does not
	// trust them: see StoreTxn.Covers).
	Reason string
	// Extracted counts the records this crawl extracted: the whole file
	// for a full extraction, the region past the checkpoint for a resumed
	// one, none for an unchanged one.
	Extracted int
	// TotalRecords and TotalNoise are whole-file counts (for unchanged
	// files, the checkpointed totals).
	TotalRecords, TotalNoise int
}

// Resume names the handling for reports: "resumed", "unchanged", or —
// for a full extraction — the reason it was one.
func (i *IncInfo) Resume() string {
	if i.Action == follow.ActionFull {
		return i.Reason
	}
	return i.Action.String()
}

// Summary aggregates one Index run.
type Summary struct {
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
	// CacheHits counts files claimed by a profile without discovery.
	CacheHits int
	// Resumed counts files whose extraction resumed at a checkpoint.
	Resumed int
	// Unchanged counts checkpointed files skipped entirely because
	// nothing changed.
	Unchanged int
}

// Result is a completed Index run.
type Result struct {
	// Files lists every crawled file in sorted path order.
	Files []FileResult
	// NewFormats holds the fingerprints first registered by this run —
	// the authoritative "discovered this run" set (a file can go
	// through discovery yet re-derive an already-known format).
	NewFormats map[string]bool
	// Summary aggregates the run.
	Summary Summary
}

// Index crawls the tree rooted at root, classifies every regular file
// against reg (discovering and registering new formats as needed), and
// extracts each structured file with its format's profile. reg is
// updated in place; persisting it is the caller's concern.
//
// Hidden files and directories (name starting with ".") are skipped.
// Samples are read and matched on the worker pool in any order, and a
// sample nothing claims is put through discovery there, ahead of its
// file's turn; but every claim is committed — a discovery's templates
// registered or thrown away, reg mutated — by one goroutine in sorted
// path order, so reg and all results are independent of cfg.Workers.
func Index(root string, reg *Registry, cfg Config) (*Result, error) {
	return IndexContext(context.Background(), root, reg, cfg)
}

// IndexContext is Index with cancellation: ctx is checked between files
// in the commit stage and between files (and between shards, in the
// per-file pipeline) in the extract stage, so the daemon can abort a
// long crawl within one shard of the cancel. It returns ctx.Err() only
// after every stage's goroutines have exited.
func IndexContext(ctx context.Context, root string, reg *Registry, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	var stats crawlStats
	walkStart := time.Now()
	paths, walkFails, err := crawl(root)
	if err != nil {
		return nil, err
	}
	stats.walk = time.Since(walkStart)

	// One list in sorted path order. A scoped crawl sees only the files
	// its filter accepts; everything else is invisible — untouched
	// checkpoints, untouched segments, absent from the result. Entries
	// the walk itself could not reach surface as failed files rather
	// than aborting the crawl.
	accepted := func(rel string) bool { return cfg.Filter == nil || cfg.Filter(rel) }
	files := make([]FileResult, 0, len(paths)+len(walkFails))
	for _, rel := range paths {
		if accepted(rel) {
			files = append(files, FileResult{Path: rel})
		}
	}
	for _, wf := range walkFails {
		if accepted(wf.rel) {
			files = append(files, FileResult{Path: wf.rel, Status: StatusFailed, Err: wf.err})
		}
	}
	sort.SliceStable(files, func(a, b int) bool { return files[a].Path < files[b].Path })

	// Match, commit and extract run as one pipeline (see classify.go):
	// file i starts extracting the moment its claim is final.
	ix := &indexer{
		root:    root,
		reg:     reg,
		cfg:     cfg,
		files:   files,
		entries: make([]*Entry, len(files)),
		resumes: make([]*follow.Checkpoint, len(files)),
		newFPs:  map[string]bool{},
	}
	if err := ix.run(ctx, &stats); err != nil {
		return nil, err
	}
	res := settle(reg, cfg, files, ix.entries, ix.newFPs)
	recordCrawl(cfg, res, stats)
	return res, nil
}

// settle closes a crawl whose every file has reached its final status:
// it releases the claims of files that failed extraction, prunes the
// checkpoints and record-store rows of files that left the lake, and
// builds the result.
func settle(reg *Registry, cfg Config, files []FileResult, entries []*Entry, newFPs map[string]bool) *Result {
	// A file that classified but failed extraction (rotated away,
	// truncated mid-read) holds no format claim: release it so the
	// registry and the result agree. Sequential, so no contention with
	// the just-finished pool.
	for i := range files {
		if files[i].Status == StatusFailed && entries[i] != nil {
			reg.Unclaim(entries[i])
			files[i].Fingerprint = ""
		}
	}

	// Checkpoints of files that left the lake are stale: prune them so
	// the store tracks the crawl (a failed file keeps its checkpoint —
	// it may be back next run). A scoped crawl prunes only within its
	// scope: paths its filter rejects were never examined, so their
	// checkpoints stay.
	crawled := make(map[string]bool, len(files))
	for i := range files {
		crawled[files[i].Path] = true
	}
	retained := func(p string) bool { return crawled[p] || cfg.Filter != nil && !cfg.Filter(p) }
	cfg.Checkpoints.Retain(retained)

	// The record store tracks the crawl the same way: files that lost
	// their structure lose their rows, departed files are pruned, and
	// failed files keep theirs (mirroring their kept checkpoints).
	if cfg.Segments != nil {
		for i := range files {
			if files[i].Status == StatusUnstructured {
				cfg.Segments.Drop(files[i].Path)
			}
		}
		cfg.Segments.Retain(retained)
	}

	res := &Result{Files: files, NewFormats: newFPs}
	res.Summary = summarize(files, reg, len(newFPs))
	return res
}

// crawlStats is what one crawl measured about itself. The stages
// overlap, so each duration is the stage's own wall span — its first
// start to its last end — and the three do not sum to the crawl.
type crawlStats struct {
	walk, classify, extract time.Duration
	// discoveries counts the template discoveries the crawl ran, by
	// outcome: a format first registered by this run, a re-derivation of
	// an already registered one, or no structure found.
	discoveries struct{ new, known, none int }
	// discoveryTimes holds how long each of discoveries ran, by outcome.
	discoveryTimes struct{ new, known, none []time.Duration }
	// speculations tracks the discoveries the match stage started ahead
	// of their file's turn, by what the commit stage made of them. used
	// counts those it used (each is also one of discoveries); discarded
	// holds those it threw away because a profile registered in the
	// meantime claimed the file — what the crawl wasted. Their times are
	// read once the crawl, and so every one of them, has finished. A
	// discovery the commit stage ran itself is in neither.
	speculations struct {
		used      int
		discarded []*speculation
	}
}

// recordCrawl folds one finished crawl into the metrics registry and
// the structured log. Stage spans land in one histogram family labeled
// by stage; file counts are labeled by terminal status, discoveries and
// their times by outcome (a discarded speculation's too), and
// record/byte counters by format fingerprint (a bounded set — the lake's
// known formats). Both sinks are optional and independent.
func recordCrawl(cfg Config, res *Result, st crawlStats) {
	d := st.discoveries
	if cfg.Metrics != nil {
		m := cfg.Metrics
		m.Histogram("datamaran_crawl_stage_seconds", obsv.DefBuckets, "stage", "walk").Observe(st.walk.Seconds())
		m.Histogram("datamaran_crawl_stage_seconds", obsv.DefBuckets, "stage", "classify").Observe(st.classify.Seconds())
		m.Histogram("datamaran_crawl_stage_seconds", obsv.DefBuckets, "stage", "extract").Observe(st.extract.Seconds())
		m.Counter("datamaran_crawl_discoveries_total", "outcome", "new").Add(uint64(d.new))
		m.Counter("datamaran_crawl_discoveries_total", "outcome", "known").Add(uint64(d.known))
		m.Counter("datamaran_crawl_discoveries_total", "outcome", "none").Add(uint64(d.none))
		m.Counter("datamaran_crawl_speculations_total", "outcome", "used").Add(uint64(st.speculations.used))
		m.Counter("datamaran_crawl_speculations_total", "outcome", "discarded").Add(uint64(len(st.speculations.discarded)))
		observe := func(outcome string, times []time.Duration) {
			h := m.Histogram("datamaran_crawl_discovery_seconds", obsv.DefBuckets, "outcome", outcome)
			for _, t := range times {
				h.Observe(t.Seconds())
			}
		}
		observe("new", st.discoveryTimes.new)
		observe("known", st.discoveryTimes.known)
		observe("none", st.discoveryTimes.none)
		discarded := make([]time.Duration, len(st.speculations.discarded))
		for i, spec := range st.speculations.discarded {
			discarded[i] = spec.elapsed
		}
		observe("discarded", discarded)
		for _, f := range res.Files {
			m.Counter("datamaran_crawl_files_total", "status", f.Status.String()).Inc()
			if f.Fingerprint == "" {
				continue
			}
			m.Counter("datamaran_crawl_bytes_total", "format", f.Fingerprint).Add(uint64(f.Size))
			if f.Inc != nil && f.Inc.Action != follow.ActionUnchanged {
				m.Counter("datamaran_crawl_records_total", "format", f.Fingerprint).Add(uint64(f.Inc.Extracted))
			}
		}
	}
	if cfg.Logger != nil {
		s := res.Summary
		cfg.Logger.Info("crawl",
			"files", s.Files,
			"structured", s.Structured,
			"unstructured", s.Unstructured,
			"failed", s.Failed,
			"formats", s.FormatsKnown,
			"discovered", s.FormatsDiscovered,
			"cacheHits", s.CacheHits,
			"resumed", s.Resumed,
			"unchanged", s.Unchanged,
			slog.Group("discoveries", "new", d.new, "known", d.known, "none", d.none),
			slog.Group("speculations", "used", st.speculations.used, "discarded", len(st.speculations.discarded)),
			"walk", st.walk.Round(time.Millisecond).String(),
			"classify", st.classify.Round(time.Millisecond).String(),
			"extract", st.extract.Round(time.Millisecond).String())
	}
}

// observeUnstructured checkpoints a file that classified unstructured,
// so the next crawl can skip re-discovering it when it has not changed.
// Observation failures are ignored: the worst case is a repeated
// discovery attempt next run.
func observeUnstructured(cfg Config, full, rel string) {
	if cp, err := follow.Observe(full, rel); err == nil {
		cfg.Checkpoints.Put(cp)
	}
}

// classifyFromCheckpoint tries to claim one file through its checkpoint.
// It returns done=true when the file is fully classified (resumed,
// unchanged, or failed planning); otherwise the file takes the normal
// sample path and reason explains why ("new", "rotated", "truncated",
// "profile-gone").
func classifyFromCheckpoint(full, rel string, reg *Registry, cfg Config, fr *FileResult, entry **Entry, resume **follow.Checkpoint) (done bool, reason string) {
	cp := cfg.Checkpoints.Get(rel)
	if cp == nil {
		return false, "new"
	}
	if cp.Fingerprint == "" {
		// Identity-only checkpoint of an unstructured file: unchanged
		// means the (already failed) discovery attempt can be skipped;
		// any change means reclassifying from scratch.
		plan, err := follow.PlanFile(full, cp)
		if err != nil {
			fr.Status = StatusFailed
			fr.Err = err
			return true, ""
		}
		if plan.Action == follow.ActionUnchanged {
			fr.Size = plan.Size
			fr.Status = StatusUnstructured
			fr.Inc = &IncInfo{Action: follow.ActionUnchanged}
			return true, ""
		}
		cfg.Checkpoints.Delete(rel)
		if reason = plan.Reason; reason == "" {
			reason = "grown"
		}
		return false, reason
	}
	e := reg.Lookup(cp.Fingerprint)
	if e == nil {
		// The registry no longer knows the format (edited or replaced):
		// the checkpoint's coordinates mean nothing now.
		cfg.Checkpoints.Delete(rel)
		return false, "profile-gone"
	}
	plan, err := follow.PlanFile(full, cp)
	if err != nil {
		fr.Status = StatusFailed
		fr.Err = err
		return true, ""
	}
	fr.Size = plan.Size
	// A checkpointed skip or resume is only sound when the record store
	// already holds the file's finalized rows; a store enabled after the
	// checkpoint was taken has none, so take the full path once to
	// populate it.
	if cfg.Segments != nil && plan.Action != follow.ActionFull &&
		!cfg.Segments.Covers(rel, e.Fingerprint, len(e.Templates)) {
		return false, "store-new"
	}
	switch plan.Action {
	case follow.ActionUnchanged:
		reg.Claim(e)
		fr.Status = StatusMatched
		fr.Fingerprint = e.Fingerprint
		fr.Inc = &IncInfo{Action: follow.ActionUnchanged, TotalRecords: cp.TotalRecords, TotalNoise: cp.TotalNoise}
		return true, ""
	case follow.ActionResume:
		reg.Claim(e)
		*entry = e
		*resume = cp
		fr.Status = StatusMatched
		fr.Fingerprint = e.Fingerprint
		fr.Inc = &IncInfo{Action: follow.ActionResume}
		return true, ""
	default:
		// Rotation/truncation: the checkpoint is invalid; reclassify
		// from scratch (the content may even be a different format now).
		cfg.Checkpoints.Delete(rel)
		return false, plan.Reason
	}
}

// walkFailure is a directory entry the crawl could not reach.
type walkFailure struct {
	rel string
	err error
}

// crawl lists the regular files under root as sorted slash-separated
// relative paths, skipping hidden files and directories. Unreachable
// entries are reported, not fatal — only a broken root aborts.
func crawl(root string) ([]string, []walkFailure, error) {
	var paths []string
	var fails []walkFailure
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if path == root {
				return err
			}
			rel, rerr := filepath.Rel(root, path)
			if rerr != nil {
				rel = path
			}
			fails = append(fails, walkFailure{rel: filepath.ToSlash(rel), err: err})
			if d != nil && d.IsDir() {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if strings.HasPrefix(name, ".") && path != root {
			if d.IsDir() {
				return filepath.SkipDir
			}
			return nil
		}
		if !d.Type().IsRegular() {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		paths = append(paths, filepath.ToSlash(rel))
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	sort.Strings(paths)
	return paths, fails, nil
}

// ReadSample reads up to limit bytes of the file, trimmed back to the
// last complete line when the file continues past the sample (a partial
// trailing line would distort both matching and discovery). A file
// whose first line alone exceeds the limit yields an empty sample — the
// file classifies as unstructured rather than a format being invented
// from a truncated line. The returned size is the file size observed by
// the same open handle that produced the sample.
func ReadSample(path string, limit int) ([]byte, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	size := int64(0)
	bufSize := limit + 1
	if info, err := f.Stat(); err == nil {
		size = info.Size()
		if size < int64(limit) {
			bufSize = int(size) + 1 // small file: skip the full-budget alloc
		}
	}
	buf := make([]byte, bufSize)
	n, err := io.ReadFull(f, buf)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, size, err
	}
	if n < len(buf) {
		return buf[:n], size, nil // whole file
	}
	sample := buf[:min(n, limit)]
	i := bytes.LastIndexByte(sample, '\n')
	return sample[:i+1], size, nil // i == -1: no complete line, empty sample
}

// discoverTemplates runs template discovery on the sample. It returns no
// templates when the sample has no discoverable structure, and ctx.Err()
// when the search was cancelled. A pure function of the sample and opts:
// it reads no registry and changes none.
func discoverTemplates(ctx context.Context, sample []byte, opts core.Options) ([]*template.Node, error) {
	structures, _, err := core.Discover(ctx, sample, opts)
	if err != nil {
		if err == core.ErrEmptyInput {
			return nil, nil
		}
		return nil, err
	}
	templates := make([]*template.Node, 0, len(structures))
	for _, s := range structures {
		templates = append(templates, s.Template)
	}
	return templates, nil
}

// extractOne streams one claimed file through the discovery-free
// pipeline with its format's compiled templates, by way of the follow
// layer: it resumes at the file's checkpoint (when one survived
// planning, else it extracts from byte 0) and records the successor
// checkpoint. With a record store, each batch of the file's records is
// written into the file's staged segments as it is decided (see
// pathWriter), and the segments are installed once the extraction has
// ended; the crawl keeps only the counts.
func extractOne(ctx context.Context, root string, fr *FileResult, e *Entry, resume *follow.Checkpoint, cfg Config) {
	fail := func(err error) {
		fr.Status = StatusFailed
		fr.Err = err
	}
	full := filepath.Join(root, filepath.FromSlash(fr.Path))
	fcfg := follow.Config{Workers: 1}
	var w *pathWriter
	if cfg.Segments != nil {
		var err error
		if w, err = cfg.Segments.writePath(fr.Path, e.Fingerprint, e.Templates, resume != nil); err != nil {
			fail(err)
			return
		}
		fcfg.OnBatch = w.add
	}
	n, ncp, err := follow.Extract(ctx, full, fr.Path, e.Matchers(), e.Fingerprint, resume, fcfg)
	if w != nil {
		if err == nil {
			err = w.commit(n.Provisional)
		} else {
			w.abort()
		}
	}
	if err != nil {
		fail(err)
		return
	}
	cfg.Checkpoints.Put(ncp)
	// The records and noise lines finalized before the extracted region.
	var baseRecords, baseNoise int
	if resume != nil {
		baseRecords, baseNoise = resume.Records, resume.Noise
	}
	fr.Inc.Extracted = n.Total()
	fr.Inc.TotalRecords = baseRecords + n.Total()
	fr.Inc.TotalNoise = baseNoise + n.Noise
}

// summarize aggregates the per-file outcomes.
func summarize(files []FileResult, reg *Registry, discovered int) Summary {
	s := Summary{Files: len(files), FormatsKnown: reg.Len(), FormatsDiscovered: discovered}
	for _, f := range files {
		switch f.Status {
		case StatusDiscovered:
			s.Structured++
		case StatusMatched:
			s.Structured++
			s.CacheHits++
		case StatusUnstructured:
			s.Unstructured++
		case StatusFailed:
			s.Failed++
		}
		if f.Inc != nil && f.Status != StatusFailed {
			switch f.Inc.Action {
			case follow.ActionResume:
				s.Resumed++
			case follow.ActionUnchanged:
				s.Unchanged++
			}
		}
	}
	return s
}
