// Package serve exposes a data lake's profile registry and extraction
// engine over HTTP — the query half of the incremental ingestion
// subsystem (internal/follow provides the write half). A Server serves
// a lake directory from a lake.State, which owns the registry, the
// checkpoints and the record store: request handlers stream extraction
// output (NDJSON or CSV) against the immutable snapshot they started on,
// while POST /v1/reindex runs the state's crawl transaction, which works
// on clones and atomically swaps a new snapshot in — so discovery keeps
// amortizing across requests the way the paper's learn-once,
// apply-many workflow intends, and a crawl never blocks (or tears) a
// concurrent read.
//
// Endpoints:
//
//	GET  /healthz                    liveness probe
//	GET  /v1/status                  serving stats (generation, in-flight, shed)
//	GET  /v1/formats                 registry listing (JSON)
//	GET  /v1/formats/{fp}            one profile (JSON, loadable by the CLI's -profile)
//	POST /v1/extract?format={fp}     extract the request body with a profile
//	GET  /v1/lake/extract?path=...   extract a lake file (format inferred)
//	POST /v1/reindex[?format={fp}]   run the incremental crawl (optionally scoped
//	                                 to one format), persist, report
//	GET  /v1/query?q=...             run a relational query over the record store
//
// Every failure body is the JSON envelope {"error": {"code", "message"}}.
//
// Concurrency model. The served state (registry + checkpoints) is
// lake.State's copy-on-write snapshot: handlers take it once per request
// and the snapshot is immutable, so an in-flight request finishes
// against the exact state it started on no matter how many reindexes
// land meanwhile. Reindexes lock per format — POST /v1/reindex?format=fp
// crawls only fp's files and runs concurrently with scoped reindexes
// of other formats (and with all reads); only crawls of the same
// format, or a global crawl, conflict (409). A format is compiled once,
// when it is registered (lake.Entry.Matchers), and every snapshot shares
// that compiled set, so /extract never touches the template compiler.
// Per-request limits (body cap, deadline, bounded in-flight gauge with
// 429 + Retry-After) keep overload failures crisp.
//
// Extraction and query responses are deterministic: worker counts never
// change output, so served bytes are byte-identical to the CLI's for
// the same input and profile.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path"
	"path/filepath"
	"strings"
	"time"

	"datamaran/internal/core"
	"datamaran/internal/lake"
	"datamaran/internal/obsv"
	"datamaran/internal/pipeline"
	"datamaran/internal/query"
	"datamaran/internal/relational"
)

// Config parameterizes a Server.
type Config struct {
	// Root is the lake directory served and crawled.
	Root string
	// RegistryPath is the persistent profile registry. Empty keeps the
	// registry in memory only (lost on restart).
	RegistryPath string
	// CheckpointPath is the persistent checkpoint store of the
	// incremental crawl. Empty keeps checkpoints in memory only.
	CheckpointPath string
	// Workers is the extraction parallelism for requests and crawls
	// (0 means all cores). Worker count never changes any output.
	Workers int
	// Core holds the discovery options used when /reindex meets a new
	// format.
	Core core.Options
	// StorePath is the record-store directory: the per-format columnar
	// segments /reindex writes and /v1/query reads. Empty disables the
	// store (and with it /v1/query).
	StorePath string
	// MaxBodyBytes caps a request body; a longer POST /extract body
	// fails with 413. 0 means unlimited.
	MaxBodyBytes int64
	// RequestTimeout bounds each request end to end (handler compute,
	// body reads, response writes); an overrun fails with 504. 0 means
	// unlimited. /healthz and /v1/status are exempt.
	RequestTimeout time.Duration
	// MaxInFlight bounds concurrently served requests; excess load is
	// shed with 429 + Retry-After instead of queueing. 0 means
	// unlimited. /healthz and /v1/status are exempt, so a saturated
	// daemon stays observable.
	MaxInFlight int
	// Metrics is the observability registry backing GET /metrics; the
	// crawl and query paths record into it too. Nil gets the server a
	// fresh private registry (metrics still served, just not shared).
	Metrics *obsv.Registry
	// Logger receives structured access-log and crawl events via
	// log/slog. Nil disables logging (metrics still record).
	Logger *slog.Logger
}

// Server is the long-running daemon state: the lake's state, the
// per-format crawl locks and the request limiter.
type Server struct {
	cfg Config
	// st owns the registry, the checkpoints and the record store.
	// Handlers take its snapshot once per request; a reindex is its crawl
	// transaction, so an aborted /reindex (client disconnect mid-crawl)
	// can never leave the served state partially mutated.
	st *lake.State
	// locks coordinates crawls per format (see formatLocks).
	locks formatLocks
	// limits enforces the per-request bounds around every handler.
	limits *limiter
	// obs is the metrics registry plus the serving-path handles; logger
	// is the structured event sink (nil disables logging); started
	// anchors /v1/status uptime.
	obs     *serveMetrics
	logger  *slog.Logger
	started time.Time
}

// New loads the registry and checkpoint store and returns a Server.
func New(cfg Config) (*Server, error) {
	info, err := os.Stat(cfg.Root)
	if err != nil {
		return nil, err
	}
	if !info.IsDir() {
		return nil, fmt.Errorf("serve: root %s is not a directory", cfg.Root)
	}
	st, err := lake.OpenState(cfg.RegistryPath, cfg.CheckpointPath, cfg.StorePath)
	if err != nil {
		return nil, err
	}
	obs := newServeMetrics(cfg.Metrics)
	return &Server{
		cfg: cfg,
		st:  st,
		limits: &limiter{
			maxInFlight: int64(cfg.MaxInFlight),
			maxBody:     cfg.MaxBodyBytes,
			timeout:     cfg.RequestTimeout,
			shedCtr:     obs.shed,
		},
		obs:     obs,
		logger:  cfg.Logger,
		started: time.Now(),
	}, nil
}

// Handler returns the daemon's HTTP handler: every endpoint wrapped
// with the metrics/access-log middleware (route-labeled, bounded
// cardinality), then the per-request limits around the whole mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.instrument("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	}))
	mux.HandleFunc("GET /v1/status", s.instrument("/v1/status", s.handleStatus))
	mux.HandleFunc("GET /metrics", s.instrument("/metrics", s.handleMetrics))
	mux.HandleFunc("GET /v1/formats", s.instrument("/v1/formats", s.handleFormats))
	mux.HandleFunc("GET /v1/formats/{fp}", s.instrument("/v1/formats/{fp}", s.handleFormat))
	mux.HandleFunc("POST /v1/extract", s.instrument("/v1/extract", s.handleExtractBody))
	mux.HandleFunc("GET /v1/lake/extract", s.instrument("/v1/lake/extract", s.handleExtractLake))
	mux.HandleFunc("POST /v1/reindex", s.instrument("/v1/reindex", s.handleReindex))
	mux.HandleFunc("GET /v1/query", s.instrument("/v1/query", s.handleQuery))
	return s.limits.wrap(mux)
}

// statusJSON is the /v1/status body: the serving-path gauges an
// operator (or the load bench) reads to see the daemon's health.
type statusJSON struct {
	Generation     uint64 `json:"generation"`
	Formats        int    `json:"formats"`
	InFlight       int64  `json:"inFlight"`
	MaxInFlight    int    `json:"maxInFlight"`
	Shed           uint64 `json:"shed"`
	ActiveReindex  int    `json:"activeReindexes"`
	MaxBodyBytes   int64  `json:"maxBodyBytes"`
	RequestTimeout string `json:"requestTimeout"`
	// StartedAt/UptimeSeconds date the process; Version and Revision
	// come from the binary's embedded build info (absent when the
	// build carries none, e.g. test binaries). Reindexes counts
	// completed crawls since start, from the metrics registry.
	StartedAt     string  `json:"startedAt"`
	UptimeSeconds float64 `json:"uptimeSeconds"`
	Version       string  `json:"version,omitempty"`
	Revision      string  `json:"revision,omitempty"`
	Reindexes     uint64  `json:"reindexes"`
	// Tables lists the record store's tables with their manifest-held
	// sizes (absent without a store). The counts come straight from the
	// manifest — reporting them never scans a segment.
	Tables []statusTable `json:"tables,omitempty"`
}

// statusTable is one record-store table in /v1/status.
type statusTable struct {
	Name     string `json:"name"`
	Columns  int    `json:"columns"`
	Rows     int    `json:"rows"`
	Segments int    `json:"segments"`
}

// handleStatus reports the serving gauges. Exempt from the in-flight
// bound, so it answers even under saturation.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	snap := s.st.Snapshot()
	var tables []statusTable
	if store := s.st.Store(); store != nil {
		for _, ti := range store.Tables() {
			tables = append(tables, statusTable{Name: ti.Name, Columns: len(ti.Columns), Rows: ti.Rows, Segments: ti.Segments})
		}
	}
	version, revision := buildInfo()
	writeJSON(w, http.StatusOK, statusJSON{
		Generation:     snap.Generation,
		Formats:        snap.Registry.Len(),
		InFlight:       s.limits.inFlight.Load(),
		MaxInFlight:    s.cfg.MaxInFlight,
		Shed:           s.limits.shed.Load(),
		ActiveReindex:  s.locks.active(),
		MaxBodyBytes:   s.cfg.MaxBodyBytes,
		RequestTimeout: s.cfg.RequestTimeout.String(),
		StartedAt:      s.started.UTC().Format(time.RFC3339),
		UptimeSeconds:  time.Since(s.started).Seconds(),
		Version:        version,
		Revision:       revision,
		Reindexes:      s.obs.reindexes.Value(),
		Tables:         tables,
	})
}

// handleQuery runs one relational query over the record store and
// streams the result — NDJSON (schema line, then one object per row) or
// CSV, the same writers the CLI uses, so served bytes match the CLI's
// for the same store and query.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	store := s.st.Store()
	if store == nil {
		httpError(w, http.StatusNotFound, "no record store configured (restart serve with a store path)")
		return
	}
	text := r.URL.Query().Get("q")
	if text == "" {
		httpError(w, http.StatusBadRequest, "missing q parameter")
		return
	}
	output := r.URL.Query().Get("output")
	if output == "" {
		output = "ndjson"
	}
	if output != "ndjson" && output != "csv" {
		httpError(w, http.StatusBadRequest, "unknown output %q (want ndjson or csv)", output)
		return
	}
	explain, err := query.ParseExplainMode(r.URL.Query().Get("explain"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	q, err := query.Parse(text)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Plan against a pinned store view so a multi-table query sees one
	// consistent store state across concurrent reindex commits. Run
	// opens every scan before returning; a commit deleting a superseded
	// segment inside that window surfaces as ErrStaleView — nothing has
	// streamed yet, so re-pin and re-plan.
	var rows *query.Rows
	for attempt := 0; ; attempt++ {
		rows, err = query.RunWith(r.Context(), query.ViewCatalog(store.View()), q, query.Options{Explain: explain})
		if err == nil || !errors.Is(err, lake.ErrStaleView) || attempt >= 8 {
			break
		}
	}
	if err != nil {
		// Planning failures (unknown tables, unresolved columns) are
		// client errors; nothing has streamed yet.
		httpError(w, queryStatus(r.Context(), err), "%v", err)
		return
	}
	defer rows.Close()
	// Fold the scan counters into /metrics once the stream finishes
	// (explain-analyze drained inside RunWith, so its stats are already
	// on the Rows; plan-only explains report zero scan work).
	defer func() { s.obs.recordQuery(rows.Stats()) }()
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	if output == "csv" {
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		err = query.WriteCSV(w, rows, flush)
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
		err = query.WriteNDJSON(w, rows, flush)
	}
	if err != nil {
		// Headers are gone once results streamed; a mid-stream failure
		// (or client cancellation) can only cut the connection.
		panic(http.ErrAbortHandler)
	}
}

// queryStatus maps query execution errors onto HTTP statuses.
func queryStatus(ctx context.Context, err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, os.ErrDeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return canceledStatus(ctx)
	case errors.Is(err, lake.ErrStaleView):
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

// formatJSON is one /formats entry.
type formatJSON struct {
	Fingerprint string   `json:"fingerprint"`
	Files       int      `json:"files"`
	Templates   []string `json:"templates"`
}

// handleFormats lists the registry: fingerprints in first-registered
// order with claim counts and templates in the paper's notation. The
// output is deterministic (no timestamps, stable order), so it diffs
// cleanly against goldens.
func (s *Server) handleFormats(w http.ResponseWriter, r *http.Request) {
	out := struct {
		Formats []formatJSON `json:"formats"`
	}{Formats: []formatJSON{}}
	for _, fi := range s.st.Snapshot().Registry.Snapshot() {
		fj := formatJSON{Fingerprint: fi.Fingerprint, Files: fi.Files, Templates: []string{}}
		for _, t := range fi.Templates {
			fj.Templates = append(fj.Templates, t.String())
		}
		out.Formats = append(out.Formats, fj)
	}
	writeJSON(w, http.StatusOK, out)
}

// handleFormat serves one profile by fingerprint, in the form
// `datamaran -save-profile` writes, so a fetched profile feeds straight
// into `datamaran -profile`.
func (s *Server) handleFormat(w http.ResponseWriter, r *http.Request) {
	e := s.st.Snapshot().Registry.Lookup(r.PathValue("fp"))
	if e == nil {
		httpError(w, http.StatusNotFound, "unknown format %s", r.PathValue("fp"))
		return
	}
	writeJSON(w, http.StatusOK, lake.NewProfileDoc(e.Templates))
}

// handleExtractBody extracts the request body with the named profile.
func (s *Server) handleExtractBody(w http.ResponseWriter, r *http.Request) {
	fp := r.URL.Query().Get("format")
	if fp == "" {
		httpError(w, http.StatusBadRequest, "missing format parameter")
		return
	}
	snap := s.st.Snapshot()
	e := snap.Registry.Lookup(fp)
	if e == nil {
		httpError(w, http.StatusNotFound, "unknown format %s", fp)
		return
	}
	s.extract(w, r, e, r.Body)
}

// handleExtractLake extracts one lake file. The format comes from (in
// order) the explicit format parameter, the file's checkpoint, or
// sample classification against the registry.
func (s *Server) handleExtractLake(w http.ResponseWriter, r *http.Request) {
	rel, ok := cleanLakePath(r.URL.Query().Get("path"))
	if !ok {
		httpError(w, http.StatusBadRequest, "bad path parameter")
		return
	}
	full := filepath.Join(s.cfg.Root, filepath.FromSlash(rel))
	f, err := os.Open(full)
	if err != nil {
		if os.IsNotExist(err) {
			httpError(w, http.StatusNotFound, "no such lake file %s", rel)
		} else {
			httpError(w, http.StatusInternalServerError, "open %s: %v", rel, err)
		}
		return
	}
	defer f.Close()

	// One snapshot for the whole request: the registry lookup and the
	// checkpoint lookup can never mix two reindex generations.
	snap := s.st.Snapshot()
	var e *lake.Entry
	if fp := r.URL.Query().Get("format"); fp != "" {
		if e = snap.Registry.Lookup(fp); e == nil {
			httpError(w, http.StatusNotFound, "unknown format %s", fp)
			return
		}
	} else if cp := snap.Checkpoints.Get(rel); cp != nil && cp.Fingerprint != "" {
		e = snap.Registry.Lookup(cp.Fingerprint)
	}
	if e == nil {
		sample, _, err := lake.ReadSample(full, lake.DefaultSampleBytes)
		if err != nil {
			httpError(w, http.StatusInternalServerError, "sample %s: %v", rel, err)
			return
		}
		if e = lake.MatchSample(sample, snap.Registry, lake.DefaultMatchThreshold); e == nil {
			httpError(w, http.StatusUnprocessableEntity,
				"no registered format claims %s (reindex first, or pass format=)", rel)
			return
		}
	}
	s.extract(w, r, e, f)
}

// extract streams src through the profile pipeline in the requested
// output form, with the format's compiled matchers. NDJSON streams record
// by record; CSV buffers the result to build relational tables.
func (s *Server) extract(w http.ResponseWriter, r *http.Request, e *lake.Entry, src io.Reader) {
	output := r.URL.Query().Get("output")
	if output == "" {
		output = "ndjson"
	}
	cfg := pipeline.Config{Matchers: e.Matchers(), Workers: s.cfg.Workers}
	switch output {
	case "ndjson":
		s.extractNDJSON(w, r, cfg, src)
	case "csv":
		s.extractCSV(w, r, cfg, src)
	default:
		httpError(w, http.StatusBadRequest, "unknown output %q (want ndjson or csv)", output)
	}
}

// recordJSON is the NDJSON wire form of one record.
type recordJSON struct {
	Type      int         `json:"type"`
	StartLine int         `json:"startLine"`
	EndLine   int         `json:"endLine"`
	Fields    []fieldJSON `json:"fields"`
}

// fieldJSON is one field value with whole-file coordinates.
type fieldJSON struct {
	Col   int    `json:"col"`
	Rep   int    `json:"rep"`
	Start int    `json:"start"`
	End   int    `json:"end"`
	Value string `json:"value"`
}

// extractNDJSON streams one JSON object per record as shards finalize —
// bounded memory end to end. Records of one type arrive in input order;
// types interleave at shard granularity (deterministically).
func (s *Server) extractNDJSON(w http.ResponseWriter, r *http.Request, cfg pipeline.Config, src io.Reader) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	n := 0
	var writeErr error
	// One field scratch for the whole response: a record is encoded before
	// the next callback. Non-nil from the start, so a field-less record
	// encodes "fields":[] and not null.
	fields := []fieldJSON{}
	cfg.OnRecord = func(ro core.RecordOut) error {
		fields = fields[:0]
		for _, f := range ro.Fields {
			fields = append(fields, fieldJSON{Col: f.Column, Rep: f.Repetition, Start: f.Start, End: f.End, Value: f.Value})
		}
		rj := recordJSON{Type: ro.TypeID, StartLine: ro.StartLine, EndLine: ro.EndLine, Fields: fields}
		if err := enc.Encode(&rj); err != nil {
			writeErr = err
			return err
		}
		if n++; n%64 == 0 && flusher != nil {
			flusher.Flush()
		}
		return nil
	}
	cfg.OnNoise = func(int) error { return nil }
	if _, err := pipeline.RunContext(r.Context(), src, cfg); err != nil && writeErr == nil {
		// Headers are gone once records streamed; all we can do for a
		// mid-stream failure is cut the connection. An upfront failure
		// (empty input) still reports cleanly.
		if n == 0 {
			httpError(w, statusFor(r.Context(), err), "extract: %v", err)
			return
		}
		panic(http.ErrAbortHandler)
	}
}

// extractCSV runs the extraction to completion and writes the
// relational tables as CSV: all tables (each preceded by a "# table"
// line), or exactly one bare table with table=NAME — the form that is
// byte-identical to the CLI's per-table CSV files.
func (s *Server) extractCSV(w http.ResponseWriter, r *http.Request, cfg pipeline.Config, src io.Reader) {
	res, err := pipeline.RunContext(r.Context(), src, cfg)
	if err != nil {
		httpError(w, statusFor(r.Context(), err), "extract: %v", err)
		return
	}
	// The same builder call as datamaran.Result.TablesWith (tables.go),
	// which serve cannot call itself: datamaran.Result is built only by
	// the root package's own entry points. Byte-equality is pinned by
	// TestServedExtractionMatchesPublicAPI and by cmd/datamaran's
	// TestServeGoldens against the CLI's CSVs.
	var tables []*relational.Table
	for typeID, st := range res.Structures {
		db := relational.Build(st.Template, res.Records, typeID, fmt.Sprintf("type%d", typeID))
		tables = append(tables, db.Tables...)
	}
	want := r.URL.Query().Get("table")
	w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	if want != "" {
		for _, t := range tables {
			if t.Name == want {
				t.WriteCSV(w)
				return
			}
		}
		httpError(w, http.StatusNotFound, "no table %q in extraction (have %s)", want, tableNames(tables))
		return
	}
	for _, t := range tables {
		fmt.Fprintf(w, "# table %s\n", t.Name)
		t.WriteCSV(w)
	}
}

func tableNames(tables []*relational.Table) string {
	names := make([]string, 0, len(tables))
	for _, t := range tables {
		names = append(names, t.Name)
	}
	return strings.Join(names, ", ")
}

// reindexJSON is the /reindex response. Format appears only on scoped
// runs, so global responses keep their historical bytes.
type reindexJSON struct {
	Format            string `json:"format,omitempty"`
	Files             int    `json:"files"`
	Structured        int    `json:"structured"`
	Unstructured      int    `json:"unstructured"`
	Failed            int    `json:"failed"`
	FormatsKnown      int    `json:"formatsKnown"`
	FormatsDiscovered int    `json:"formatsDiscovered"`
	CacheHits         int    `json:"cacheHits"`
	Resumed           int    `json:"resumed"`
	Unchanged         int    `json:"unchanged"`
}

// ErrBusy reports that a conflicting crawl is already running: the same
// format is being reindexed, or a global crawl is (or wants to be) in
// flight.
var ErrBusy = errors.New("serve: a conflicting reindex is already running")

// Reindex runs one incremental crawl over the lake — lake.State's crawl
// transaction: only a completed crawl publishes and persists, so a
// cancelled or failed one leaves both the served state and the on-disk
// state exactly as the last completed run left them. format empty
// crawls everything; a fingerprint restricts the crawl to that format's
// checkpointed files — scoped crawls of different formats run
// concurrently and compose, and neither ever blocks a read (reads serve
// the previous snapshot until the swap). Conflicting calls (same
// format, or anything against a global crawl) return ErrBusy rather
// than queueing unbounded work; an unknown fingerprint is
// lake.ErrUnknownFormat.
func (s *Server) Reindex(ctx context.Context, format string) (*lake.Result, error) {
	if !s.locks.tryLock(format) {
		return nil, ErrBusy
	}
	defer s.locks.unlock(format)
	hist := s.obs.reindexGlobal
	if format != "" {
		hist = s.obs.reindexScoped
	}
	span := obsv.StartSpan(hist)
	res, err := s.st.Crawl(ctx, s.cfg.Root, lake.Config{
		Core:    s.cfg.Core,
		Workers: s.cfg.Workers,
		Metrics: s.obs.reg,
		Logger:  s.logger,
	}, format)
	if err != nil {
		return nil, err
	}
	s.obs.reindexes.Inc()
	elapsed := span.End()
	if s.logger != nil {
		scope := format
		if scope == "" {
			scope = "all"
		}
		s.logger.Info("reindex",
			"scope", scope,
			"files", res.Summary.Files,
			"structured", res.Summary.Structured,
			"failed", res.Summary.Failed,
			"formats", res.Summary.FormatsKnown,
			"discovered", res.Summary.FormatsDiscovered,
			"resumed", res.Summary.Resumed,
			"unchanged", res.Summary.Unchanged,
			"duration", elapsed.Round(time.Millisecond).String())
	}
	return res, nil
}

// handleReindex is Reindex over HTTP, reporting the run summary. An
// optional format={fp} parameter scopes the crawl to one format.
func (s *Server) handleReindex(w http.ResponseWriter, r *http.Request) {
	format := r.URL.Query().Get("format")
	res, err := s.Reindex(r.Context(), format)
	if errors.Is(err, ErrBusy) {
		httpError(w, http.StatusConflict, "%v", err)
		return
	}
	if errors.Is(err, lake.ErrUnknownFormat) {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	if err != nil {
		httpError(w, statusFor(r.Context(), err), "reindex: %v", err)
		return
	}
	sum := res.Summary
	writeJSON(w, http.StatusOK, reindexJSON{
		Format:            format,
		Files:             sum.Files,
		Structured:        sum.Structured,
		Unstructured:      sum.Unstructured,
		Failed:            sum.Failed,
		FormatsKnown:      sum.FormatsKnown,
		FormatsDiscovered: sum.FormatsDiscovered,
		CacheHits:         sum.CacheHits,
		Resumed:           sum.Resumed,
		Unchanged:         sum.Unchanged,
	})
}

// cleanLakePath normalizes a client-supplied relative path and rejects
// anything escaping the lake root (absolute paths, ".." traversal) or
// reaching into hidden entries the crawler skips.
func cleanLakePath(p string) (string, bool) {
	if p == "" || strings.Contains(p, "\x00") || strings.HasPrefix(p, "/") {
		return "", false
	}
	cleaned := path.Clean(p)
	if cleaned == "" || cleaned == "." {
		return "", false
	}
	for _, seg := range strings.Split(cleaned, "/") {
		// "." segments cover both hidden entries and "..".
		if strings.HasPrefix(seg, ".") {
			return "", false
		}
	}
	return cleaned, true
}

// statusFor maps extraction errors onto HTTP statuses.
func statusFor(ctx context.Context, err error) int {
	var tooBig *http.MaxBytesError
	switch {
	case errors.Is(err, core.ErrEmptyInput):
		return http.StatusBadRequest
	case errors.As(err, &tooBig):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, os.ErrDeadlineExceeded):
		// The per-request deadline: the context expiring mid-compute, or
		// the connection read/write deadline firing on a stalled client.
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return canceledStatus(ctx)
	default:
		return http.StatusInternalServerError
	}
}

// canceledStatus disambiguates a context cancellation. When the
// connection read deadline cuts a stalled client, net/http cancels the
// request context as it aborts the connection reader — racing with the
// handler observing the i/o timeout itself — so a cancellation at or
// past the request deadline is the deadline firing, not the client
// hanging up.
func canceledStatus(ctx context.Context) int {
	if dl, ok := ctx.Deadline(); ok && !time.Now().Before(dl) {
		return http.StatusGatewayTimeout
	}
	return 499 // client closed request (nginx convention)
}

// writeJSON writes v indented with a trailing newline — stable bytes
// for goldens and shell pipelines.
func writeJSON(w http.ResponseWriter, status int, v any) {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		httpError(w, http.StatusInternalServerError, "marshal: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(raw, '\n'))
}

// errorJSON is the error envelope every failure body carries.
type errorJSON struct {
	Error errorBody `json:"error"`
}

type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// errorCode names a status class for programmatic handling.
func errorCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusConflict:
		return "busy"
	case http.StatusUnprocessableEntity:
		return "unclaimed"
	case http.StatusRequestEntityTooLarge:
		return "too_large"
	case http.StatusTooManyRequests:
		return "saturated"
	case http.StatusServiceUnavailable:
		return "unavailable"
	case http.StatusGatewayTimeout:
		return "deadline_exceeded"
	case 499:
		return "canceled"
	default:
		return "internal"
	}
}

// httpError writes the JSON error envelope.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	raw, err := json.Marshal(errorJSON{Error: errorBody{
		Code:    errorCode(status),
		Message: fmt.Sprintf(format, args...),
	}})
	if err != nil { // unreachable: the envelope always marshals
		http.Error(w, fmt.Sprintf(format, args...), status)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(raw, '\n'))
}
