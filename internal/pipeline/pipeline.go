// Package pipeline is the extraction engine: the one piece of code that
// turns bytes into core.RecordOut, for slices (RunBytes) and readers
// (Run, RunContext) alike — the production-scale form of the paper's
// observation that the extraction pass "is eminently parallelizable" (§1,
// §5.2.2). Input reaches it as line-aligned shards; unless a format is
// given, structure discovery (core.Discover) runs once on a bounded prefix
// — the whole input for a slice; and extraction flows through one stage
// per template. A stage's batch matches every line of its window once, on
// a worker pool: the one pass (parser.Matcher.MatchLines) writes each
// record's field occurrences as it validates the line. A cheap sequential
// greedy walk over those candidates decides records and noise, and the
// workers then build the accepted records' slabs from the occurrences
// already extracted — no record is matched twice — while the calling
// goroutine delivers the previous batch. There is one code path at every
// worker count.
//
// Shard invariance. Per-line matching is context-free, so a stage's
// sharded walk finalizes exactly the decisions one walk over the whole
// input would make: matches are deferred (not failed) when an attempt runs
// off the end of the resident window, and resume when the next shard
// arrives. Noise lines cascade into the next stage's window carrying their
// original line/byte coordinates — the residue chain of §9.1. The output
// therefore depends on the templates and the bytes alone, never on
// ShardSize, Workers or where a reader's chunks happened to end. The tests
// pin that two ways: against parsertest.Apply, an independent residue
// chain over the tree-walking oracle, and as whole-input × one worker ≡
// 64-byte shards × eight workers. Reader and slice differ only in what
// discovery sees: inputs up to DiscoveryBudget are discovered whole either
// way, and a longer stream learns its templates from the prefix rather
// than from stratified whole-input samples.
//
// Callbacks. OnRecord, OnBatch and OnNoise run on the goroutine that
// called the run, never concurrently. OnNoise receives a line as the
// greedy walk decides it. A batch's records reach OnRecord (or
// Result.Records) while the workers fill the next batch's slabs: one batch
// behind, in the order the batches were materialized, the last one when
// the input ends. So each record type's records arrive in input order,
// types interleave batch by batch, noise indices arrive in increasing
// order, and neither sequence depends on Workers. At one worker nothing runs concurrently: the
// previous batch is delivered, then the next one filled. OnBatch takes
// materialization's place: it receives each batch as the greedy walk
// accepts it, in the same order, and no record is built. An error from
// any callback stops the run, and no callback follows it.
//
// Memory. Each stage retains at most about two shards of residue (plus
// any single record still being completed across a shard boundary), so the
// input streams through in bounded space. The outputs accumulate in the
// Result unless streamed away: use OnRecord for records and OnNoise for
// noise line indices to keep the whole run bounded.
//
// What a run works in is borrowed, not built. The chunk buffer the reader
// is read through and, per stage, the residue window, its line index
// (built as lines arrive, so each byte is scanned for '\n' once) and line
// metadata, the window's candidates with the occurrences of every record
// they found, the accepted records' start lines and two buffers of
// RecordOut headers — all of it overwritten batch after batch and none of
// it ever handed out — come from a pool (scratch) and go back to it when
// the run ends, sized by the largest batch any run has put through them.
// A window line costs 64 B of it (metadata, index entry, candidate), and
// in stage t's window 8·t B more when a checkpoint boundary is asked for
// (see engine.boundary); an accepted record costs 152 B more (its start
// line and a header in each buffer), and each field or array occurrence
// 32 or 16 B — of the records a worker's range keeps, which never
// overlap, and of the accepted records it did not keep, re-extracted,
// which only a format whose records start inside one another has (see
// parser.Matcher.MatchLines). A crawl's extract
// workers and a daemon's extract handlers therefore allocate it once per
// goroutine, not once per file or request; a run's cost follows its bytes.
// The exception is a scratch grown past maxPooledScratch, which a run of
// several full shards does: that run has paid for it out of its own bytes,
// and it is dropped rather than left in the pool for the rest of the
// process to carry.
//
// What a run hands out is allocated for that purpose and never reused:
// records are allocated per batch, not per record (see materialize) — the
// records of one fill range of a batch (the whole batch at one worker)
// share one string of their text and one slice of field values — and
// Result.Records is the slice the first stage accumulated them in. Pooling
// those slabs would save the largest allocations left and break the one
// promise callers rely on: a RecordOut handed to OnRecord (or found in a
// Result) stays valid for as long as it is referenced, across later
// batches, later runs and runs on other goroutines. The granularity of
// retention is the batch — a kept record, Fields slice or Value keeps its
// range of the batch reachable (at most about ShardSize of record text
// plus the field slice over it). Keeping all records or none costs nothing
// extra; to keep a few out of many, clone what is kept (strings.Clone).
package pipeline

import (
	"bytes"
	"context"
	"errors"
	"io"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"datamaran/internal/core"
	"datamaran/internal/parser"
	"datamaran/internal/template"
	"datamaran/internal/textio"
)

// DefaultShardSize is the per-stage batch granularity of the engine.
const DefaultShardSize = 1 << 20

// DefaultDiscoveryBudget bounds the prefix a reader run buffers for
// template discovery. Inputs no larger than this extract identically
// through Run and RunBytes.
const DefaultDiscoveryBudget = 8 << 20

// Config parameterizes a streaming run.
type Config struct {
	// Core holds the discovery options, forwarded to the template search
	// on the discovery prefix.
	Core core.Options
	// ShardSize is the target shard size in bytes (default 1 MiB).
	ShardSize int
	// Workers is the matching/materialization parallelism per batch.
	// 0 means GOMAXPROCS, 1 is sequential.
	Workers int
	// DiscoveryBudget caps the bytes a reader run buffers for structure
	// discovery (default 8 MiB).
	DiscoveryBudget int
	// OnRecord, when non-nil, receives every record as its shard is
	// finalized instead of the record being accumulated into
	// Result.Records — the bounded-memory mode. Records of one type
	// arrive in input order; types interleave at shard granularity. It
	// runs on the calling goroutine while the next batch is filled (see
	// the package comment, "Callbacks"). A record may be kept past the
	// call (it keeps its batch's storage reachable: see the package
	// comment, "Memory"). A non-nil error aborts the run.
	OnRecord func(core.RecordOut) error
	// OnBatch, when non-nil, receives each batch's accepted records as the
	// matcher found them (see Batch) instead of records: nothing is
	// materialized, OnRecord must be nil and Result.Records stays empty.
	// It is how a consumer that re-encodes the fields anyway — the lake's
	// record store — skips building records it would take apart at once.
	// A non-nil error aborts the run.
	OnBatch func(*Batch) error
	// OnNoise, when non-nil, receives each final noise line's original
	// index as it is decided instead of the index being accumulated
	// into Result.NoiseLines — without it, streaming memory grows with
	// the noise count even in OnRecord mode. A non-nil error aborts
	// the run.
	OnNoise func(origLine int) error
	// Matchers, when non-empty, is a known format: discovery is skipped
	// and the compiled templates are applied in order, one stage each, each
	// to the residue the previous one left (the learn-once, apply-many
	// data-lake workflow). No prefix is buffered: the input streams through
	// in one pass from the first byte. A parser.Matcher is safe for
	// concurrent use, so one set — a lake.Entry's — backs any number of
	// simultaneous runs.
	Matchers []*parser.Matcher
	// Templates is a known format uncompiled: the run compiles it first.
	// Setting both Matchers and Templates is an error.
	Templates []*template.Node
	// BaseLine and BaseByte shift every output coordinate (record
	// lines, field byte offsets, noise line indices) as if the stream
	// had been preceded by BaseLine lines spanning BaseByte bytes. This
	// is the resume-at-offset entry point of the incremental ingestion
	// layer (internal/follow): re-extracting only the grown suffix of a
	// file yields records in whole-file coordinates. The reader must
	// start at a line boundary. Only meaningful with a known format
	// (discovery on a suffix would not see the file's structure).
	BaseLine int
	BaseByte int
	// Boundary, when non-nil, receives the stable checkpoint boundary:
	// the earliest original coordinate (line index and byte offset)
	// whose final classification could still change if the input grew
	// past its current end. Every record and noise line strictly below
	// the boundary is final: re-running extraction on [Boundary.Byte,
	// ∞) of a grown input reproduces, together with the already-final
	// prefix, exactly the one-shot extraction of the whole input. The
	// boundary always falls on a line start (or end of input) and never
	// splits a record of any stage.
	Boundary *Boundary
}

// Boundary is a stable resume point in original-stream coordinates (see
// Config.Boundary).
type Boundary struct {
	// Line is the original index of the first line whose outcome is not
	// yet stable (== the total line count when everything is stable).
	Line int
	// Byte is the original byte offset of that line's first byte (== the
	// total byte count when everything is stable).
	Byte int
	// Records counts, per record type, the run's records that start below
	// the boundary, and Noise its noise lines below it: what a run resumed
	// at the boundary does not emit again. Both are counted as the run
	// goes, without holding what it emitted (see engine.boundary).
	Records []int
	Noise   int
}

// Batch is one stage batch's accepted records as the one-pass match found
// them (Config.OnBatch): the stage's resident window and, per record, its
// start line and its field occurrences, whose Start and End index Data.
// It views the stage's scratch — nothing is copied or allocated for it —
// so it is valid only during the OnBatch call. Records are in input order.
type Batch struct {
	st *stage
}

// TypeID is the record type (the stage) of every record in the batch.
func (b *Batch) TypeID() int { return b.st.typeID }

// Len is the number of records in the batch.
func (b *Batch) Len() int { return len(b.st.accepted) }

// Data is the window the records' field occurrences index.
func (b *Batch) Data() []byte { return b.st.buf }

// StartLine is record k's first line in original-stream coordinates.
func (b *Batch) StartLine(k int) int { return b.st.meta[b.st.accepted[k]].orig }

// Fields returns record k's field occurrences in flatten order; each
// value is Data()[f.Start:f.End].
func (b *Batch) Fields(k int) []parser.FieldOcc { return b.st.cands.Fields(b.st.accepted[k]) }

func (c Config) withDefaults() Config {
	if c.ShardSize <= 0 {
		c.ShardSize = DefaultShardSize
	}
	if c.DiscoveryBudget <= 0 {
		c.DiscoveryBudget = DefaultDiscoveryBudget
	}
	return c
}

// lineMeta locates one resident line in the original stream.
type lineMeta struct {
	orig  int // original line index
	start int // original byte offset of the line's first byte
}

// stage applies one template to its residue stream. buf holds the
// resident window of still-undecided residue lines; meta maps each
// resident line back to original coordinates.
type stage struct {
	m        *parser.Matcher
	typeID   int
	records  int
	coverage int
	recs     []core.RecordOut // collected when Config.OnRecord is nil
	// minRetry backs off re-processing while a record-in-progress spans
	// the whole window (a batch that finalized nothing): the window must
	// grow past it before matching is attempted again, keeping the
	// rework linear instead of quadratic.
	minRetry int

	*stageScratch
}

// stageScratch is the storage one stage works in, borrowed from the pool
// for the length of a run: the residue window, its line index (grown as
// lines arrive, rebased when the window is compacted) and its line
// metadata, and the batch scratch — the candidates of the window's lines
// with the occurrences of every record they found, the start lines of the
// records the greedy walk accepted, and two buffers of RecordOut headers,
// one filled while the other's batch is delivered. Every batch overwrites
// it and none of it is handed out; what a batch hands out — the slabs the
// headers point into — is allocated fresh (see materialize).
type stageScratch struct {
	buf      []byte
	meta     []lineMeta
	lines    textio.Lines
	cands    parser.Candidates
	accepted []int
	out      [2][]core.RecordOut
	// cur is the header buffer the stage's last batch was filled into.
	cur int
	// passed holds, per window line and flat, how many records each
	// earlier stage had accepted when it passed the line on — t entries
	// a line in stage t's window: what a checkpoint boundary at the line
	// leaves below it of those stages (see engine.boundary). Kept only
	// when Config.Boundary is set.
	passed []int
}

// scratch is what one run borrows: the buffer its reader's chunks are read
// into and a stageScratch per stage. Nothing in it outlives the run that
// holds it — the engine copies every chunk into a stage window and every
// record's bytes into a fresh slab — so the next run, on whichever
// goroutine, may overwrite all of it.
type scratch struct {
	chunk  []byte
	stages []*stageScratch
}

// scratchPool holds the scratch of finished runs. A goroutine that runs
// one extraction after another (a crawl's extract worker, a daemon's
// handler) gets its own back, grown to its largest batch.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// maxPooledScratch is the largest scratch a finished run gives back. A
// scratch weighs about ten times the window it has held (per line: its
// metadata, candidate, record start, headers and field occurrences), so a run
// that streamed several full shards leaves one of 20–40 MB, and has spread
// that over its own bytes; kept, it would sit in the pool through the next
// collection, a live heap several times the process's own that whatever
// runs next — a query, not an extraction — pays the pacing of. Sixteen
// shards' worth keeps every run that stayed within one shard: the runs
// pooling exists for, a lake's files and a daemon's request bodies, work
// in 1–4 MB.
const maxPooledScratch = 16 * DefaultShardSize

// release ends a run's hold on sc: back to the pool, unless the run grew
// it past what the pool keeps. Headers a failed run never delivered are
// dropped first, so a pooled scratch keeps no batch's slabs alive.
func (sc *scratch) release() {
	for _, s := range sc.stages {
		clear(s.out[0])
		clear(s.out[1])
	}
	if sc.footprint() <= maxPooledScratch {
		scratchPool.Put(sc)
	}
}

// next reads r's next chunk into the chunk buffer, keeping the buffer's
// growth. The chunk is valid until the next call: whoever takes it copies
// it (the discovery prefix into data, feed into stage 0's window).
func (sc *scratch) next(r *textio.ChunkReader) ([]byte, error) {
	chunk, err := r.NextInto(sc.chunk)
	if chunk != nil {
		sc.chunk = chunk
	}
	return chunk, err
}

// stage returns the scratch of stage t, emptied.
func (sc *scratch) stage(t int) *stageScratch {
	for len(sc.stages) <= t {
		sc.stages = append(sc.stages, new(stageScratch))
	}
	s := sc.stages[t]
	s.buf, s.meta, s.passed = s.buf[:0], s.meta[:0], s.passed[:0]
	s.lines.Reset(s.buf)
	return s
}

// footprint returns the bytes of storage sc holds.
func (sc *scratch) footprint() int {
	n := cap(sc.chunk)
	for _, s := range sc.stages {
		n += cap(s.buf) + s.lines.IndexBytes() + s.cands.Footprint() +
			cap(s.meta)*int(unsafe.Sizeof(lineMeta{})) +
			(cap(s.accepted)+cap(s.passed))*int(unsafe.Sizeof(0)) +
			(cap(s.out[0])+cap(s.out[1]))*int(unsafe.Sizeof(core.RecordOut{}))
	}
	return n
}

// engine drives the staged streaming scan.
type engine struct {
	cfg        Config
	structures []core.Structure // one per stage, in application order
	stages     []*stage
	noise      []int
	// noiseLines counts the final noise lines, streamed or kept.
	noiseLines int
	nextLine   int // original line counter of the input feed
	nextByte   int // original byte counter of the input feed
	// pending is the last batch materialized, its headers not yet
	// delivered: the next batch's fill delivers it (see materialize).
	pending pendingBatch
	// timing is what discovery spent (zero with a known format); began is
	// when extraction started.
	timing core.Timing
	began  time.Time
}

// Run streams r through discovery and sharded extraction. With
// cfg.Matchers or cfg.Templates set, discovery is skipped and that format
// is applied directly.
func Run(r io.Reader, cfg Config) (*core.Result, error) {
	return RunContext(context.Background(), r, cfg)
}

// RunContext is Run with cancellation: ctx is checked before the first
// read, between record types and refined candidates of the discovery pass
// (see core.Discover), between shards and between per-stage batches, so a
// long crawl or a served extraction aborts within one shard of the cancel.
func RunContext(ctx context.Context, r io.Reader, cfg Config) (*core.Result, error) {
	return run(ctx, nil, r, cfg)
}

// RunBytes is RunContext for an input already in memory — the same engine
// behind a second front door. Without a known format the whole slice is the
// discovery prefix (cfg.DiscoveryBudget does not apply), so structures are
// learned from stratified samples of all of data. The slice then reaches
// stage 0 in line-aligned pieces of about cfg.ShardSize, straight from
// data: no reader, no chunk buffer, no second full copy of the input.
func RunBytes(ctx context.Context, data []byte, cfg Config) (*core.Result, error) {
	return run(ctx, data, nil, cfg)
}

// run is the engine behind both doors: the input is data followed by
// whatever r (nil for a slice) still holds.
func run(ctx context.Context, data []byte, r io.Reader, cfg Config) (*core.Result, error) {
	cfg = cfg.withDefaults()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sc := scratchPool.Get().(*scratch)
	defer sc.release()
	var rest *textio.ChunkReader
	if r != nil {
		rest = textio.NewChunkReader(r, cfg.ShardSize)
		// Without a format, buffer the discovery prefix first: a
		// reservoir of leading shards, the whole input when it fits the
		// budget.
		for len(cfg.Matchers) == 0 && len(cfg.Templates) == 0 && rest != nil && len(data) < cfg.DiscoveryBudget {
			chunk, err := sc.next(rest)
			data = append(data, chunk...)
			if err == io.EOF {
				rest = nil
			} else if err != nil {
				return nil, err
			}
		}
	}
	e, err := start(ctx, cfg, sc, data)
	if err != nil {
		return nil, err
	}
	if err := e.feedAll(ctx, data); err != nil {
		return nil, err
	}
	for rest != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		chunk, err := sc.next(rest)
		if err == io.EOF {
			rest = nil
		} else if err != nil {
			return nil, err
		}
		if len(chunk) > 0 {
			if err := e.feed(chunk); err != nil {
				return nil, err
			}
		}
	}
	return e.finish(ctx)
}

// start builds the engine over the borrowed scratch sc: one stage per
// matcher, the matchers being cfg.Matchers or, without them, cfg.Templates
// or what discovery finds in prefix, compiled.
func start(ctx context.Context, cfg Config, sc *scratch, prefix []byte) (*engine, error) {
	e := &engine{cfg: cfg, nextLine: cfg.BaseLine, nextByte: cfg.BaseByte}
	matchers := cfg.Matchers
	switch {
	case cfg.OnBatch != nil && cfg.OnRecord != nil:
		return nil, errors.New("pipeline: OnBatch and OnRecord both set")
	case len(matchers) > 0 && len(cfg.Templates) > 0:
		return nil, errors.New("pipeline: Matchers and Templates both set")
	case len(matchers) > 0:
		for i, m := range matchers {
			e.structures = append(e.structures, core.Structure{TypeID: i, Template: m.Template()})
		}
	case len(cfg.Templates) > 0:
		for i, tpl := range cfg.Templates {
			e.structures = append(e.structures, core.Structure{TypeID: i, Template: tpl})
		}
	default:
		var err error
		if e.structures, e.timing, err = core.Discover(ctx, prefix, cfg.Core); err != nil {
			return nil, err
		}
	}
	if len(matchers) == 0 {
		for _, s := range e.structures {
			matchers = append(matchers, parser.NewMatcher(s.Template))
		}
	}
	for i, m := range matchers {
		e.stages = append(e.stages, &stage{m: m, typeID: i, stageScratch: sc.stage(i)})
	}
	e.began = time.Now()
	return e, nil
}

// feedAll feeds resident input to stage 0 in line-aligned pieces of about
// ShardSize, so a stage window never holds more of it than a streamed
// run's would.
func (e *engine) feedAll(ctx context.Context, data []byte) error {
	for len(data) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		n := len(data)
		if last := e.cfg.ShardSize - 1; last < n {
			n = last + lineLen(data[last:]) // through the line holding byte ShardSize-1
		}
		if err := e.feed(data[:n]); err != nil {
			return err
		}
		data = data[n:]
	}
	return nil
}

// finish flushes every stage — the input has ended — and assembles the
// result.
func (e *engine) finish(ctx context.Context) (*core.Result, error) {
	cfg := e.cfg
	if e.nextLine == cfg.BaseLine {
		return nil, core.ErrEmptyInput
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if cfg.Boundary != nil {
		// Checkpoint snapshot: drain every stage's decidable prefix
		// with non-final batches (in stage order, so cascaded residue
		// lands before the downstream stage runs), then read off the
		// earliest still-undecided coordinate. Everything the non-final
		// batches defer — truncated match attempts, matches flushing
		// against the window's end, the unterminated tail line — is
		// exactly what more input could change, so the minimum window
		// start over all stages is the stable resume point. The final
		// flush below still emits those deferred decisions, so the
		// result itself is unchanged by taking the snapshot.
		for t := range e.stages {
			if err := e.process(t, false); err != nil {
				return nil, err
			}
		}
		*cfg.Boundary = e.boundary()
	}
	// Final flush, in stage order so cascaded residue is complete, and the
	// last batch's delivery.
	for t := range e.stages {
		if err := e.process(t, true); err != nil {
			return nil, err
		}
	}
	if err := e.deliver(); err != nil {
		return nil, err
	}

	// Discovery charged its residue walks to Extraction; the engine's own
	// time adds to them.
	res := &core.Result{NoiseLines: e.noise, Timing: e.timing}
	res.Timing.Extraction += time.Since(e.began)
	for i, s := range e.structures {
		st := e.stages[i]
		s.Records = st.records
		s.Coverage = st.coverage
		res.Structures = append(res.Structures, s)
		if i == 0 {
			// The slice the first stage accumulated is the result's: for
			// a one-template format nothing is copied a second time.
			res.Records = st.recs
		} else {
			res.Records = append(res.Records, st.recs...)
		}
	}
	return res, nil
}

// boundary returns the earliest original coordinate still held in any
// stage's residue window — the stable checkpoint boundary once every
// stage has drained its decidable prefix — with what has been decided
// below it. With every window empty, the whole input is stable and the
// boundary is its end. A window's first
// line is always the earliest undecided line of its stage, and no
// finalized record of any stage spans across another stage's window
// start (cascade order delivers lines to each stage strictly in
// original order), so the minimum is a safe cut for all stages at once.
func (e *engine) boundary() Boundary {
	b := Boundary{Line: e.nextLine, Byte: e.nextByte, Records: make([]int, len(e.stages)), Noise: e.noiseLines}
	at := len(e.stages)
	for t, st := range e.stages {
		b.Records[t] = st.records
		if len(st.meta) > 0 && st.meta[0].orig < b.Line {
			b.Line, b.Byte = st.meta[0].orig, st.meta[0].start
			at = t
		}
	}
	// Noise is decided by the last stage and the records of stage at and
	// later ones from lines stage at passed on, all below the boundary
	// line; an earlier stage decides its lines in order, so its records
	// below the line are those it had accepted when it passed the line on.
	if at < len(e.stages) {
		copy(b.Records, e.stages[at].passed[:at])
	}
	return b
}

// feed appends one line-aligned input block to stage 0 (or straight to
// noise when discovery found no structure) and lets ready stages run.
func (e *engine) feed(block []byte) error {
	if len(e.stages) == 0 {
		// No templates: every input line is noise.
		for off := 0; off < len(block); {
			if err := e.finalNoise(e.nextLine); err != nil {
				return err
			}
			e.nextLine++
			nl := lineLen(block[off:])
			e.nextByte += nl
			off += nl
		}
		return nil
	}
	// The block's lines are found once, by the window's index, and their
	// metadata read off it.
	s := e.stages[0]
	first := s.lines.N()
	s.buf = append(s.buf, block...)
	s.lines.Extend(s.buf)
	for i := first; i < s.lines.N(); i++ {
		s.meta = append(s.meta, lineMeta{orig: e.nextLine, start: e.nextByte})
		e.nextLine++
		e.nextByte += s.lines.Start(i+1) - s.lines.Start(i)
	}
	for t := range e.stages {
		st := e.stages[t]
		if len(st.buf) >= e.cfg.ShardSize && len(st.buf) >= st.minRetry {
			if err := e.process(t, false); err != nil {
				return err
			}
		}
	}
	return nil
}

// lineLen returns the length of the first line of b including its '\n'
// (or all of b when no '\n' remains — the unterminated final line).
func lineLen(b []byte) int {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		return i + 1
	}
	return len(b)
}

// process runs one batch of stage t: the parallel one-pass match of every
// window line, the sequential greedy walk, parallel record materialization
// (delivering the previous batch meanwhile), then window compaction. final
// means no more input can arrive, so every decision is safe to finalize.
// The sequential half works in the stage's own scratch (line index,
// candidates, accepted records), so a batch allocates only what it hands
// out.
func (e *engine) process(t int, final bool) error {
	st := e.stages[t]
	ls := &st.lines
	n := ls.N()
	if n == 0 {
		return nil
	}
	st.m.MatchLines(&st.cands, ls, e.cfg.Workers)
	cands := st.cands.Ends()

	// Greedy walk — identical decisions to the sequential Scan. Near
	// the window's end (when more input may arrive), decisions that
	// could change with more bytes are deferred to the next batch:
	// attempts that ran off the buffer, and matches that consumed the
	// buffer's unterminated tail.
	accepted := slices.Grow(st.accepted[:0], n) // at most one record per line
	i := 0
	for i < n {
		c := cands[i]
		if c.EndLine == 0 {
			if !final && c.Truncated {
				break
			}
			if !final && i == n-1 && st.buf[len(st.buf)-1] != '\n' {
				break // unterminated tail line: defer
			}
			if err := e.emitNoise(t, i, len(accepted)); err != nil {
				return err
			}
			i++
			continue
		}
		if !final && c.End == len(st.buf) {
			// A match flush against the window's end could extend
			// with more bytes when the template ends in a field
			// (legal in hand-written profiles); deferring is always
			// safe — '\n'-terminal matches merely finalize one
			// batch later.
			break
		}
		accepted = append(accepted, i)
		st.coverage += c.End - ls.Start(i)
		i = c.EndLine
	}
	st.accepted = accepted
	consumed := i

	if len(accepted) > 0 {
		st.m.Restore(&st.cands, ls, accepted)
		st.records += len(accepted)
		if e.cfg.OnBatch != nil {
			if err := e.cfg.OnBatch(&Batch{st: st}); err != nil {
				return err
			}
		} else if err := e.materialize(st); err != nil {
			return err
		}
	}

	// Compact: drop the finalized prefix, keep the deferred tail.
	if consumed > 0 {
		st.buf = append(st.buf[:0], st.buf[ls.Start(consumed):]...)
		st.meta = append(st.meta[:0], st.meta[consumed:]...)
		ls.Drop(consumed, st.buf)
		if e.cfg.Boundary != nil {
			st.passed = append(st.passed[:0], st.passed[consumed*t:]...)
		}
	}
	// A deferred tail is re-matched from scratch next batch; when it is
	// already shard-sized (a record still completing across shards),
	// require a full extra shard of growth before retrying so the
	// rework stays proportional to the data, not quadratic in it.
	if !final && len(st.buf) >= e.cfg.ShardSize {
		st.minRetry = len(st.buf) + e.cfg.ShardSize
	} else {
		st.minRetry = 0
	}
	return nil
}

// pendingBatch is a materialized batch awaiting delivery: the stage whose
// records they are, and which of its header buffers holds them.
type pendingBatch struct {
	st  *stage
	buf int
}

// deliver hands the pending batch's records on, if there is one: to
// OnRecord when set, into the stage's share of Result.Records otherwise.
// It runs on the calling goroutine, so callbacks never run concurrently,
// and batches are delivered in the order they were materialized. The
// headers are dropped once delivered, even when OnRecord fails, so the
// scratch keeps no batch's slabs alive past its delivery, in this run or
// from the pool.
func (e *engine) deliver() error {
	p := e.pending
	if p.st == nil {
		return nil
	}
	e.pending = pendingBatch{}
	out := p.st.out[p.buf]
	var err error
	if e.cfg.OnRecord == nil {
		p.st.recs = append(p.st.recs, out...)
	} else {
		for _, r := range out {
			if err = e.cfg.OnRecord(r); err != nil {
				break
			}
		}
	}
	clear(out)
	p.st.out[p.buf] = out[:0]
	return err
}

// emitNoise routes stage t's window line i, which its greedy walk found
// no record at after accepting accepted records in the batch, to the next
// stage's residue window, or to the final noise sink after the last stage.
func (e *engine) emitNoise(t, i, accepted int) error {
	st := e.stages[t]
	if t+1 < len(e.stages) {
		next := e.stages[t+1]
		next.buf = append(next.buf, st.lines.Line(i)...)
		next.lines.Extend(next.buf)
		next.meta = append(next.meta, st.meta[i])
		if e.cfg.Boundary != nil {
			next.passed = append(append(next.passed, st.passed[i*t:(i+1)*t]...), st.records+accepted)
		}
		return nil
	}
	return e.finalNoise(st.meta[i].orig)
}

// finalNoise records one line nothing matched: streamed to OnNoise when
// set, accumulated into the Result otherwise.
func (e *engine) finalNoise(origLine int) error {
	e.noiseLines++
	if e.cfg.OnNoise != nil {
		return e.cfg.OnNoise(origLine)
	}
	e.noise = append(e.noise, origLine)
	return nil
}

// materialize turns the batch's accepted window-local records into records
// in original-stream coordinates, fanning contiguous ranges of them out
// over the worker pool, and meanwhile delivers the previous batch on the
// calling goroutine (see deliver), which then fills ranges too; the new
// batch becomes the pending one.
// At one worker nothing runs concurrently: the previous batch is
// delivered, then this one filled. The headers land in the stage's other
// header buffer — scratch, valid until they are delivered; the slabs they
// point into are allocated here and belong to whoever keeps a record. Per
// range a filler allocates one set of slabs — one string holding the bytes
// of the range's records back to back (a single copy of record text,
// nothing of the noise between), one []core.FieldValue and, when the
// template has arrays, one []parser.ArrayOcc — and every record's Fields
// and Arrays are capacity-clipped runs of those slabs, every Value a
// substring of the string. Slabs are never reused, so a record stays valid
// for as long as anything refers to it, and nothing is allocated per
// record or per field. The occurrences come from the batch's one-pass
// match (parser.Candidates), which also sizes the slabs exactly: no record
// is matched twice. Output order matches the accepted order.
func (e *engine) materialize(st *stage) error {
	accepted, ls, cands := st.accepted, &st.lines, &st.cands
	ends := cands.Ends()
	st.cur ^= 1
	out := slices.Grow(st.out[st.cur][:0], len(accepted))[:len(accepted)]
	st.out[st.cur] = out
	fill := func(lo, hi int) {
		recs := accepted[lo:hi]
		textLen, nFields, nArrays := 0, 0, 0
		for _, i := range recs {
			textLen += ends[i].End - ls.Start(i)
			nFields += len(cands.Fields(i))
			nArrays += len(cands.Arrays(i))
		}
		var text strings.Builder
		text.Grow(textLen)
		for _, i := range recs {
			text.Write(st.buf[ls.Start(i):ends[i].End])
		}
		values := text.String()
		fields := make([]core.FieldValue, nFields)
		var arrays []parser.ArrayOcc
		if nArrays > 0 {
			arrays = make([]parser.ArrayOcc, nArrays)
		}

		f0, a0, textOff := 0, 0, 0
		for k, i := range recs {
			occs := cands.Fields(i)
			f1, a1 := f0+len(occs), a0+copy(arrays[a0:], cands.Arrays(i))
			// Fields arrive left to right and never cross line
			// boundaries, so the containing line advances
			// monotonically from the record's first line and one
			// per-line delta translates both span ends.
			li, toText := i, textOff-ls.Start(i)
			shift, next := st.meta[li].start-ls.Start(li), ls.Start(li+1)
			for j, f := range occs {
				// li+1 < N() guards the sentinel: a zero-length
				// field at the very end of the window belongs to
				// the last line.
				for f.Start >= next && li+1 < ls.N() {
					li++
					shift, next = st.meta[li].start-ls.Start(li), ls.Start(li+1)
				}
				fields[f0+j] = core.FieldValue{
					Column: f.Col, Repetition: f.Rep,
					Start: f.Start + shift, End: f.End + shift,
					Value: values[f.Start+toText : f.End+toText],
				}
			}
			ro := core.RecordOut{
				TypeID:    st.typeID,
				StartLine: st.meta[i].orig,
				EndLine:   st.meta[ends[i].EndLine-1].orig + 1,
				Fields:    fields[f0:f1:f1],
			}
			if a1 > a0 {
				ro.Arrays = arrays[a0:a1:a1]
			}
			out[lo+k] = ro
			f0, a0 = f1, a1
			textOff += ends[i].End - ls.Start(i)
		}
	}
	workers := e.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers <= 1 || len(accepted) < workers*4 {
		workers = 1
	}
	var err error
	if workers == 1 {
		if err = e.deliver(); err == nil {
			fill(0, len(accepted))
		}
	} else {
		// The fill is cut into four ranges a worker, taken in turn by
		// workers−1 goroutines and by the calling goroutine once it has
		// delivered: a batch's fill lasts a few milliseconds, shorter than
		// a scheduler time slice, so a range fixed per worker would leave
		// one range waiting for a core while the delivery holds the other,
		// and then a core idle.
		size := (len(accepted) + 4*workers - 1) / (4 * workers)
		var next atomic.Int64
		fillRanges := func() {
			for lo := int(next.Add(1)-1) * size; lo < len(accepted); lo = int(next.Add(1)-1) * size {
				fill(lo, min(lo+size, len(accepted)))
			}
		}
		var wg sync.WaitGroup
		// The fillers are joined on every exit, a panicking OnRecord's
		// included: they write into the run's scratch, which the unwinding
		// run hands back to the pool.
		defer wg.Wait()
		for w := 1; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				fillRanges()
			}()
		}
		if err = e.deliver(); err == nil {
			fillRanges()
		}
	}
	if err != nil {
		return err // the run is over: release drops the headers
	}
	e.pending = pendingBatch{st: st, buf: st.cur}
	return nil
}
