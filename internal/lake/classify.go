package lake

import (
	"context"
	"math"
	"path/filepath"
	"sync"
	"time"

	"datamaran/internal/follow"
	"datamaran/internal/template"
	"datamaran/internal/textio"
)

// coverage returns how many bytes of lines e's templates cover, applied
// in order, each to the residue — the uncovered lines, concatenated —
// that the previous one left. That is the extraction engine's rule, but
// nothing is extracted: no record, no field string
// (parser.Matcher.Residue). The scan gives up (ok false) once more than
// maxUncovered bytes are certain to stay uncovered.
func coverage(e *Entry, lines *textio.Lines, maxUncovered int) (covered int, ok bool) {
	total := len(lines.Data())
	matchers := e.Matchers()
	for k, m := range matchers {
		// Only what the last template leaves behind is final: a line an
		// earlier one rejects may still be covered further down the chain.
		if k == len(matchers)-1 {
			_, uncovered, ok := m.Residue(lines, false, maxUncovered)
			if !ok {
				return 0, false
			}
			return total - uncovered, true
		}
		residue, _, _ := m.Residue(lines, true, total)
		if len(residue) == 0 {
			return total, true
		}
		lines = textio.NewLines(residue)
	}
	return 0, true // a profile without templates covers nothing
}

// minCovered returns the fewest covered bytes of a total-byte sample
// that reach the threshold: the smallest c with c/total >= threshold in
// the float arithmetic the threshold has always been compared in
// (total+1, which no sample reaches, when the threshold is above 1).
func minCovered(total int, threshold float64) int {
	if !(threshold <= 1) {
		return total + 1
	}
	reaches := func(c int) bool { return float64(c)/float64(total) >= threshold }
	c := max(int(math.Ceil(threshold*float64(total))), 0)
	for c > 0 && reaches(c-1) {
		c--
	}
	for c <= total && !reaches(c) {
		c++
	}
	return c
}

// bestProfile returns the profile that covers the most of lines and its
// covered bytes, or (nil, floor) when none covers at least need bytes
// and more than floor. Ties keep the earlier profile and the caller's
// incumbent, whose coverage floor is. A profile is abandoned as soon as
// its uncovered bytes show it can no longer win.
func bestProfile(lines *textio.Lines, entries []*Entry, need, floor int) (*Entry, int) {
	total := len(lines.Data())
	var best *Entry
	for _, e := range entries {
		must := max(need, floor+1)
		if must > total {
			break // not even a full cover would win now
		}
		if covered, ok := coverage(e, lines, total-must); ok && covered >= must {
			best, floor = e, covered
		}
	}
	return best, floor
}

// MatchSample returns the registered profile with the best sample
// coverage at or above the threshold (ties keep the earlier entry), or
// nil when no profile claims the sample. It only reads the registry —
// safe to call concurrently with a crawl (the serve daemon classifies
// ad-hoc lake paths with it).
func MatchSample(sample []byte, reg *Registry, threshold float64) *Entry {
	if len(sample) == 0 {
		return nil
	}
	e, _ := bestProfile(textio.NewLines(sample), reg.Entries(), minCovered(len(sample), threshold), 0)
	return e
}

// indexer is the state of one IndexContext run, shared by its three
// stages:
//
//   - match, on cfg.Workers goroutines, in any order: read the file's
//     sample and find the best profile among those registered when the
//     worker looked, before the crawl or by it. A file nothing claims goes
//     straight into discovery, on the worker that sampled it — a
//     speculation: discovery is a pure function of the sample and
//     cfg.Core, so running it early changes nothing but when its answer is
//     ready;
//   - commit, on one goroutine, in sorted path order: checkpoint claims,
//     the re-match against the profiles registered since the match stage
//     looked, and the verdict on the file's speculation — kept, its
//     templates registered here, or cancelled and discarded because a
//     profile registered meanwhile claims the file. It alone mutates the
//     registry, and it decides as if discovery had run at the file's turn,
//     which is why no output depends on the worker count;
//   - extract, on cfg.Workers goroutines, fed by the commit stage: file i
//     starts extracting the moment its claim is final, so discovery on
//     one file overlaps extraction of every file before it.
//
// What a crawl can waste is bounded by how far the match stage runs ahead
// of the commit stage — the 2×Workers futures of startMatching: files of
// one undiscovered format that are sampled before the first of them has
// registered it each start a discovery, all but the first discarded at
// their turn; files sampled later see the registered profile and start none.
//
// files, entries and resumes are indexed alike. The commit stage writes
// slot i and then hands i to the extract stage, which owns it from there.
//
// The commit stage alone adds to reg, and a registry only grows, in
// registration order: the entries a match worker saw are a prefix of
// those the commit stage sees at the file's turn.
type indexer struct {
	root string
	reg  *Registry
	cfg  Config

	files   []FileResult
	entries []*Entry
	resumes []*follow.Checkpoint
	newFPs  map[string]bool
}

// sampled is what the match stage learned about one file.
type sampled struct {
	// deferred marks a checkpointed file: whether it needs a sample at
	// all is the commit stage's decision, so none was read. (One whose
	// checkpoint turns out not to hold is sampled there, serially.)
	deferred bool
	sample   []byte
	size     int64
	err      error
	lines    *textio.Lines
	// need is the coverage that reaches the match threshold; entry the
	// best profile among the first seen entries of the registry, covering
	// covered bytes (nil, 0 when none does).
	need, covered int
	entry         *Entry
	seen          int
	// spec is the discovery started because entry is nil.
	spec *speculation
}

// speculation is one discovery run ahead of its file's turn. The match
// worker that started it fills in the outcome and closes done; the commit
// stage either waits for done and reads the outcome, or calls cancel and
// never looks again.
type speculation struct {
	cancel    context.CancelFunc
	done      chan struct{}
	templates []*template.Node
	err       error
	// elapsed is how long the discovery ran.
	elapsed time.Duration
}

// run drives the three stages to completion. It returns ctx.Err() when
// the crawl was cancelled, with every goroutine it started gone.
func (ix *indexer) run(ctx context.Context, stats *crawlStats) error {
	matchCtx, stop := context.WithCancel(ctx)
	defer stop()
	var stages sync.WaitGroup

	// Each file is independent and its in-file pipeline runs with
	// Workers=1, so scheduling cannot reorder or change anything. The
	// queue holds every file, so the commit stage never waits on it.
	queue := make(chan int, len(ix.files))
	for w := 0; w < ix.cfg.Workers; w++ {
		stages.Add(1)
		go func() {
			defer stages.Done()
			for i := range queue {
				if ctx.Err() == nil {
					extractOne(ctx, ix.root, &ix.files[i], ix.entries[i], ix.resumes[i], ix.cfg)
				}
			}
		}()
	}

	classifyStart := time.Now()
	var extractStart time.Time
	err := ix.commit(ctx, ix.startMatching(matchCtx, &stages), stats, func(i int) {
		if extractStart.IsZero() {
			extractStart = time.Now()
		}
		queue <- i
	})
	stats.classify = time.Since(classifyStart)
	// The match stage has nothing left to do once commit returns: it has
	// delivered every file, or commit gave up and stop tells it to.
	stop()
	close(queue)
	stages.Wait()
	if !extractStart.IsZero() {
		stats.extract = time.Since(extractStart)
	}
	if err == nil {
		err = ctx.Err()
	}
	return err
}

// startMatching starts the match stage and returns its results as one
// future per file, in path order. The channel's capacity bounds how many
// samples the stage holds ahead of the commit stage.
func (ix *indexer) startMatching(ctx context.Context, wg *sync.WaitGroup) <-chan chan sampled {
	type job struct {
		rel     string
		skipped bool // the walk could not reach it: nothing to sample
		out     chan sampled
	}
	jobs := make(chan job)
	futures := make(chan chan sampled, 2*ix.cfg.Workers)
	for w := 0; w < ix.cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				var s sampled
				switch {
				case j.skipped:
				case ix.cfg.Checkpoints.Get(j.rel) != nil:
					s.deferred = true
				default:
					s = ix.sample(j.rel)
				}
				specCtx := ix.speculate(ctx, &s)
				// The commit stage gets the sample first: by the file's
				// turn it may know a profile this worker could not, and
				// cancel the discovery below while it runs.
				j.out <- s
				if spec := s.spec; spec != nil {
					start := time.Now()
					spec.templates, spec.err = discoverTemplates(specCtx, s.sample, ix.cfg.Core)
					spec.elapsed = time.Since(start)
					close(spec.done)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(jobs)
		for i := range ix.files {
			// Slot i is read here, before its future is handed over: the
			// commit stage writes it only after.
			j := job{rel: ix.files[i].Path, skipped: ix.files[i].Err != nil, out: make(chan sampled, 1)}
			select {
			case futures <- j.out:
			case <-ctx.Done():
				return
			}
			select {
			case jobs <- j:
			case <-ctx.Done():
				return
			}
		}
	}()
	return futures
}

// sample reads one file's sample and matches it against the registry as it
// stands.
func (ix *indexer) sample(rel string) sampled {
	var s sampled
	s.sample, s.size, s.err = ReadSample(filepath.Join(ix.root, filepath.FromSlash(rel)), ix.cfg.SampleBytes)
	if s.err != nil || len(s.sample) == 0 {
		return s
	}
	s.lines = textio.NewLines(s.sample)
	s.need = minCovered(len(s.sample), ix.cfg.MatchThreshold)
	entries := ix.reg.Entries()
	s.seen = len(entries)
	s.entry, s.covered = bestProfile(s.lines, entries, s.need, 0)
	return s
}

// speculate gives a match-stage sample no profile claims a speculation,
// which the caller runs, under the context returned, once the sample is on
// its way to the commit stage.
func (ix *indexer) speculate(ctx context.Context, s *sampled) context.Context {
	if s.err != nil || len(s.sample) == 0 || s.entry != nil {
		return nil
	}
	specCtx, cancel := context.WithCancel(ctx)
	s.spec = &speculation{cancel: cancel, done: make(chan struct{})}
	return specCtx
}

// commit is the commit stage: it takes the match results in path order,
// settles each file's claim and hands the claimed ones to extract.
func (ix *indexer) commit(ctx context.Context, futures <-chan chan sampled, stats *crawlStats, extract func(i int)) error {
	for i := range ix.files {
		if err := ctx.Err(); err != nil {
			return err
		}
		var future chan sampled
		select {
		case future = <-futures:
		case <-ctx.Done():
			return ctx.Err()
		}
		var s sampled
		select {
		case s = <-future:
		case <-ctx.Done():
			return ctx.Err()
		}
		if ix.commitFile(ctx, i, s, stats) {
			extract(i)
		}
	}
	return nil
}

// commitFile settles file i and reports whether it is to be extracted.
// Checkpointed files that still pass the identity heuristics skip
// classification entirely: their claim is the checkpointed fingerprint.
func (ix *indexer) commitFile(ctx context.Context, i int, s sampled, stats *crawlStats) bool {
	fr, cfg := &ix.files[i], ix.cfg
	if fr.Err != nil {
		return false // the walk could not reach it
	}
	full := filepath.Join(ix.root, filepath.FromSlash(fr.Path))
	done, fullReason := classifyFromCheckpoint(full, fr.Path, ix.reg, cfg, fr, &ix.entries[i], &ix.resumes[i])
	if done {
		return ix.entries[i] != nil
	}
	if s.deferred { // the checkpoint no longer holds: sample it after all
		s = ix.sample(fr.Path)
	}
	fr.Size = s.size
	if s.err != nil {
		fr.Status = StatusFailed
		fr.Err = s.err
		return false
	}
	if len(s.sample) == 0 {
		fr.Status = StatusUnstructured
		observeUnstructured(cfg, full, fr.Path)
		return false
	}
	// A profile registered since the match stage looked comes after every
	// one it saw, so it takes the file only by covering strictly more.
	e, status := s.entry, StatusMatched
	if better, _ := bestProfile(s.lines, ix.reg.Entries()[s.seen:], s.need, s.covered); better != nil {
		e = better
	}
	if s.spec != nil && e != nil {
		// Registered since the match stage looked: the discovery, finished
		// or not, is of no use — at this file's turn the sequential crawl
		// would not have run one.
		s.spec.cancel()
		stats.speculations.discarded = append(stats.speculations.discarded, s.spec)
	}
	if e == nil {
		templates, elapsed, err := ix.discovered(ctx, s, stats)
		var isNew bool
		if err == nil && len(templates) > 0 {
			e, isNew = ix.reg.Add(templates)
		}
		times := &stats.discoveryTimes
		switch {
		case err != nil:
			stats.discoveries.none++
			times.none = append(times.none, elapsed)
			fr.Status = StatusFailed
			fr.Err = err
			return false
		case e == nil:
			stats.discoveries.none++
			times.none = append(times.none, elapsed)
			fr.Status = StatusUnstructured
			observeUnstructured(cfg, full, fr.Path)
			return false
		case isNew:
			stats.discoveries.new++
			times.new = append(times.new, elapsed)
			ix.newFPs[e.Fingerprint] = true
		default:
			stats.discoveries.known++
			times.known = append(times.known, elapsed)
		}
		status = StatusDiscovered
	}
	ix.reg.Claim(e)
	ix.entries[i] = e
	fr.Status = status
	fr.Fingerprint = e.Fingerprint
	fr.Inc = &IncInfo{Action: follow.ActionFull, Reason: fullReason}
	return true
}

// discovered returns the templates discovery finds in a sample no profile
// claims, and how long it ran: what the file's speculation found, once it
// has finished, or — for the file the match stage did not sample, a
// checkpointed one whose checkpoint no longer holds — a discovery run here
// and now.
func (ix *indexer) discovered(ctx context.Context, s sampled, stats *crawlStats) ([]*template.Node, time.Duration, error) {
	if s.spec == nil {
		start := time.Now()
		templates, err := discoverTemplates(ctx, s.sample, ix.cfg.Core)
		return templates, time.Since(start), err
	}
	defer s.spec.cancel()
	select {
	case <-s.spec.done:
		stats.speculations.used++
		return s.spec.templates, s.spec.elapsed, s.spec.err
	case <-ctx.Done():
		return nil, 0, ctx.Err()
	}
}
