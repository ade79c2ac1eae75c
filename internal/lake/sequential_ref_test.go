package lake

import (
	"context"
	"path/filepath"
	"sort"

	"datamaran/internal/core"
	"datamaran/internal/follow"
	"datamaran/internal/parser/parsertest"
)

// matchSampleRef is MatchSample as it was before the coverage-only scan:
// the sample extracted in full, records and field strings and all, under
// every registered profile, for its coverage number — by the reference
// residue chain (parsertest.Apply), which shares no code with the scan.
// The oracle of the matcher tests.
func matchSampleRef(sample []byte, reg *Registry, threshold float64) *Entry {
	if len(sample) == 0 {
		return nil
	}
	var best *Entry
	bestCov := 0.0
	for _, e := range reg.Entries() {
		res := parsertest.Apply(e.Templates, sample)
		covered := 0
		for _, s := range res.Structures {
			covered += s.Coverage
		}
		cov := float64(covered) / float64(len(sample))
		if cov >= threshold && cov > bestCov {
			best, bestCov = e, cov
		}
	}
	return best
}

// discoverSample runs template discovery on the sample and registers the
// learned profile, in one step on the caller's goroutine — the commit stage
// as it was before discovery moved to the match stage, and how the tests
// seed a registry. It returns (nil, false, nil) when the sample has no
// discoverable structure, and ctx.Err() when the search was cancelled.
func discoverSample(ctx context.Context, sample []byte, reg *Registry, opts core.Options) (*Entry, bool, error) {
	templates, err := discoverTemplates(ctx, sample, opts)
	if err != nil || len(templates) == 0 {
		return nil, false, err
	}
	e, isNew := reg.Add(templates)
	return e, isNew, nil
}

// indexSequential is IndexContext as it was before its three stages: one
// goroutine classifies every file in sorted path order against the
// registry as it stands at that file, and only then does extraction
// start. The pipeline must reproduce every output of this loop — it is
// the definition of "independent of the worker count".
func indexSequential(ctx context.Context, root string, reg *Registry, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	paths, walkFails, err := crawl(root)
	if err != nil {
		return nil, err
	}
	accepted := func(rel string) bool { return cfg.Filter == nil || cfg.Filter(rel) }

	var files []FileResult
	var entries []*Entry
	var resumes []*follow.Checkpoint
	newFPs := map[string]bool{}
	// What the crawl reports of itself, as IndexContext counts it: every
	// discovery this loop runs is one the pipeline must run and count, and
	// it runs none it then throws away.
	var stats crawlStats
	for _, rel := range paths {
		if !accepted(rel) {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		i := len(files)
		files = append(files, FileResult{Path: rel})
		entries = append(entries, nil)
		resumes = append(resumes, nil)
		full := filepath.Join(root, filepath.FromSlash(rel))
		done, fullReason := classifyFromCheckpoint(full, rel, reg, cfg, &files[i], &entries[i], &resumes[i])
		if done {
			continue
		}
		sample, size, err := ReadSample(full, cfg.SampleBytes)
		files[i].Size = size
		if err != nil {
			files[i].Status = StatusFailed
			files[i].Err = err
			continue
		}
		if len(sample) == 0 {
			files[i].Status = StatusUnstructured
			observeUnstructured(cfg, full, rel)
			continue
		}
		status := StatusMatched
		e := matchSampleRef(sample, reg, cfg.MatchThreshold)
		if e == nil {
			var isNew bool
			e, isNew, err = discoverSample(ctx, sample, reg, cfg.Core)
			if err != nil {
				stats.discoveries.none++
				files[i].Status = StatusFailed
				files[i].Err = err
				continue
			}
			if e == nil {
				stats.discoveries.none++
				files[i].Status = StatusUnstructured
				observeUnstructured(cfg, full, rel)
				continue
			}
			status = StatusDiscovered
			if isNew {
				stats.discoveries.new++
				newFPs[e.Fingerprint] = true
			} else {
				stats.discoveries.known++
			}
		}
		reg.Claim(e)
		entries[i] = e
		files[i].Status = status
		files[i].Fingerprint = e.Fingerprint
		files[i].Inc = &IncInfo{Action: follow.ActionFull, Reason: fullReason}
	}
	for _, wf := range walkFails {
		if accepted(wf.rel) {
			files = append(files, FileResult{Path: wf.rel, Status: StatusFailed, Err: wf.err})
			entries = append(entries, nil)
			resumes = append(resumes, nil)
		}
	}
	order := make([]int, len(files))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return files[order[a]].Path < files[order[b]].Path })
	sorted := make([]FileResult, len(files))
	sortedEntries := make([]*Entry, len(files))
	sortedResumes := make([]*follow.Checkpoint, len(files))
	for dst, src := range order {
		sorted[dst], sortedEntries[dst], sortedResumes[dst] = files[src], entries[src], resumes[src]
	}

	for i := range sorted {
		if sortedEntries[i] != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			extractOne(ctx, root, &sorted[i], sortedEntries[i], sortedResumes[i], cfg)
		}
	}
	res := settle(reg, cfg, sorted, sortedEntries, newFPs)
	recordCrawl(cfg, res, stats)
	return res, nil
}
