package lake

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"datamaran/internal/follow"
)

// ErrUnknownFormat reports a crawl scoped to a fingerprint the registry
// does not know.
var ErrUnknownFormat = errors.New("lake: unknown format")

// Snapshot is one published generation of a lake's state. It is
// immutable: take it once and every read is consistent, however many
// crawls publish meanwhile.
type Snapshot struct {
	// Generation counts the crawls published before this one, from 1 for
	// the state as opened.
	Generation uint64
	// Registry holds the known formats.
	Registry *Registry
	// Checkpoints holds the per-file resume state; never nil.
	Checkpoints *follow.Store
}

// State owns a lake's persistent state — registry file, checkpoint file,
// record store — and is the only code that changes it: a crawl works on
// clones of the published snapshot, and only a crawl that completes
// publishes. The one-shot IndexDir and the serve daemon both crawl
// through it.
//
// Snapshot never blocks. Crawls scoped to different formats may run
// concurrently and compose; a global crawl, or two crawls of one format,
// must not overlap any other — telling a caller so is the caller's
// policy (the daemon answers 409).
type State struct {
	registryPath, checkpointPath string
	// store is nil without a store path.
	store *SegmentStore
	cur   atomic.Pointer[Snapshot]
	// publishMu serializes the rebase → commit → swap windows of
	// concurrent scoped crawls, so each sees what the other published;
	// saveMu serializes the writes of the registry and checkpoint files.
	publishMu, saveMu sync.Mutex
}

// OpenState loads the registry and the checkpoints and opens the record
// store. A missing file is an empty one. An empty registryPath or
// checkpointPath keeps that part in memory only — every crawl still
// resumes from the checkpoints earlier crawls of the state left — and an
// empty storePath means no record store.
func OpenState(registryPath, checkpointPath, storePath string) (*State, error) {
	s := &State{registryPath: registryPath, checkpointPath: checkpointPath}
	snap := &Snapshot{Generation: 1, Registry: NewRegistry(), Checkpoints: follow.NewStore()}
	var err error
	if registryPath != "" {
		if snap.Registry, err = LoadRegistry(registryPath); err != nil {
			return nil, err
		}
	}
	if checkpointPath != "" {
		if snap.Checkpoints, err = follow.LoadStore(checkpointPath); err != nil {
			return nil, err
		}
	}
	if storePath != "" {
		if s.store, err = OpenSegmentStore(storePath); err != nil {
			return nil, err
		}
	}
	s.cur.Store(snap)
	return s, nil
}

// Snapshot returns the published generation.
func (s *State) Snapshot() *Snapshot { return s.cur.Load() }

// Store returns the record store, nil when the state has none. It needs
// no snapshot: scans pin a manifest of their own and commits swap it
// whole.
func (s *State) Store() *SegmentStore { return s.store }

// Crawl indexes root and publishes the outcome. format empty crawls
// everything; a fingerprint restricts the crawl to the checkpointed files
// that format owns (files that rotated into another format reclassify
// within the scope; brand-new files wait for a global crawl). cfg's
// Checkpoints, Segments and — for a scoped crawl — Filter are the state's
// to set: leave them nil.
//
// The crawl is a transaction. It works on clones of the snapshot it
// started from, with the record store's segments staged; on success it
// rebases its outcome onto whatever is published by then, commits the
// store, swaps the snapshot in, saves the registry and the checkpoints,
// and last compacts the store. On failure or cancellation the staged
// segments are discarded, and memory and disk stay as the last completed
// crawl left them. An error from the save or the compaction is returned
// with the crawl already published.
func (s *State) Crawl(ctx context.Context, root string, cfg Config, format string) (*Result, error) {
	base := s.Snapshot()
	var scope map[string]bool
	if format != "" {
		if base.Registry.Lookup(format) == nil {
			return nil, fmt.Errorf("%w: %s", ErrUnknownFormat, format)
		}
		scope = map[string]bool{}
		for _, p := range base.Checkpoints.Paths() {
			if base.Checkpoints.Get(p).Fingerprint == format {
				scope[p] = true
			}
		}
		cfg.Filter = func(rel string) bool { return scope[rel] }
	}
	reg := base.Registry.Clone()
	cfg.Checkpoints = base.Checkpoints.Clone()
	if s.store != nil {
		cfg.Segments = s.store.Begin()
	}
	res, err := IndexContext(ctx, root, reg, cfg)
	if err == nil {
		err = s.publish(base, reg, cfg.Checkpoints, scope, cfg.Segments)
	}
	if err != nil {
		if cfg.Segments != nil {
			cfg.Segments.Abort()
		}
		return nil, err
	}
	// Save before anything optional: the store has committed, and a
	// process that loaded older checkpoints would resume behind it and
	// append rows it already holds.
	if err := s.save(); err != nil {
		return nil, err
	}
	if s.store != nil {
		// Repeated crawls accumulate one segment file per (format, run);
		// compaction folds tables back under the bound so scan cost stays
		// flat. A commit racing it makes it a no-op (it swaps the manifest
		// by compare-and-swap), never a conflict.
		if _, err := s.store.Compact(DefaultCompactFiles); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// publish commits a finished crawl's store transaction and swaps its
// registry and checkpoints in as the next snapshot. A global crawl's
// clones are the next snapshot wholesale, as a scoped crawl's are when
// nothing was published since it began; otherwise the scoped crawl is
// rebased first.
func (s *State) publish(base *Snapshot, reg *Registry, cps *follow.Store, scope map[string]bool, txn *StoreTxn) error {
	s.publishMu.Lock()
	defer s.publishMu.Unlock()
	cur := s.Snapshot()
	if scope != nil && cur != base {
		reg, cps = rebase(cur, base, reg, cps, scope)
	}
	if txn != nil {
		// The commit itself rebases by touched path (mergeManifest).
		if err := txn.Commit(); err != nil {
			return err
		}
	}
	s.cur.Store(&Snapshot{Generation: cur.Generation + 1, Registry: reg, Checkpoints: cps})
	return nil
}

// rebase applies what a scoped crawl changed — between base, the
// snapshot it started from, and its reg and cps — to clones of cur, the
// snapshot other formats' crawls have published since. Scopes are
// disjoint, each path's checkpoint naming one owning fingerprint, so the
// deltas of concurrent scoped crawls compose.
func rebase(cur, base *Snapshot, reg *Registry, cps *follow.Store, scope map[string]bool) (*Registry, *follow.Store) {
	nreg, ncps := cur.Registry.Clone(), cur.Checkpoints.Clone()
	// The crawl was authoritative for exactly the scope paths: departed
	// files lost their checkpoints, everything else in scope was
	// checkpointed again.
	for p := range scope {
		if cp := cps.Get(p); cp != nil {
			ncps.Put(cp)
		} else {
			ncps.Delete(p)
		}
	}
	// Per-fingerprint claim-count changes, plus any format the crawl was
	// first to discover (a scoped file rotated into a brand-new
	// structure). Claims count disjoint file sets across scopes, so
	// addition composes.
	for _, fi := range reg.Snapshot() {
		baseFiles := 0
		if e := base.Registry.Lookup(fi.Fingerprint); e != nil {
			baseFiles = base.Registry.FilesClaimed(e)
		}
		if delta := fi.Files - baseFiles; delta != 0 || nreg.Lookup(fi.Fingerprint) == nil {
			nreg.Add(fi.Templates) // no-op for known fingerprints
			nreg.Adjust(fi.Fingerprint, delta)
		}
	}
	return nreg, ncps
}

// save writes the published snapshot's registry and checkpoints to their
// paths (no-ops for in-memory ones). It reads the snapshot under saveMu,
// so of two crawls saving concurrently the later write is never the
// older generation.
func (s *State) save() error {
	s.saveMu.Lock()
	defer s.saveMu.Unlock()
	snap := s.Snapshot()
	if s.registryPath != "" {
		if err := snap.Registry.Save(s.registryPath); err != nil {
			return err
		}
	}
	if s.checkpointPath != "" {
		if err := snap.Checkpoints.Save(s.checkpointPath); err != nil {
			return err
		}
	}
	return nil
}
