package lake

import (
	"encoding/json"
	"fmt"
	"sync"

	"datamaran/internal/atomicfile"
	"datamaran/internal/parser"
	"datamaran/internal/template"
)

// registryVersion is the on-disk registry format version this package
// reads and writes.
const registryVersion = 1

// Entry is one known format: an ordered template set, compiled, plus
// bookkeeping. Fingerprint, Templates and the compiled matchers are
// immutable once registered and safe to read from any goroutine; the
// claim counter is owned by the registry — use Claim/Unclaim to change it
// and Snapshot (or FilesClaimed) to read it while a crawl may be running.
type Entry struct {
	// Fingerprint identifies the template set (see Fingerprint).
	Fingerprint string
	// Templates are the format's structure templates in discovery order.
	Templates []*template.Node
	// Files counts the files this entry has claimed over the registry's
	// lifetime (accumulated across runs when the registry persists).
	Files int

	matchers []*parser.Matcher
}

// newEntry builds a registry entry and compiles its templates: the one
// place a format is compiled. Every clone of the registry shares the
// result.
func newEntry(fp string, templates []*template.Node, files int) *Entry {
	e := &Entry{Fingerprint: fp, Templates: templates, Files: files, matchers: make([]*parser.Matcher, len(templates))}
	for i, t := range templates {
		e.matchers[i] = parser.NewMatcher(t)
	}
	return e
}

// Matchers returns the format's compiled templates, Matchers()[i] compiled
// from Templates[i]. A parser.Matcher is safe for concurrent use, so the
// one set backs every scan and extraction of the format; callers must not
// modify the slice.
func (e *Entry) Matchers() []*parser.Matcher { return e.matchers }

// Registry is the persistent profile store: formats in first-registered
// order, addressable by fingerprint. The zero value is not usable; call
// NewRegistry or LoadRegistry.
//
// A Registry handle is safe for concurrent use: the serve daemon shares
// one handle between request handlers and the background incremental
// crawl, so every read and mutation goes through the registry's lock.
type Registry struct {
	mu      sync.RWMutex
	entries []*Entry
	byFP    map[string]*Entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byFP: map[string]*Entry{}}
}

// Entries lists the registry's formats in first-registered order. The
// returned slice is a snapshot owned by the caller; the entries it points
// at are shared (their template sets are immutable).
func (r *Registry) Entries() []*Entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Entry, len(r.entries))
	copy(out, r.entries)
	return out
}

// Len reports the number of known formats.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

// Lookup returns the entry with the given fingerprint, or nil.
func (r *Registry) Lookup(fp string) *Entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.byFP[fp]
}

// Add registers a template set, returning its entry and whether it was
// new. An already-known fingerprint returns the existing entry.
func (r *Registry) Add(templates []*template.Node) (*Entry, bool) {
	fp := Fingerprint(templates)
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.byFP[fp]; ok {
		return e, false
	}
	cloned := make([]*template.Node, len(templates))
	for i, t := range templates {
		cloned[i] = t.Clone()
	}
	e := newEntry(fp, cloned, 0)
	r.entries = append(r.entries, e)
	r.byFP[fp] = e
	return e, true
}

// Claim counts one more file against e. Unclaim releases a claim (a file
// that classified but failed extraction holds no claim).
func (r *Registry) Claim(e *Entry) {
	r.mu.Lock()
	e.Files++
	r.mu.Unlock()
}

// Unclaim undoes one Claim.
func (r *Registry) Unclaim(e *Entry) {
	r.mu.Lock()
	e.Files--
	r.mu.Unlock()
}

// Adjust adds delta to the claim counter of the fingerprint's entry (a
// no-op for unknown fingerprints). This is the commit hook of State's
// scoped crawl: a crawl restricted to one format runs on a cloned
// registry, and its claim deltas are rebased onto the latest published
// registry at swap time — claims over disjoint file sets compose
// additively, so concurrent per-format crawls never lose each other's
// counts.
func (r *Registry) Adjust(fp string, delta int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.byFP[fp]; e != nil {
		e.Files += delta
	}
}

// FilesClaimed reads e's claim counter under the registry lock.
func (r *Registry) FilesClaimed(e *Entry) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return e.Files
}

// Clone returns an independent registry with the same formats and claim
// counts — what a crawl works on while readers keep the original. The
// template sets and their matchers are shared: they are immutable once
// registered.
func (r *Registry) Clone() *Registry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := &Registry{entries: make([]*Entry, len(r.entries)), byFP: make(map[string]*Entry, len(r.entries))}
	for i, e := range r.entries {
		c := *e
		out.entries[i] = &c
		out.byFP[c.Fingerprint] = &c
	}
	return out
}

// FormatInfo is a point-in-time copy of one registry entry, safe to use
// without further locking.
type FormatInfo struct {
	// Fingerprint identifies the format.
	Fingerprint string
	// Files is the claim counter at snapshot time.
	Files int
	// Templates is the format's (immutable) template set.
	Templates []*template.Node
}

// Snapshot copies the registry's current contents — the consistent read
// used by the serve daemon while a crawl may be mutating claim counters.
func (r *Registry) Snapshot() []FormatInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]FormatInfo, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, FormatInfo{Fingerprint: e.Fingerprint, Files: e.Files, Templates: e.Templates})
	}
	return out
}

// registryJSON is the serialized registry.
type registryJSON struct {
	Version  int            `json:"version"`
	Profiles []registryProf `json:"profiles"`
}

// registryProf is one serialized entry. Templates use the same canonical
// structural serialization as the public Profile format.
type registryProf struct {
	Fingerprint string           `json:"fingerprint"`
	Files       int              `json:"files"`
	Templates   []*template.Node `json:"templates"`
}

// MarshalJSON serializes the registry deterministically: entries in
// first-registered order, no timestamps or host state, so the bytes are
// reproducible across runs and worker counts. (Compact — encoding/json
// re-compacts a Marshaler's output anyway; Save indents the file form.)
func (r *Registry) MarshalJSON() ([]byte, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	rj := registryJSON{Version: registryVersion, Profiles: []registryProf{}}
	for _, e := range r.entries {
		rj.Profiles = append(rj.Profiles, registryProf{Fingerprint: e.Fingerprint, Files: e.Files, Templates: e.Templates})
	}
	return json.Marshal(rj)
}

// UnmarshalJSON parses a registry serialized by MarshalJSON, and accepts
// only what it can write: a known version, and entries that each hold
// at least one template and no empty one, a claim count of at least 0
// and, if a fingerprint is given, the one their templates recompute to.
func (r *Registry) UnmarshalJSON(data []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var rj registryJSON
	if err := atomicfile.DecodeVersioned(data, registryVersion, "lake", "registry", &rj); err != nil {
		return err
	}
	r.entries = nil
	r.byFP = map[string]*Entry{}
	for i, p := range rj.Profiles {
		if err := normalizeTemplates(p.Templates); err != nil {
			return fmt.Errorf("lake: registry entry %d: %w", i, err)
		}
		if p.Files < 0 {
			return fmt.Errorf("lake: registry entry %d claims %d files", i, p.Files)
		}
		fp := Fingerprint(p.Templates)
		if p.Fingerprint != "" && p.Fingerprint != fp {
			return fmt.Errorf("lake: registry fingerprint %s does not match its templates (recomputed %s)", p.Fingerprint, fp)
		}
		if _, ok := r.byFP[fp]; ok {
			return fmt.Errorf("lake: duplicate registry fingerprint %s", fp)
		}
		e := newEntry(fp, p.Templates, p.Files)
		r.entries = append(r.entries, e)
		r.byFP[fp] = e
	}
	return nil
}

// LoadRegistry reads a registry file. A missing file yields an empty
// registry, so first runs need no setup.
func LoadRegistry(path string) (*Registry, error) {
	r := NewRegistry()
	if err := atomicfile.LoadJSON(path, r.UnmarshalJSON); err != nil {
		return nil, err
	}
	return r, nil
}

// Save writes the registry atomically (see atomicfile), indented for
// human inspection.
func (r *Registry) Save(path string) error {
	return atomicfile.SaveJSON(path, r)
}
