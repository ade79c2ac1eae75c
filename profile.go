package datamaran

import (
	"encoding/json"
	"errors"
	"io"

	"datamaran/internal/lake"
	"datamaran/internal/parser"
	"datamaran/internal/template"
)

// Profile is a learned, serializable set of structure templates. In a
// data lake, many files share a format: discover the structure once with
// Extract, save the profile, and apply it to sibling files with
// ExtractWithProfile — which runs only the linear extraction pass, no
// template search.
//
// A profile is compiled once, when it is made (Result.Profile, or
// UnmarshalJSON): every extraction it drives, on any goroutine, runs the
// same compiled matchers.
type Profile struct {
	templates []*template.Node
	// matchers[i] is templates[i] compiled.
	matchers []*parser.Matcher
}

// newProfile builds a profile over templates and compiles them.
func newProfile(templates []*template.Node) *Profile {
	p := &Profile{templates: templates, matchers: make([]*parser.Matcher, len(templates))}
	for i, t := range templates {
		p.matchers[i] = parser.NewMatcher(t)
	}
	return p
}

// Profile captures the discovered structures of a completed extraction.
func (r *Result) Profile() *Profile {
	templates := make([]*template.Node, len(r.res.Structures))
	for i, s := range r.res.Structures {
		templates[i] = s.Template.Clone()
	}
	return newProfile(templates)
}

// Templates lists the profile's structure templates in the paper's
// notation.
func (p *Profile) Templates() []string {
	out := make([]string, len(p.templates))
	for i, t := range p.templates {
		out[i] = t.String()
	}
	return out
}

// Fingerprint returns the profile's stable identifier: a hash of the
// canonical template serialization. Two profiles fingerprint equal iff
// their template sets serialize equal, so the fingerprint names a
// format across runs and machines — it is the key of the IndexDir
// profile registry.
func (p *Profile) Fingerprint() string {
	return lake.Fingerprint(p.templates)
}

// MarshalJSON serializes the profile in its wire form (lake.ProfileDoc).
func (p *Profile) MarshalJSON() ([]byte, error) {
	return json.Marshal(lake.NewProfileDoc(p.templates))
}

// UnmarshalJSON parses a profile serialized by MarshalJSON. A missing,
// non-integer or unknown version is rejected with a clear error rather
// than silently misparsed: a future profile format may serialize
// templates differently, so guessing would produce a plausible-looking
// but wrong profile. So is a profile with no templates or an empty one.
func (p *Profile) UnmarshalJSON(data []byte) error {
	templates, err := lake.DecodeProfile(data)
	if err != nil {
		return err
	}
	*p = *newProfile(templates)
	return nil
}

// usable rejects a nil or template-less profile.
func (p *Profile) usable() error {
	if p == nil || len(p.templates) == 0 {
		return errors.New("datamaran: empty profile")
	}
	return nil
}

// ExtractWithProfile extracts records from data using the already-learned
// templates of p, skipping structure discovery entirely. It runs in one
// linear pass per template (the O(Tdata) extraction row of Table 3), on
// all cores; the reader forms take Options when that needs bounding.
func ExtractWithProfile(data []byte, p *Profile) (*Result, error) {
	if err := p.usable(); err != nil {
		return nil, err
	}
	return extract(nil, data, p, Options{}, nil)
}

// ExtractReaderWithProfile is ExtractWithProfile over a stream: no
// discovery, no prefix buffering — the input flows through the sharded
// engine in a single pass from the first byte, with per-shard matching
// parallelized across Options.Workers. Structures, records, noise lines
// and tables are identical to ExtractWithProfile on the same bytes.
func ExtractReaderWithProfile(r io.Reader, p *Profile, opts Options) (*Result, error) {
	if err := p.usable(); err != nil {
		return nil, err
	}
	return extract(r, nil, p, opts, nil)
}

// ExtractStreamWithProfile applies a learned profile to a stream in
// constant memory, yielding each record as its shard is finalized — the
// highest-throughput path for data-lake files sharing one format.
func ExtractStreamWithProfile(r io.Reader, p *Profile, opts Options, fn func(Record) error) (*Result, error) {
	if err := p.usable(); err != nil {
		return nil, err
	}
	return extract(r, nil, p, opts, fn)
}
