package datamaran

import (
	"encoding/json"
	"errors"
	"fmt"
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

// profileVersion is the serialized profile format version this package
// reads and writes.
const profileVersion = 1

// profileJSON is the serialized profile format (versioned for forward
// compatibility).
type profileJSON struct {
	Version   int               `json:"version"`
	Templates []json.RawMessage `json:"templates"`
}

// MarshalJSON serializes the profile.
func (p *Profile) MarshalJSON() ([]byte, error) {
	pj := profileJSON{Version: profileVersion}
	for _, t := range p.templates {
		raw, err := json.Marshal(t)
		if err != nil {
			return nil, err
		}
		pj.Templates = append(pj.Templates, raw)
	}
	return json.Marshal(pj)
}

// UnmarshalJSON parses a profile serialized by MarshalJSON. Profiles
// with a missing, non-integer or unknown version are rejected with a
// clear error rather than silently misparsed: a future profile format
// may serialize templates differently, so guessing would produce a
// plausible-looking but wrong profile.
func (p *Profile) UnmarshalJSON(data []byte) error {
	// Decode the version alone first, so a version field of the wrong
	// JSON type reports a version problem, not a template one.
	var ver struct {
		Version *int `json:"version"`
	}
	if err := json.Unmarshal(data, &ver); err != nil {
		return fmt.Errorf("datamaran: bad profile version field (supported: %d): %w", profileVersion, err)
	}
	if ver.Version == nil {
		return fmt.Errorf("datamaran: profile missing version field (supported: %d)", profileVersion)
	}
	if *ver.Version != profileVersion {
		return fmt.Errorf("datamaran: unsupported profile version %d (supported: %d)", *ver.Version, profileVersion)
	}
	var pj profileJSON
	if err := json.Unmarshal(data, &pj); err != nil {
		return fmt.Errorf("datamaran: bad profile: %w", err)
	}
	var templates []*template.Node
	for _, raw := range pj.Templates {
		n, err := template.UnmarshalNode(raw)
		if err != nil {
			return fmt.Errorf("datamaran: bad profile template: %w", err)
		}
		templates = append(templates, n.Normalize())
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
