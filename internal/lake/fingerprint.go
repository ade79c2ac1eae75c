// Package lake implements the data-lake indexer: a directory crawl that
// discovers the structure of each *new* log format exactly once — on a
// bounded sample of the first file exhibiting it — and clusters every
// other file under an already-known format via a persistent profile
// registry, so the bulk of the lake runs the discovery-free one-pass
// extraction path.
//
// The crawl runs three overlapping stages (classify.go). Match, on a
// worker pool in any order, reads each file's line-aligned sample and
// finds the registered profile that covers it best; a sample no profile
// claims starts template discovery at once, as a speculation. Commit,
// on one goroutine in sorted path order, settles each file's claim —
// checkpoint, re-match against profiles registered meanwhile, and the
// speculation kept (its profile registered under its fingerprint) or
// discarded — and alone mutates the registry, deciding as if discovery
// had run at the file's turn. Extract, on the worker pool, starts each
// file the moment its claim is final, so discovery of one file overlaps
// extraction of the files before it. The registry, the per-file results
// and every derived output are therefore byte-identical regardless of
// worker count — the equivalence the package's property tests pin
// down.
package lake

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"datamaran/internal/atomicfile"
	"datamaran/internal/template"
)

// Fingerprint returns a stable identifier for an ordered set of
// structure templates: the truncated SHA-256 of their canonical
// structural JSON serialization. Two template sets fingerprint equal iff
// they serialize equal, so a fingerprint names a format across runs,
// machines and registry files.
func Fingerprint(templates []*template.Node) string {
	h := sha256.New()
	for _, t := range templates {
		raw, err := json.Marshal(t)
		if err != nil {
			// Template trees are plain data; Marshal cannot fail on
			// them. Keep the signature error-free.
			panic("lake: template marshal: " + err.Error())
		}
		h.Write(raw)
		h.Write([]byte{0}) // unambiguous joint between templates
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// profileVersion is the profile wire form's version.
const profileVersion = 1

// ProfileDoc is a profile's wire form: what datamaran.Profile marshals
// to, what `datamaran -save-profile` writes and `-profile` reads, and
// what GET /v1/formats/{fp} serves. Build it with NewProfileDoc, read it
// with DecodeProfile.
type ProfileDoc struct {
	Version   int              `json:"version"`
	Templates []*template.Node `json:"templates"`
}

// NewProfileDoc returns the wire form of a template set.
func NewProfileDoc(templates []*template.Node) ProfileDoc {
	return ProfileDoc{Version: profileVersion, Templates: templates}
}

// DecodeProfile parses a profile's wire form into its templates,
// normalized.
func DecodeProfile(data []byte) ([]*template.Node, error) {
	var doc ProfileDoc
	if err := atomicfile.DecodeVersioned(data, profileVersion, "datamaran", "profile", &doc); err != nil {
		return nil, err
	}
	if err := normalizeTemplates(doc.Templates); err != nil {
		return nil, fmt.Errorf("datamaran: bad profile: %w", err)
	}
	return doc.Templates, nil
}

// normalizeTemplates is the rule of a decoded template list, a
// profile's or a registry entry's: at least one template, and none null
// or empty (discovery writes neither). It normalizes each template in
// place.
func normalizeTemplates(templates []*template.Node) error {
	if len(templates) == 0 {
		return errors.New("no templates")
	}
	for i, t := range templates {
		if t == nil {
			return fmt.Errorf("template %d is null", i)
		}
		t = t.Normalize()
		if t.Kind == template.KStruct && len(t.Children) == 0 {
			return fmt.Errorf("template %d is empty", i)
		}
		templates[i] = t
	}
	return nil
}
