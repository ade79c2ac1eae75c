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
