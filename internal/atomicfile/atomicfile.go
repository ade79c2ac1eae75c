// Package atomicfile is the one way this repository puts a file where a
// reader may be looking: the bytes go to a temp file in the target
// directory, and only a complete, closed file is renamed over the
// destination — a reader sees the old file or the new one, never a torn
// one, and a failed write leaves the old one as it was. The registry, the
// checkpoint store, the record store's manifest and segments, and the
// CLI's saved profiles are all written through here, so what a write
// guarantees (and, later, what it syncs) is decided in one function.
//
// The four JSON state files — a saved profile, registry.json,
// checkpoints.json and the store's manifest.json — also share their
// codec here: SaveJSON is their one indented atomic save, LoadJSON their
// one load (a missing file is an empty document), and DecodeVersioned
// their one version rule.
package atomicfile

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Write replaces path with what fill writes. On any failure — creating
// the temp file, fill itself, a short write surfacing at close, the
// rename — path is untouched, the temp file is gone and the error is
// returned.
func Write(path string, fill func(io.Writer) error) error {
	tmp, err := Stage(filepath.Dir(path), fill)
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// WriteBytes is Write of a buffer already in hand.
func WriteBytes(path string, data []byte) error {
	return Write(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// Stage is Write without the rename: it fills a hidden temp file in dir
// (mode 0644 — CreateTemp's 0600 would make shared state unreadable to
// other users) and returns its path for the caller to rename into place
// or remove. On failure nothing is left in dir.
func Stage(dir string, fill func(io.Writer) error) (string, error) {
	f, err := Create(dir)
	if err != nil {
		return "", err
	}
	err = fill(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
		return "", err
	}
	return f.Name(), nil
}

// Create is Stage for a writer that fills the file over time rather than
// in one call: it returns the open temp file, hidden in dir with mode
// 0644, for the caller to close and then rename into place or remove.
func Create(dir string) (*os.File, error) {
	f, err := os.CreateTemp(dir, ".stage-*")
	if err != nil {
		return nil, err
	}
	if err := f.Chmod(0o644); err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, err
	}
	return f, nil
}

// SaveJSON writes v to path as indented JSON and a newline, atomically
// (see Write).
func SaveJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return WriteBytes(path, append(raw, '\n'))
}

// LoadJSON hands the bytes of the file at path to decode. A missing
// file is an empty document: decode is not called and there is no
// error, so first runs need no setup.
func LoadJSON(path string, decode func([]byte) error) error {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	return decode(raw)
}

// DecodeVersioned decodes a versioned JSON document into doc. It decodes
// the version field alone first, so a version of the wrong JSON type, a
// missing one and an unknown one each say so, rather than a later format
// being misparsed as this one. Errors read "<pkg>: ... <noun> ...".
func DecodeVersioned(data []byte, version int, pkg, noun string, doc any) error {
	var ver struct {
		Version *int `json:"version"`
	}
	if err := json.Unmarshal(data, &ver); err != nil {
		return fmt.Errorf("%s: bad %s version field (supported: %d): %w", pkg, noun, version, err)
	}
	if ver.Version == nil {
		return fmt.Errorf("%s: %s missing version field (supported: %d)", pkg, noun, version)
	}
	if *ver.Version != version {
		return fmt.Errorf("%s: unsupported %s version %d (supported: %d)", pkg, noun, *ver.Version, version)
	}
	if err := json.Unmarshal(data, doc); err != nil {
		return fmt.Errorf("%s: bad %s: %w", pkg, noun, err)
	}
	return nil
}
