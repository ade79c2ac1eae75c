package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var errDiskFull = errors.New("no space left on device")

// halfThenFail is a fill that gets half of data out and then fails, the
// way a write runs into ENOSPC.
func halfThenFail(data string) func(io.Writer) error {
	return func(w io.Writer) error {
		if _, err := io.WriteString(w, data[:len(data)/2]); err != nil {
			return err
		}
		return errDiskFull
	}
}

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestFailedFillLeavesNothing: a fill that fails half way returns its
// error, leaves the destination byte-identical and leaves no temp file
// behind — for the rename form and the stage form. (The manifest writer
// this replaces dropped the error and renamed the half over the good
// file.)
func TestFailedFillLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "manifest.json")
	const good = "{\"version\": 1}\n"
	if err := WriteBytes(path, []byte(good)); err != nil {
		t.Fatal(err)
	}
	if err := Write(path, halfThenFail("{\"version\": 2, \"tables\": []}\n")); !errors.Is(err, errDiskFull) {
		t.Fatalf("Write = %v, want the fill's error", err)
	}
	if tmp, err := Stage(dir, halfThenFail("dmseg2\nrows")); !errors.Is(err, errDiskFull) || tmp != "" {
		t.Fatalf("Stage = %q, %v, want no path and the fill's error", tmp, err)
	}
	if raw, err := os.ReadFile(path); err != nil || string(raw) != good {
		t.Fatalf("destination after two failed fills: %q, %v", raw, err)
	}
	if names := dirNames(t, dir); len(names) != 1 {
		t.Fatalf("directory holds %v, want manifest.json alone", names)
	}
}

// TestWriteAndStage: Write replaces the destination, Stage leaves one
// hidden file to rename, both world-readable.
func TestWriteAndStage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "registry.json")
	for _, content := range []string{"first\n", "second, longer\n", "3\n"} {
		if err := WriteBytes(path, []byte(content)); err != nil {
			t.Fatal(err)
		}
		if raw, err := os.ReadFile(path); err != nil || string(raw) != content {
			t.Fatalf("after Write: %q, %v, want %q", raw, err, content)
		}
	}
	tmp, err := Stage(dir, func(w io.Writer) error {
		_, err := io.WriteString(w, "staged")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Dir(tmp) != dir || filepath.Base(tmp)[0] != '.' {
		t.Fatalf("staged at %s, want a hidden file in %s", tmp, dir)
	}
	for _, p := range []string{path, tmp} {
		info, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if info.Mode().Perm() != 0o644 {
			t.Fatalf("%s has mode %v, want 0644", p, info.Mode().Perm())
		}
	}
	if names := dirNames(t, dir); len(names) != 2 {
		t.Fatalf("directory holds %v, want the destination and the staged file", names)
	}
	// A destination that cannot be renamed over (a non-empty directory)
	// fails the write and takes the temp file with it.
	blocked := filepath.Join(dir, "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteBytes(blocked, []byte("x")); err == nil {
		t.Fatal("Write over a non-empty directory succeeded")
	}
	if names := dirNames(t, dir); len(names) != 3 {
		t.Fatalf("directory holds %v after a failed rename, want no temp file added", names)
	}
}

// TestDecodeVersioned: the one version rule of the JSON state files
// accepts the supported version alone, and says which way any other
// document fails.
func TestDecodeVersioned(t *testing.T) {
	type doc struct {
		Version int    `json:"version"`
		Name    string `json:"name"`
	}
	for _, tc := range []struct {
		name, data, want string
	}{
		{"missing", `{"name":"x"}`, "lake: registry missing version field (supported: 1)"},
		{"null", `{"version":null,"name":"x"}`, "lake: registry missing version field (supported: 1)"},
		{"string", `{"version":"1","name":"x"}`, "lake: bad registry version field (supported: 1): "},
		{"fraction", `{"version":1.5,"name":"x"}`, "lake: bad registry version field (supported: 1): "},
		{"zero", `{"version":0,"name":"x"}`, "lake: unsupported registry version 0 (supported: 1)"},
		{"future", `{"version":2,"name":"x"}`, "lake: unsupported registry version 2 (supported: 1)"},
		{"not json", `registry? no.`, "lake: bad registry version field (supported: 1): "},
		{"trailing bytes", `{"version":1,"name":"x"} {}`, "lake: bad registry version field (supported: 1): "},
		{"bad document", `{"version":1,"name":7}`, "lake: bad registry: "},
		{"good", `{"version":1,"name":"x"}`, ""},
	} {
		var d doc
		err := DecodeVersioned([]byte(tc.data), 1, "lake", "registry", &d)
		switch {
		case tc.want == "" && (err != nil || d != doc{Version: 1, Name: "x"}):
			t.Errorf("%s: %+v, %v", tc.name, d, err)
		case tc.want != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.want)):
			t.Errorf("%s: %+v, %v, want an error starting %q", tc.name, d, err, tc.want)
		}
	}
}
