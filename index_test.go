package datamaran

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const fixtureLake = "testdata/lake"

func TestIndexDirFixtureLake(t *testing.T) {
	regPath := filepath.Join(t.TempDir(), "registry.json")
	res, err := IndexDir(fixtureLake, IndexOptions{RegistryPath: regPath})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summary
	if s.FormatsKnown != 4 || s.FormatsDiscovered != 4 {
		t.Fatalf("fixture lake formats: %+v", s)
	}
	if s.Files != 12 || s.Structured != 11 || s.Unstructured != 1 || s.Failed != 0 {
		t.Fatalf("fixture lake files: %+v", s)
	}
	if s.CacheHits != 7 {
		t.Fatalf("fixture lake cache hits: %+v", s)
	}
	// Each format discovered exactly once — the acceptance criterion.
	perFP := map[string]int{}
	for _, f := range res.Files {
		if f.Discovered {
			perFP[f.Fingerprint]++
		}
	}
	if len(perFP) != 4 {
		t.Fatalf("discoveries per format: %v", perFP)
	}
	for fp, n := range perFP {
		if n != 1 {
			t.Fatalf("format %s discovered %d times", fp, n)
		}
	}
	// The registry persisted; a second run reuses every profile.
	if _, err := os.Stat(regPath); err != nil {
		t.Fatalf("registry not written: %v", err)
	}
	res2, err := IndexDir(fixtureLake, IndexOptions{RegistryPath: regPath})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Summary.FormatsDiscovered != 0 || res2.Summary.CacheHits != 11 {
		t.Fatalf("second run should skip all discovery: %+v", res2.Summary)
	}
	for _, f := range res2.Formats {
		if f.Discovered {
			t.Fatalf("format %s marked discovered on second run", f.Fingerprint)
		}
		if f.Files != 2*filesOfFormat(res, f.Fingerprint) {
			t.Fatalf("format %s claim count %d after two runs", f.Fingerprint, f.Files)
		}
	}
}

func filesOfFormat(res *IndexResult, fp string) int {
	for _, f := range res.Formats {
		if f.Fingerprint == fp {
			return f.Files
		}
	}
	return 0
}

// indexDigest renders everything observable about an IndexDir run
// except timings.
func indexDigest(t *testing.T, res *IndexResult) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "summary %+v\n", res.Summary)
	for _, f := range res.Formats {
		fmt.Fprintf(&b, "format %s files=%d discovered=%v templates=%v\n",
			f.Fingerprint, f.Files, f.Discovered, f.Templates)
	}
	for _, f := range res.Files {
		fmt.Fprintf(&b, "file %s size=%d fp=%s disc=%v unstructured=%v err=%v\n",
			f.Path, f.Size, f.Fingerprint, f.Discovered, f.Unstructured, f.Err)
		if f.Result == nil {
			continue
		}
		for _, s := range f.Result.Structures {
			fmt.Fprintf(&b, "  structure %+v\n", s)
		}
		for _, r := range f.Result.Records {
			fmt.Fprintf(&b, "  record %+v\n", r)
		}
		fmt.Fprintf(&b, "  noise %v\n", f.Result.NoiseLines)
		for _, tb := range f.Result.TablesWith(TablesOptions{}) {
			fmt.Fprintf(&b, "  table %s cols=%v rows=%d\n", tb.Name, tb.Columns, len(tb.Rows))
			var csv strings.Builder
			if err := tb.WriteCSV(&csv); err != nil {
				t.Fatal(err)
			}
			b.WriteString(csv.String())
		}
	}
	return b.String()
}

func TestIndexDirWorkerEquivalence(t *testing.T) {
	// workers=1 and workers=8 must agree byte-for-byte on every output,
	// including the persisted registry — the single-CPU-safe form of
	// the parallelism claim.
	var want, wantReg string
	for _, workers := range []int{1, 8} {
		regPath := filepath.Join(t.TempDir(), "registry.json")
		res, err := IndexDir(fixtureLake, IndexOptions{RegistryPath: regPath, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got := indexDigest(t, res)
		raw, err := os.ReadFile(regPath)
		if err != nil {
			t.Fatal(err)
		}
		if workers == 1 {
			want, wantReg = got, string(raw)
			continue
		}
		if string(raw) != wantReg {
			t.Fatalf("workers=%d registry differs from workers=1", workers)
		}
		if got != want {
			t.Fatalf("workers=%d results differ from workers=1", workers)
		}
	}
}

func TestIndexDirFormatsUsableAsProfiles(t *testing.T) {
	res, err := IndexDir(fixtureLake, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Formats {
		p := f.Profile()
		if p.Fingerprint() != f.Fingerprint {
			t.Fatalf("profile fingerprint %s != format %s", p.Fingerprint(), f.Fingerprint)
		}
	}
	// Applying a format's profile to one of its member files reproduces
	// the indexer's result for that file.
	var member IndexedFile
	for _, f := range res.Files {
		if !f.Discovered && !f.Unstructured && f.Err == nil {
			member = f
			break
		}
	}
	if member.Path == "" {
		t.Fatal("no cached member file in fixture lake")
	}
	data, err := os.ReadFile(filepath.Join(fixtureLake, member.Path))
	if err != nil {
		t.Fatal(err)
	}
	var prof *Profile
	for _, f := range res.Formats {
		if f.Fingerprint == member.Fingerprint {
			prof = f.Profile()
		}
	}
	direct, err := ExtractWithProfile(data, prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct.Records) != len(member.Result.Records) {
		t.Fatalf("direct profile apply: %d records, indexer got %d",
			len(direct.Records), len(member.Result.Records))
	}
}

func TestIndexDirMissingDir(t *testing.T) {
	if _, err := IndexDir(filepath.Join(t.TempDir(), "absent"), IndexOptions{}); err == nil {
		t.Fatal("missing directory should error")
	}
}
