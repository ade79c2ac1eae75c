// Datalake: navigate a directory tree of heterogeneous log files — the
// paper's headline scenario. Many files share a handful of formats, so
// structure should be discovered once per format and reused everywhere:
// IndexDir samples each new file, matches it against the profile
// registry, and only the first file of a format pays for discovery;
// every sibling runs the one-pass profile-apply fast path. A second
// crawl with the persisted registry discovers nothing at all.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"datamaran"
	"datamaran/internal/lake/laketest"
)

// buildLake writes a small lake: three formats spread over nine files
// plus one unstructured notes file. The formats come from the shared
// laketest corpus; one rng per file index feeds all three formats, so
// the bytes are a pure function of the file index.
func buildLake(root string) error {
	verbs := []string{"GET", "PUT", "POST"}
	states := []string{"DONE", "FAILED"}
	write := func(rel, content string) error {
		p := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			return err
		}
		return os.WriteFile(p, []byte(content), 0o644)
	}
	for f := 1; f <= 3; f++ {
		rng := rand.New(rand.NewSource(int64(f)))
		var jobs, reqs, metrics strings.Builder
		for i := 0; i < 80; i++ {
			laketest.AppendJob(&jobs, rng, 100000, 5, states)
			laketest.AppendRequest(&reqs, rng, verbs, 10000, []int{200, 404, 500})
			laketest.AppendMetric(&metrics, rng)
		}
		if err := write(fmt.Sprintf("scheduler/jobs-%d.log", f), jobs.String()); err != nil {
			return err
		}
		if err := write(fmt.Sprintf("edge/requests-%d.log", f), reqs.String()); err != nil {
			return err
		}
		if err := write(fmt.Sprintf("telemetry/metrics-%d.log", f), metrics.String()); err != nil {
			return err
		}
	}
	return write("NOTES.txt", laketest.Prose("telemetry",
		"scheduler/ holds the job dumps -- multi-line, one stanza per job",
		"edge/ is the request tier; status codes are plain integers"))
}

func main() {
	root, err := os.MkdirTemp("", "datalake-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(root)
	if err := buildLake(root); err != nil {
		log.Fatal(err)
	}
	registry := filepath.Join(root, ".registry.json")

	opts := datamaran.IndexOptions{RegistryPath: registry}
	res, err := datamaran.IndexDir(root, opts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("first crawl: %d files, %d formats discovered, %d cache hits\n",
		res.Summary.Files, res.Summary.FormatsDiscovered, res.Summary.CacheHits)
	for _, f := range res.Formats {
		fmt.Printf("  format %s (%d files):\n", f.Fingerprint, f.Files)
		for i, tpl := range f.Templates {
			fmt.Printf("    type %d: %s\n", i, tpl)
		}
	}
	for _, f := range res.Files {
		switch {
		case f.Unstructured:
			fmt.Printf("  %-26s unstructured\n", f.Path)
		case f.Err != nil:
			fmt.Printf("  %-26s failed: %v\n", f.Path, f.Err)
		default:
			how := "cached profile"
			if f.Discovered {
				how = "full discovery"
			}
			fmt.Printf("  %-26s %d records via %s\n", f.Path, f.TotalRecords, how)
		}
	}

	// The registry persisted: a second crawl discovers nothing.
	res2, err := datamaran.IndexDir(root, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("second crawl: %d formats discovered, %d cache hits (registry reused)\n",
		res2.Summary.FormatsDiscovered, res2.Summary.CacheHits)

	// Every format's profile is a first-class Profile, usable with the
	// ExtractWithProfile family on files that never went through IndexDir.
	if len(res.Formats) == 0 {
		log.Fatal("no formats discovered")
	}
	p := res.Formats[0].Profile()
	fmt.Printf("profile %s round-trips through the registry and the streaming API\n", p.Fingerprint())
}
