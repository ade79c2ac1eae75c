// The index subcommand: crawl a directory tree of heterogeneous log
// files, discover each format's structure exactly once, and cluster the
// files by profile via a persistent registry.
//
// Usage:
//
//	datamaran index [flags] <dir>
//
// The report on stdout (formats, per-file assignments, summary) is
// deterministic: byte-identical across runs and worker counts. With
// -o DIR, the extracted tables of every structured file are written as
// CSVs there, one file per table, named <path>.<table>.csv with path
// separators flattened to "__".
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"datamaran"
)

func runIndex(args []string) {
	fs := flag.NewFlagSet("index", flag.ExitOnError)
	registry := fs.String("registry", "", "persistent profile registry (JSON); loaded before the crawl, updated after")
	workers := fs.Int("workers", 0, "files extracted concurrently (0 = all cores; never changes output)")
	sample := fs.Int("sample", 0, "per-file classification sample in bytes (0 = 256 KiB)")
	threshold := fs.Float64("threshold", 0, "min sample coverage for a cached profile to claim a file (0 = 0.5)")
	alpha := fs.Float64("alpha", 0.10, "minimum coverage threshold α for discovery (fraction)")
	outDir := fs.String("o", "", "directory for per-file CSV output")
	incremental := fs.Bool("incremental", false, "persist per-file checkpoints so the next run resumes from them, and print the incremental report (requires -registry)")
	checkpoints := fs.String("checkpoints", "", "checkpoint store path (default: checkpoints.json next to the registry)")
	store := fs.String("store", "", "record store directory for later `datamaran query` runs")
	quiet := fs.Bool("q", false, "suppress the progress note on stderr")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: datamaran index [flags] <dir>")
		fs.PrintDefaults()
	}
	fs.Parse(args)

	if fs.NArg() != 1 {
		fs.Usage()
		os.Exit(2)
	}
	cpPath := ""
	if *incremental {
		if *registry == "" {
			fmt.Fprintln(os.Stderr, "datamaran index: -incremental requires -registry (checkpoints refer to registered profiles)")
			os.Exit(2)
		}
		cpPath = *checkpoints
		if cpPath == "" {
			cpPath = filepath.Join(filepath.Dir(*registry), "checkpoints.json")
		}
	} else if *checkpoints != "" {
		fmt.Fprintln(os.Stderr, "datamaran index: -checkpoints only applies with -incremental")
		os.Exit(2)
	}

	t0 := time.Now()
	res, err := datamaran.IndexDir(fs.Arg(0), datamaran.IndexOptions{
		Extract:        datamaran.Options{Alpha: *alpha},
		RegistryPath:   *registry,
		Workers:        *workers,
		SampleBytes:    *sample,
		MatchThreshold: *threshold,
		CheckpointPath: cpPath,
		StorePath:      *store,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "datamaran index: %v\n", err)
		os.Exit(1)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "indexed %d file(s) in %v\n",
			res.Summary.Files, time.Since(t0).Round(time.Millisecond))
	}

	printIndexReport(res, *incremental)

	if *outDir != "" {
		if err := writeIndexCSVs(res, fs.Arg(0), *outDir); err != nil {
			fmt.Fprintf(os.Stderr, "datamaran index: %v\n", err)
			os.Exit(1)
		}
	}
	if res.Summary.Failed > 0 {
		os.Exit(1)
	}
}

// printIndexReport writes the deterministic crawl report: formats in
// registry order, files in sorted path order, then the summary line.
// Record and noise counts span the whole file, even when this run only
// extracted the grown tail (or, for unchanged files, nothing at all).
// The incremental form adds resume annotations; the plain form is
// byte-stable against the committed goldens.
func printIndexReport(res *datamaran.IndexResult, incremental bool) {
	fmt.Printf("formats (%d):\n", len(res.Formats))
	for _, f := range res.Formats {
		origin := "cached"
		if f.Discovered {
			origin = "discovered"
		}
		fmt.Printf("  format %s  files=%d  %s\n", f.Fingerprint, f.Files, origin)
		for i, t := range f.Templates {
			fmt.Printf("    type %d: %s\n", i, t)
		}
	}
	fmt.Printf("files (%d):\n", len(res.Files))
	for _, f := range res.Files {
		switch {
		case f.Err != nil:
			fmt.Printf("  %s  failed: %v\n", f.Path, f.Err)
		case f.Unstructured:
			fmt.Printf("  %s  unstructured\n", f.Path)
		default:
			fmt.Printf("  %s  format=%s  records=%d  noise=%d  %s\n",
				f.Path, f.Fingerprint, f.TotalRecords, f.TotalNoise, via(f, incremental))
		}
	}
	s := res.Summary
	fmt.Printf("summary: files=%d structured=%d unstructured=%d failed=%d formats=%d discovered=%d cache-hits=%d",
		s.Files, s.Structured, s.Unstructured, s.Failed, s.FormatsKnown, s.FormatsDiscovered, s.CacheHits)
	if incremental {
		fmt.Printf(" resumed=%d unchanged=%d", s.Resumed, s.Unchanged)
	}
	fmt.Println()
}

// via renders the handling column: how the file was classified and, in
// the incremental report, how its bytes were (re)extracted.
func via(f datamaran.IndexedFile, incremental bool) string {
	if incremental && (f.Resume == "resumed" || f.Resume == "unchanged") {
		return f.Resume
	}
	how := "cached"
	if f.Discovered {
		how = "discovered"
	}
	if incremental && f.Resume != "" {
		how += " (" + f.Resume + ")"
	}
	return how
}

// writeIndexCSVs writes the tables of every structured file under root
// into dir. The crawl keeps no records, so each file is extracted again
// with its format's profile, one file at a time; unchanged and resumed
// files get their whole-file tables like any other.
func writeIndexCSVs(res *datamaran.IndexResult, root, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	profiles := map[string]*datamaran.Profile{}
	for i := range res.Formats {
		profiles[res.Formats[i].Fingerprint] = res.Formats[i].Profile()
	}
	used := map[string]bool{}
	for _, f := range res.Files {
		p := profiles[f.Fingerprint] // nil for unstructured and failed files
		if p == nil {
			continue
		}
		result, err := applyProfile(filepath.Join(root, filepath.FromSlash(f.Path)), p, datamaran.Options{})
		if err != nil {
			return err
		}
		base := strings.ReplaceAll(f.Path, "/", "__")
		// Flattening can collide (a/b.log vs a literal a__b.log);
		// disambiguate deterministically — files arrive path-sorted.
		if used[base] {
			base += "-" + fmt.Sprintf("%x", sha256.Sum256([]byte(f.Path)))[:8]
		}
		used[base] = true
		for _, t := range result.TablesWith(datamaran.TablesOptions{}) {
			if err := writeTableCSV(filepath.Join(dir, base+"."+t.Name+".csv"), t); err != nil {
				return err
			}
		}
	}
	return nil
}
