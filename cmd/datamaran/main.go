// Command datamaran extracts structure from a log file with no
// supervision and writes the discovered templates plus the extracted
// relational tables.
//
// Usage:
//
//	datamaran [flags] <logfile>
//	datamaran index [flags] <dir>
//	datamaran serve [flags] <dir>
//	datamaran query [flags] <query>
//
// With -o DIR, one CSV file per extracted table is written there;
// otherwise tables go to stdout. The index subcommand crawls a
// directory tree (a data lake), discovering each log format once and
// applying cached profiles to every other file — see index.go. The
// serve subcommand runs the lake as a long-lived HTTP daemon with
// checkpointed incremental re-crawls — see serve.go. The query
// subcommand runs relational queries over the record store those
// crawls populate — see query.go.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"datamaran"
	"datamaran/internal/atomicfile"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "index" {
		runIndex(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		runServe(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "query" {
		runQuery(os.Args[2:])
		return
	}
	alpha := flag.Float64("alpha", 0.10, "minimum coverage threshold α (fraction)")
	maxSpan := flag.Int("L", 10, "maximum record span in lines")
	topM := flag.Int("M", 50, "templates retained after pruning")
	greedy := flag.Bool("greedy", false, "use greedy charset search instead of exhaustive")
	maxTypes := flag.Int("types", 8, "maximum number of record types to extract")
	outDir := flag.String("o", "", "directory for CSV output (default: stdout)")
	denorm := flag.Bool("denormalized", false, "emit the denormalized single-table form")
	typed := flag.Bool("typed", false, "emit denormalized tables with semantic type merging (IPs, times, ...)")
	saveProfile := flag.String("save-profile", "", "write the learned structure profile (JSON) to this file")
	useProfile := flag.String("profile", "", "skip discovery: apply a previously saved profile")
	stream := flag.Bool("stream", false, "read the file as a stream: discover on a bounded prefix instead of the whole file (bounded memory)")
	workers := flag.Int("workers", 0, "extraction parallelism (0 = all cores)")
	shardSize := flag.Int("shard-size", 0, "extraction shard size in bytes (0 = 1 MiB)")
	quiet := flag.Bool("q", false, "suppress the structure summary")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: datamaran [flags] <logfile>")
		flag.PrintDefaults()
		os.Exit(2)
	}

	opts := datamaran.Options{
		Alpha:          *alpha,
		MaxSpan:        *maxSpan,
		TopM:           *topM,
		MaxRecordTypes: *maxTypes,
		Workers:        *workers,
		ShardSize:      *shardSize,
	}
	if *greedy {
		opts.Search = datamaran.Greedy
	}

	t0 := time.Now()
	var res *datamaran.Result
	var err error
	switch {
	case *useProfile != "":
		// Nothing is discovered, so reading the file whole would change
		// no byte of output: a profile is always applied as a stream.
		res, err = streamWithSavedProfile(flag.Arg(0), *useProfile, opts)
	case *stream:
		res, err = streamFile(flag.Arg(0), opts)
	default:
		res, err = datamaran.ExtractFile(flag.Arg(0), opts)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "datamaran: %v\n", err)
		os.Exit(1)
	}
	if *saveProfile != "" {
		if err := writeProfile(res, *saveProfile); err != nil {
			fmt.Fprintf(os.Stderr, "datamaran: %v\n", err)
			os.Exit(1)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "profile saved to %s\n", *saveProfile)
		}
	}

	if !*quiet {
		fmt.Fprintf(os.Stderr, "extracted %d record type(s) in %v (%d noise lines)\n",
			len(res.Structures), time.Since(t0).Round(time.Millisecond), len(res.NoiseLines))
		if tm := res.Timing; tm.Generation > 0 { // zero when a profile supplied the templates
			fmt.Fprintf(os.Stderr, "  generation %v, pruning %v, evaluation %v (refinement %v), extraction %v\n",
				tm.Generation.Round(time.Millisecond), tm.Pruning.Round(time.Microsecond),
				tm.Evaluation.Round(time.Millisecond), tm.Refinement.Round(time.Millisecond),
				tm.Extraction.Round(time.Millisecond))
		}
		for _, s := range res.Structures {
			kind := "single-line"
			if s.MultiLine {
				kind = "multi-line"
			}
			fmt.Fprintf(os.Stderr, "  type %d (%s, %d records, %d columns): %s\n",
				s.Type, kind, s.Records, s.Columns, s.Template)
		}
	}

	tables := res.TablesWith(datamaran.TablesOptions{Denormalized: *denorm, Typed: *typed})
	for _, t := range tables {
		if *outDir == "" {
			fmt.Printf("-- table %s --\n", t.Name)
			if err := t.WriteCSV(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "datamaran: %v\n", err)
				os.Exit(1)
			}
			continue
		}
		path := filepath.Join(*outDir, t.Name+".csv")
		if err := writeTableCSV(path, t); err != nil {
			fmt.Fprintf(os.Stderr, "datamaran: %v\n", err)
			os.Exit(1)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "  wrote %s (%d rows)\n", path, len(t.Rows))
		}
	}
}

// streamFile extracts the file as a stream: it is consumed shard by shard
// instead of being read whole, and discovery sees a bounded prefix.
func streamFile(path string, opts datamaran.Options) (*datamaran.Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return datamaran.ExtractReader(f, opts)
}

// streamWithSavedProfile applies a saved profile over the file.
func streamWithSavedProfile(logPath, profilePath string, opts datamaran.Options) (*datamaran.Result, error) {
	p, err := loadProfile(profilePath)
	if err != nil {
		return nil, err
	}
	return applyProfile(logPath, p, opts)
}

// applyProfile applies p over the file as a single-pass stream: no
// discovery and no whole-file buffering.
func applyProfile(path string, p *datamaran.Profile, opts datamaran.Options) (*datamaran.Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return datamaran.ExtractReaderWithProfile(f, p, opts)
}

// writeTableCSV writes one table to a new file at path.
func writeTableCSV(path string, t *datamaran.Table) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// loadProfile reads a saved profile from disk.
func loadProfile(path string) (*datamaran.Profile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var p datamaran.Profile
	if err := json.Unmarshal(raw, &p); err != nil {
		return nil, err
	}
	return &p, nil
}

// writeProfile saves the learned structure profile as JSON. The write is
// atomic: an interrupted or out-of-space save leaves a profile already at
// path as it was.
func writeProfile(res *datamaran.Result, path string) error {
	return atomicfile.SaveJSON(path, res.Profile())
}
