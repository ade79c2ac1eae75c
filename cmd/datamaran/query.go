// The query subcommand: run a relational query over a lake's record
// store — the per-format columnar segments `datamaran index -store` and
// `datamaran serve` write during their crawls.
//
// Usage:
//
//	datamaran query [flags] <query>
//
// The query source is one of:
//
//	-lake DIR     a lake directory (store under DIR/.datamaran/store,
//	              built by crawling the lake if absent)
//	-store DIR    an explicit record-store directory
//	-server URL   a running daemon's /v1/query endpoint
//
// All three produce byte-identical output for the same store and query
// — the daemon streams through the same writers this command uses.
//
// The query form (see datamaran.Query):
//
//	SELECT cols | aggregates | * FROM table [AS alias], ...
//	[WHERE pred AND ...] [GROUP BY cols] [ORDER BY expr [DESC], ...] [LIMIT n]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"datamaran"
)

func runQuery(args []string) {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	lakeDir := fs.String("lake", "", "lake directory (record store under <dir>/.datamaran/store, built if absent)")
	storeDir := fs.String("store", "", "record store directory (overrides -lake)")
	server := fs.String("server", "", "base URL of a running datamaran serve daemon (e.g. http://127.0.0.1:8473)")
	outFile := fs.String("o", "", "output file (default stdout)")
	output := fs.String("output", "ndjson", "output form: ndjson or csv")
	tables := fs.Bool("tables", false, "list the store's tables (name, columns, rows, segments) from the manifest — no scan — instead of running a query")
	explain := fs.String("explain", "", "instead of results, emit the query plan: \"plan\" (no execution, deterministic) or \"analyze\" (executes; adds per-operator rows, batches, timings and blocks decoded/pruned)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: datamaran query [flags] <query>")
		fmt.Fprintln(os.Stderr, "       datamaran query [flags] -tables")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	want := 1
	if *tables {
		want = 0
	}
	if fs.NArg() != want {
		fs.Usage()
		os.Exit(2)
	}
	text := ""
	if !*tables {
		text = fs.Arg(0)
	}
	if *output != "ndjson" && *output != "csv" {
		fatalf("query: unknown output %q (want ndjson or csv)", *output)
	}
	switch *explain {
	case "", "plan", "analyze":
	default:
		fatalf("query: unknown explain mode %q (want plan or analyze)", *explain)
	}
	sources := 0
	for _, s := range []string{*lakeDir, *storeDir, *server} {
		if s != "" {
			sources++
		}
	}
	if sources != 1 {
		fatalf("query: exactly one of -lake, -store or -server is required")
	}

	w := io.Writer(os.Stdout)
	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			fatalf("query: %v", err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fatalf("query: %v", err)
			}
		}()
		w = f
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *server != "" {
		var err error
		if *tables {
			err = tablesServer(ctx, w, *server, *output)
		} else {
			err = queryServer(ctx, w, *server, text, *output, *explain)
		}
		if err != nil {
			fatalf("query: %v", err)
		}
		return
	}
	store := *storeDir
	if store == "" {
		// Lake mode shares the daemon's default state layout under
		// <dir>/.datamaran/, so a store built here is the one a later
		// `datamaran serve` (or incremental index) run extends. A lake
		// nobody has crawled with a store yet gets one now.
		state := filepath.Join(*lakeDir, ".datamaran")
		store = filepath.Join(state, "store")
		if _, err := os.Stat(filepath.Join(store, "manifest.json")); os.IsNotExist(err) {
			fmt.Fprintf(os.Stderr, "datamaran query: no record store under %s; crawling the lake to build one\n", state)
			if _, err := datamaran.IndexDirContext(ctx, *lakeDir, datamaran.IndexOptions{
				RegistryPath:   filepath.Join(state, "registry.json"),
				CheckpointPath: filepath.Join(state, "checkpoints.json"),
				StorePath:      store,
			}); err != nil {
				fatalf("query: building record store: %v", err)
			}
		}
	}
	if *tables {
		stats, err := datamaran.StoreTables(store)
		if err != nil {
			fatalf("query: %v", err)
		}
		if err := writeTables(w, stats, *output); err != nil {
			fatalf("query: %v", err)
		}
		return
	}
	rows, err := datamaran.Query(ctx, text, datamaran.QueryOptions{StorePath: store, Explain: *explain})
	if err != nil {
		fatalf("query: %v", err)
	}
	defer rows.Close()
	if *output == "csv" {
		err = rows.WriteCSV(w)
	} else {
		err = rows.WriteNDJSON(w)
	}
	if err != nil {
		fatalf("query: %v", err)
	}
}

// writeTables renders the table listing. CSV is a fixed four-column
// header plus one line per table; NDJSON is one object per table. Table
// names are hex fingerprints, so no quoting is ever needed.
func writeTables(w io.Writer, stats []datamaran.TableStat, output string) error {
	if output == "csv" {
		if _, err := fmt.Fprintln(w, "table,columns,rows,segments"); err != nil {
			return err
		}
		for _, t := range stats {
			if _, err := fmt.Fprintf(w, "%s,%d,%d,%d\n", t.Name, t.Columns, t.Rows, t.Segments); err != nil {
				return err
			}
		}
		return nil
	}
	enc := json.NewEncoder(w)
	for _, t := range stats {
		if err := enc.Encode(struct {
			Name     string `json:"name"`
			Columns  int    `json:"columns"`
			Rows     int    `json:"rows"`
			Segments int    `json:"segments"`
		}{t.Name, t.Columns, t.Rows, t.Segments}); err != nil {
			return err
		}
	}
	return nil
}

// tablesServer lists tables from a daemon's /v1/status, which carries
// the same manifest-held counts, then renders them exactly like the
// local path.
func tablesServer(ctx context.Context, w io.Writer, server, output string) error {
	u := strings.TrimSuffix(server, "/") + "/v1/status"
	req, err := http.NewRequestWithContext(ctx, "GET", u, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	var status struct {
		Tables []datamaran.TableStat `json:"tables"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		return err
	}
	return writeTables(w, status.Tables, output)
}

// queryServer streams /v1/query from a daemon — the bytes on the wire
// are already the canonical writer output, so they pass through
// untouched.
func queryServer(ctx context.Context, w io.Writer, server, text, output, explain string) error {
	u := strings.TrimSuffix(server, "/") + "/v1/query?q=" + url.QueryEscape(text) + "&output=" + url.QueryEscape(output)
	if explain != "" {
		u += "&explain=" + url.QueryEscape(explain)
	}
	req, err := http.NewRequestWithContext(ctx, "GET", u, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	_, err = io.Copy(w, resp.Body)
	return err
}
