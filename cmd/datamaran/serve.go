// The serve subcommand: a long-running daemon over a data-lake
// directory. It exposes the profile registry and the extraction engine
// over HTTP and re-crawls the lake incrementally on demand, so the
// structure discovered once keeps serving every later request.
//
// Usage:
//
//	datamaran serve [flags] <dir>
//
// Endpoints (see internal/serve):
//
//	GET  /healthz                     liveness
//	GET  /v1/status                   serving stats
//	GET  /v1/formats                  registry listing
//	GET  /v1/formats/{fp}             one profile (feed it back via -profile)
//	POST /v1/extract?format={fp}      extract the request body (ndjson/csv)
//	GET  /v1/lake/extract?path=...    extract a lake file
//	POST /v1/reindex[?format={fp}]    incremental crawl + persist (optionally
//	                                  scoped to one format; scoped crawls of
//	                                  different formats run concurrently)
//	GET  /v1/query?q=...              relational query over the record store
//	                                  (&explain=plan|analyze for the plan)
//	GET  /metrics                     Prometheus text metrics
//
// Registry, checkpoints and the record store default to
// <dir>/.datamaran/ — a hidden directory the crawler skips, so the
// daemon's state never indexes itself.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"datamaran/internal/core"
	"datamaran/internal/serve"
)

func runServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8473", "listen address (port 0 picks a free port)")
	registry := fs.String("registry", "", "profile registry path (default <dir>/.datamaran/registry.json)")
	checkpoints := fs.String("checkpoints", "", "checkpoint store path (default <dir>/.datamaran/checkpoints.json)")
	store := fs.String("store", "", "record store directory for /v1/query (default <dir>/.datamaran/store)")
	workers := fs.Int("workers", 0, "extraction parallelism (0 = all cores; never changes output)")
	alpha := fs.Float64("alpha", 0.10, "minimum coverage threshold α for discovery (fraction)")
	reindex := fs.Bool("reindex", false, "run one incremental crawl before accepting requests")
	maxBodyMB := fs.Int("max-body-mb", 0, "request body cap in MiB (0 = unlimited; overruns get 413)")
	requestTimeout := fs.Duration("request-timeout", 0, "per-request deadline (0 = unlimited; overruns get 504)")
	maxInFlight := fs.Int("max-inflight", 0, "in-flight request bound (0 = unlimited; excess load gets 429 + Retry-After)")
	logFormat := fs.String("log-format", "text", "structured log form on stderr: text or json")
	pprofAddr := fs.String("pprof", "", "also serve net/http/pprof on this address (e.g. 127.0.0.1:6060); separate listener, never exposed on -addr")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: datamaran serve [flags] <dir>")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 1 {
		fs.Usage()
		os.Exit(2)
	}
	dir := fs.Arg(0)

	// All diagnostics are structured slog events on stderr; stdout stays
	// reserved for the machine-read "listening on" line.
	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		fatalf("serve: unknown log format %q (want text or json)", *logFormat)
	}
	logger := slog.New(handler)

	if *registry == "" || *checkpoints == "" || *store == "" {
		state := filepath.Join(dir, ".datamaran")
		if err := os.MkdirAll(state, 0o755); err != nil {
			fatalf("serve: %v", err)
		}
		if *registry == "" {
			*registry = filepath.Join(state, "registry.json")
		}
		if *checkpoints == "" {
			*checkpoints = filepath.Join(state, "checkpoints.json")
		}
		if *store == "" {
			*store = filepath.Join(state, "store")
		}
	}

	srv, err := serve.New(serve.Config{
		Root:           dir,
		RegistryPath:   *registry,
		CheckpointPath: *checkpoints,
		StorePath:      *store,
		Workers:        *workers,
		Core:           core.Options{Alpha: *alpha},
		MaxBodyBytes:   int64(*maxBodyMB) << 20,
		RequestTimeout: *requestTimeout,
		MaxInFlight:    *maxInFlight,
		Logger:         logger,
	})
	if err != nil {
		fatalf("serve: %v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *reindex {
		t0 := time.Now()
		res, err := srv.Reindex(ctx, "")
		if err != nil {
			fatalf("serve: initial reindex: %v", err)
		}
		s := res.Summary
		logger.Info("initial reindex",
			"files", s.Files,
			"formats", s.FormatsKnown,
			"resumed", s.Resumed,
			"unchanged", s.Unchanged,
			"duration", time.Since(t0).Round(time.Millisecond).String())
	}

	// The profiling listener is separate from the API listener on
	// purpose: pprof exposes stacks and heap contents, so it binds only
	// where explicitly asked and never rides along on -addr.
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fatalf("serve: pprof: %v", err)
		}
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		logger.Info("pprof listening", "addr", pln.Addr().String())
		go func() {
			if err := http.Serve(pln, pmux); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof server", "err", err.Error())
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatalf("serve: %v", err)
	}
	// The resolved address goes to stdout so scripts binding port 0 can
	// read where we actually landed.
	fmt.Printf("listening on http://%s\n", ln.Addr())

	hs := &http.Server{Handler: srv.Handler()}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatalf("serve: %v", err)
		}
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutdownCtx); err != nil {
			hs.Close()
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "datamaran "+format+"\n", args...)
	os.Exit(1)
}
