# Datamaran build/test entry points. CI (.github/workflows/ci.yml) runs
# exactly these targets, so local runs reproduce CI. Every gate is a Go
# test: the goldens (cmd/datamaran's runner drives the CLI and the serve
# daemon over the fixture lake) and the allocation ceilings (each beside
# its benchmark) run under test and test-short alike.

GO ?= go

.PHONY: build test test-short test-race bench lint fmt staticcheck bench-quick fuzz-smoke golden-update

build:
	$(GO) build ./...

# The full suite regenerates the paper experiments and takes several
# minutes; CI and quick local iteration use test-short, which trims the
# experiments but keeps every golden and allocation ceiling.
test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Race job over the concurrent packages (parser fan-out, extraction
# engine, chunk reader, lake crawl and its state transactions with the
# atomic file writer under them, incremental follow, serve daemon)
# plus the generation/template hot path (single-goroutine, but its oracle
# equivalence suite must also hold under the race runtime's different
# allocation and scheduling behavior), the query engine (its
# join-order property suite must hold under the race runtime too) and
# the evaluation step (score, refine, core: one scan cache reused by
# every candidate of a round, unfold variants scored from scans derived
# from their parent's, held to the exhaustive fresh-scan oracle on a
# trimmed set of inputs). The allocation ceilings skip under -race.
test-race:
	$(GO) test -race -short ./internal/parser ./internal/pipeline ./internal/textio ./internal/atomicfile ./internal/lake ./internal/follow ./internal/serve ./internal/query ./internal/obsv ./internal/generation ./internal/template ./internal/score ./internal/refine ./internal/core .

bench:
	$(GO) test -bench=. -benchmem -run '^$$' .

# The benchmark (bench/, declared by BENCHMARK.json; see bench/README.md)
# is a module of its own, so `go build ./... && go test ./...` at the root
# never compiles it: this target does, then runs every workload once in
# quick form, which exits 1 on any failed or incorrect operation.
bench-quick:
	cd bench && $(GO) vet . && $(GO) test .
	bash bench/run.sh -quick

# Fuzz smoke: run each native fuzz target briefly so CI exercises the
# generation-engine oracle (FuzzGenerate pins the shape-interned engine
# to the reference, at spans up to 12 lines and at spans of 1<<25 to
# 1<<40, past any input's line count, which the engine must bound by the
# lines there are without sizing anything by the span), the id-level
# reducer generation runs on (FuzzReduce holds it to the tree reducer: Build of the reduced ids ≡ templatetest.Reduce, what
# the ids answer ≡ what the tree answers, equal ids ⟺ equal keys), the
# compiled matcher (FuzzMatcher: on a reduced fuzz record and its full and
# partial unfolds over fuzz data, MatchEnds ≡ the tree oracle's
# end/ok/truncated at every line start, AppendRecord ≡ its occurrences,
# the one-pass MatchLines' truncated flag ≡ MatchEnds' and its kept
# occurrences ≡ AppendRecord's, the one-pass ScanInto ≡ its scan,
# Residue ≡ its noise lines, and an unfold's scan derived from the
# reduced record's by DeriveScan ≡ the unfold's own ScanInto wherever the
# derivation applies, which it does exactly when the unfold keeps the stop
# bytes and its array neither sits in nor holds an array), the
# refinement lower bound (FuzzRefineLowerBound: nothing Refine scores
# undercuts the noise floor evaluation prunes its candidates by), the
# unfold variants refinement scores (FuzzUnfoldVariant: on the same
# candidates and two rounds deep, the path-copied tree ≡ Clone +
# Normalize, and the matcher spliced from the parent's program has the
# length, columns and arrays of, and scans exactly as, the matcher
# compiled from that tree), the segment reader on hostile bytes (FuzzSegmentScan: no panic, no
# allocation out of proportion to the file, row view ≡ batch view,
# compaction's splice refuses the file or reproduces its rows, and the
# retired v1 magic is refused), the store's manifest loader (FuzzManifest:
# arbitrary manifest.json — the store refuses it or opens, lists,
# resolves and scans it without a panic, saves it byte-stable, and no
# scan, commit or compaction touches a file outside its directory), the
# registry and checkpoint loaders (FuzzRegistry, FuzzCheckpoints:
# arbitrary registry.json or checkpoints.json — no panic, every accepted
# entry meets the loader's rules, and Save → Load → Save is byte-stable), the
# segment writer (FuzzSegmentWriter: rows written from field spans ≡ the
# []string oracle's rows built by relational.Denormalizer.Row — segment
# bytes, kinds and distinct counts — over arrays, empty cells, separator
# and non-UTF-8 bytes, block boundaries and more than segDistinctCap
# values) and the profile loader plus the extraction engine behind it
# (FuzzProfileApply: arbitrary profile JSON × arbitrary data — no panic,
# slice door ≡ reader door at 64-byte shards ≡ the tree-walking oracle's
# residue chain) on fuzzer-mutated inputs, not just the committed
# corpora. The segment, manifest, registry, checkpoint and profile
# targets cap the minimizer, which would otherwise spend the whole ten
# seconds shrinking the first interesting input.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzGenerate$$' -fuzztime 10s ./internal/generation
	$(GO) test -run '^$$' -fuzz '^FuzzReduce$$' -fuzztime 10s ./internal/template
	$(GO) test -run '^$$' -fuzz '^FuzzMatcher$$' -fuzztime 10s ./internal/parser
	$(GO) test -run '^$$' -fuzz '^FuzzRefineLowerBound$$' -fuzztime 10s ./internal/refine
	$(GO) test -run '^$$' -fuzz '^FuzzUnfoldVariant$$' -fuzztime 10s ./internal/refine
	$(GO) test -run '^$$' -fuzz '^FuzzSegmentScan$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/lake
	$(GO) test -run '^$$' -fuzz '^FuzzSegmentWriter$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/lake
	$(GO) test -run '^$$' -fuzz '^FuzzManifest$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/lake
	$(GO) test -run '^$$' -fuzz '^FuzzRegistry$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/lake
	$(GO) test -run '^$$' -fuzz '^FuzzCheckpoints$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/follow
	$(GO) test -run '^$$' -fuzz '^FuzzProfileApply$$' -fuzztime 10s -fuzzminimizetime 1s .

# Regenerate the goldens under testdata/lake_golden (the index report,
# registry and CSVs, the query results and plans, the serve responses)
# after an intentional change; review the diff before committing it.
golden-update:
	$(GO) test -count=1 ./cmd/datamaran -update

# Besides gofmt and vet: internal/atomicfile is the only non-test code
# (outside bench/, a module of its own) that may create a temp file — a
# file a reader may be looking at is written through it, so what a write
# guarantees is decided in one function.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	@out=$$(grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=bench --exclude-dir=.bench_build 'os\.CreateTemp(' . | grep -v '^\./internal/atomicfile/atomicfile\.go:'); \
	if [ -n "$$out" ]; then echo "os.CreateTemp outside internal/atomicfile (use atomicfile.Write or Stage):"; echo "$$out"; exit 1; fi
	$(GO) vet ./...

# staticcheck is optional locally (CI installs it); the target fails
# only on findings, not on a missing binary.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; skipping (CI runs it)"; fi

fmt:
	gofmt -w .
