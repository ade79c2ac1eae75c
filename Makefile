# Datamaran build/test entry points. CI (.github/workflows/ci.yml) runs
# exactly these targets, so local runs reproduce CI.

GO ?= go

.PHONY: build test test-short test-race bench lint fmt staticcheck bench-quick bench-allocs fuzz-smoke golden-lake golden-lake-update golden-query golden-query-update serve-smoke serve-smoke-update

build:
	$(GO) build ./...

# The full suite regenerates the paper experiments and takes several
# minutes; CI and quick local iteration use test-short.
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
# trimmed set of inputs).
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

# Allocation gate: the parser's steady-state scan benchmarks and the
# generation engine's warm genST benchmark must stay at 0 allocs/op
# (noise rejection, arena-reuse scanning and transition-table window
# accumulation never touch the heap), a whole Generate on the inputs
# with the most distinct templates must allocate per template interned
# and per candidate returned, never a tree per window, refinement's
# variant score — derived from its parent's kept scan — must allocate the
# variant's matcher and column types whatever the data size, the lake's
# MatchSample must allocate the same few objects at two sample sizes and
# compile nothing (a format is compiled when registered), the
# store's compaction must allocate per input file and per footer entry
# carried over, never per cell or per decoded column (it relocates
# blocks; it does not replay rows), the query engine's five
# shapes must allocate per query and per block decoded, never per row,
# the streaming apply path per shard at one worker and at two, never per
# record or field (the one-pass arenas and the two header buffers are
# scratch grown once), and a crawl of small files must cost each file its
# own bytes, not a fresh set of extraction and segment-writer buffers (a
# B/op ceiling of the form constant + per-file × files) — see
# scripts/bench_allocs.sh.
bench-allocs:
	sh scripts/bench_allocs.sh

# Fuzz smoke: run each native fuzz target briefly so CI exercises the
# generation-engine oracle (FuzzGenerate pins the shape-interned engine
# to the reference), the id-level reducer generation runs on (FuzzReduce
# holds it to the tree reducer: Build of the reduced ids ≡ Reduce, what
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
# segment reader on hostile bytes (FuzzSegmentScan: no panic, no
# allocation out of proportion to the file, row view ≡ batch view, and
# compaction's splice refuses the file or reproduces its rows) and
# the profile loader plus the extraction engine behind it
# (FuzzProfileApply: arbitrary profile JSON × arbitrary data — no panic,
# slice door ≡ reader door at 64-byte shards ≡ the tree-walking oracle's
# residue chain) on fuzzer-mutated inputs, not just the committed
# corpora. The segment and profile targets cap the minimizer, which
# would otherwise spend the whole ten seconds shrinking the first
# interesting input.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzGenerate$$' -fuzztime 10s ./internal/generation
	$(GO) test -run '^$$' -fuzz '^FuzzReduce$$' -fuzztime 10s ./internal/template
	$(GO) test -run '^$$' -fuzz '^FuzzMatcher$$' -fuzztime 10s ./internal/parser
	$(GO) test -run '^$$' -fuzz '^FuzzRefineLowerBound$$' -fuzztime 10s ./internal/refine
	$(GO) test -run '^$$' -fuzz '^FuzzSegmentScan$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/lake
	$(GO) test -run '^$$' -fuzz '^FuzzProfileApply$$' -fuzztime 10s -fuzzminimizetime 1s .

# Golden-corpus check: the fixture lake must index byte-identically to
# the committed outputs (see scripts/golden_lake.sh).
golden-lake:
	sh scripts/golden_lake.sh

golden-lake-update:
	sh scripts/golden_lake.sh -update

# Golden-query check: the query suite over the fixture lake's record
# store must reproduce the committed results byte-for-byte through the
# CLI at two crawl worker counts (see scripts/golden_query.sh; the
# in-process engine and the served /v1/query are pinned to the same
# goldens by TestQueryGoldens and serve-smoke).
golden-query:
	sh scripts/golden_query.sh

golden-query-update:
	sh scripts/golden_query.sh -update

# Serve-daemon smoke: start `datamaran serve` on the fixture lake, hit
# the /v1 routes (formats, both extract paths, reindex, one query) plus
# a failing route, and diff every response
# against testdata/lake_golden (see scripts/serve_smoke.sh).
serve-smoke:
	sh scripts/serve_smoke.sh

serve-smoke-update:
	sh scripts/serve_smoke.sh -update

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
