#!/bin/sh
# Allocation gate over the steady-state hot paths: runs the pinned
# benchmarks with -benchmem and fails when their allocs/op exceed the
# ceilings. The compiled matcher's contract is that noise-line
# rejection and arena-reuse scanning never touch the heap, and the
# generation engine's contract is that a warm genST trial — pure
# transition-table and chain-cache traversal — never does either; a
# regression here silently re-introduces the per-candidate allocation
# costs the evaluation and generation engines were rebuilt to remove.
# A whole Generate is held, on the three bench-scale inputs where windows
# reduce to the most distinct templates, to about twice what it allocates
# with templates kept as interned id sequences and trees built only for
# the candidates returned (what is left is the table's key strings, the
# transition rows and those trees); a tree per distinct window is 4.8–6.1
# million allocations on each, an order of magnitude over any ceiling.
# The lake's MatchSample is held to one ceiling at two sample sizes: it
# allocates a line index and a copy of the registry's entry list (2), and
# nothing per record or per format — a registry entry's matchers are
# compiled when it is registered. A regression re-materializes records on
# the crawl's match stage, or compiles every format per call (15).
# Refinement's unit of cost — compile one unfold variant, derive its scan
# from the scan kept of its parent, score it — allocates the matcher (its
# struct, program and array list) and the column types the score returns:
# four objects whatever the data size, since the derived scan and its
# column statistics are written into storage the round's scan cache owns.
# A regression goes back to a ScanResult or a column-stats table per
# variant, tens of thousands of times a round.
# The query engine's five shapes run at two table sizes against one
# ceiling of the form constant + per-block × blocks: its allocations are
# per query (plan, files, footers, groups, heap entries) and per block
# decoded (one string per column, one row slab per output batch), never
# per row — an operator that goes back to allocating per row adds a
# thousand a block and fails at either size.
# The apply path — a learned profile streamed over 16 MiB at the default
# 1 MiB shard, at one worker and at two — is held to constant + per-shard
# × 16: a batch allocates one set of record slabs (text, field values,
# array occurrences) per fill range and nothing per record or per field —
# its chunk is read into a buffer the run borrowed, and its line index,
# candidates, per-worker occurrence arenas and both header buffers are
# scratch the run grows once. At one worker the batch is one range; two
# workers cut it into eight and add the goroutines of a batch's two
# fan-outs (match, fill). A regression to one string per field is two
# million allocations over either ceiling; an arena or header buffer grown
# per batch is dozens a shard.
# The crawl of a lake of small files (forty records, 2–3 KB each, known
# formats, fresh store, checkpoints) is held by bytes, not objects, at two
# file counts to one ceiling of the form constant + per-file × files, about
# twice what it measures: the extraction scratch and the segment writer are
# borrowed per worker, so a file costs its sample, its records and its
# manifest and checkpoint entries — about 30 KB. Building them per file is
# over a mebibyte a file (a 1 MiB chunk buffer before the first record is
# read) and fails the gate at either count, twentyfold.
# The store's compaction runs at two table sizes against one ceiling of
# the form constant + per-file × files + per-block × blocks: it relocates
# encoded blocks, so it allocates per input file (descriptor, reader,
# decoded footer, copy buffer, the manifest's span) and per block only
# the footer entry it carries over. Replaying the rows instead — a
# string per column per block, a row slab per block, the distinct sets —
# is about four times either ceiling.
#
# Usage: sh scripts/bench_allocs.sh
set -eu
# dash (the usual /bin/sh) has no pipefail; enable it where the shell
# supports it so a failing producer can't vanish behind a pipe.
(set -o pipefail) 2>/dev/null && set -o pipefail || true

out=$(go test -run '^$' -bench 'BenchmarkScanNoiseReject|BenchmarkScanArenaReuse' \
	-benchmem -benchtime 100x ./internal/parser)
out="$out
$(go test -run '^$' -bench 'BenchmarkGenSTSteadyState' \
	-benchmem -benchtime 100x ./internal/generation)"
out="$out
$(go test -run '^$' -bench 'BenchmarkGenerationManyShapes' \
	-benchmem -benchtime 1x ./internal/generation)"
out="$out
$(go test -run '^$' -bench 'BenchmarkRefineVariantScore' \
	-benchmem -benchtime 100x ./internal/refine)"
out="$out
$(go test -run '^$' -bench 'BenchmarkMatchSample' \
	-benchmem -benchtime 100x ./internal/lake)"
out="$out
$(go test -run '^$' -bench 'BenchmarkStoreCompact' \
	-benchmem -benchtime 5x ./internal/lake)"
out="$out
$(go test -run '^$' -bench 'BenchmarkCrawlSmallFiles' \
	-benchmem -benchtime 5x ./internal/lake)"
out="$out
$(go test -run '^$' -bench 'BenchmarkQueryShapes' \
	-benchmem -benchtime 20x ./internal/query)"
out="$out
$(go test -run '^$' -bench 'BenchmarkStreamExtract16MBWorkers[12]$' \
	-benchmem -benchtime 3x .)"
echo "$out"

fail=0
# check_field <benchmark-name> <ceiling> <field-from-the-end> <unit>
# go test -benchmem line: name N ns/op [MB/s] B/op allocs/op
check_field() {
	line=$(echo "$out" | grep "^Benchmark$1\b" || true)
	if [ -z "$line" ]; then
		echo "bench-allocs: benchmark Benchmark$1 missing from output" >&2
		fail=1
		return
	fi
	got=$(echo "$line" | awk -v back="$3" '{print $(NF-back)}')
	if [ "$got" -gt "$2" ]; then
		echo "bench-allocs: Benchmark$1 = $got $4, ceiling $2" >&2
		fail=1
	else
		echo "bench-allocs: Benchmark$1 = $got $4 (ceiling $2): ok"
	fi
}

# check <benchmark-name> <max-allocs-per-op>
check() { check_field "$1" "$2" 1 allocs/op; }

# check_bytes <benchmark-name> <max-bytes-per-op>
check_bytes() { check_field "$1" "$2" 3 B/op; }

# check_blocks <shape> <allocs-per-query> <allocs-per-block>
check_blocks() {
	for blocks in 16 64; do
		check "QueryShapes/$1/blocks=$blocks" $(($2 + $3 * blocks))
	done
}

# check_compact <allocs-per-call> <allocs-per-file> <allocs-per-block>
check_compact() {
	for files in 30 90; do
		blocks=$((files * 3))
		check "StoreCompact/files=$files/blocks=$blocks" $(($1 + $2 * files + $3 * blocks))
	done
}

check ScanNoiseReject 0
check ScanArenaReuse 0
check GenSTSteadyState 0
check GenerationManyShapes/MacASL 3500
check GenerationManyShapes/LogFile5 350000
check GenerationManyShapes/Netstat 450000
check RefineVariantScore 4
check MatchSample/records=500 4
check MatchSample/records=8000 4
check_compact 150 60 2
check_blocks scan 400 12
check_blocks wide 250 12
check_blocks join 700 20
check_blocks topk 800 6
check_blocks groupby 450 3
check StreamExtract16MBWorkers1 $((60 + 5 * 16))
check StreamExtract16MBWorkers2 $((60 + 32 * 16))
# check_crawl <bytes-per-crawl> <bytes-per-file>
check_crawl() {
	for files in 24 96; do
		check_bytes "CrawlSmallFiles/files=$files" $(($1 + $2 * files))
	done
}
check_crawl $((1536 * 1024)) $((60 * 1024))

exit $fail
