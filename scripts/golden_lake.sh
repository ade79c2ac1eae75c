#!/bin/sh
# Golden-corpus check for the data-lake indexer: `datamaran index` over
# the checked-in fixture lake (testdata/lake — 3 formats x several
# files plus one unstructured file) must reproduce the committed
# report, registry and CSV outputs byte-for-byte, at several worker
# counts. A fresh `index -incremental` pass at the same worker counts
# must reproduce the committed registry and CSVs too; its report is the
# incremental form (resume annotations, whole-file totals) and is not
# diffed. Run with -update to regenerate the golden files after an
# intentional change.
set -eu
cd "$(dirname "$0")/.."
golden=testdata/lake_golden
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/datamaran" ./cmd/datamaran

if [ "${1:-}" = "-update" ]; then
    # Only this script's outputs: serve/ and query/ goldens belong to
    # serve_smoke.sh and golden_query.sh.
    rm -rf "$golden/csv" "$golden/report.txt" "$golden/registry.json"
    mkdir -p "$golden/csv"
    "$tmp/datamaran" index -q -workers 1 -registry "$golden/registry.json" \
        -o "$golden/csv" testdata/lake > "$golden/report.txt"
    echo "golden lake files regenerated under $golden"
    exit 0
fi

for w in 1 8; do
    out="$tmp/w$w"
    mkdir -p "$out/csv"
    "$tmp/datamaran" index -q -workers "$w" -registry "$out/registry.json" \
        -o "$out/csv" testdata/lake > "$out/report.txt"
    diff -u "$golden/report.txt" "$out/report.txt"
    diff -u "$golden/registry.json" "$out/registry.json"
    diff -r "$golden/csv" "$out/csv"

    inc="$tmp/inc$w"
    mkdir -p "$inc/csv"
    "$tmp/datamaran" index -q -incremental -workers "$w" -registry "$inc/registry.json" \
        -o "$inc/csv" testdata/lake > /dev/null
    diff -u "$golden/registry.json" "$inc/registry.json"
    diff -r "$golden/csv" "$inc/csv"
done
echo "golden lake corpus reproduced byte-for-byte (workers 1 and 8, plain and incremental)"
