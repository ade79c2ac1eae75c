#!/bin/sh
# Serve-daemon smoke check: start `datamaran serve` over the fixture
# lake (testdata/lake) with fresh state, crawl it once, and verify the
# HTTP surface against the committed goldens:
#
#   GET /v1/formats                    == testdata/lake_golden/serve/formats.json
#   GET /v1/lake/extract (csv)         == the indexer's committed per-file CSV
#   POST /v1/extract (uploaded body)   == the same committed CSV
#   POST /v1/reindex (all unchanged)   == testdata/lake_golden/serve/reindex.json
#   POST /v1/reindex?format={fp}       scoped crawl: tagged summary, 404 unknown
#   GET /v1/query (group-by, csv)      == testdata/lake_golden/query/groupby.csv
#   GET /v1/query (top-k, csv)         == testdata/lake_golden/query/topk.csv
#   GET /v1/query?explain=plan         == testdata/lake_golden/query/explain_topk.csv
#   GET /v1/query?explain=analyze      per-operator stats + total line
#   GET /metrics                       Prometheus families, non-zero counters
#   GET /v1/status                     lists the store's tables
#   a failing route                    == the {"error":{code,message}} envelope
#
# A second daemon with tight limits then proves the production bounds
# over real HTTP: 429 + Retry-After under saturation (probes exempt)
# and 504 deadline_exceeded on a stalled request.
#
# Run with -update to regenerate the serve goldens after an intentional
# change (the CSV goldens belong to scripts/golden_lake.sh, the query
# goldens to scripts/golden_query.sh).
set -eu
# dash (the usual /bin/sh) has no pipefail; enable it where the shell
# supports it so a failing producer can't vanish behind a pipe.
(set -o pipefail) 2>/dev/null && set -o pipefail || true
cd "$(dirname "$0")/.."
command -v curl >/dev/null 2>&1 || { echo "serve-smoke: curl is required" >&2; exit 1; }

golden=testdata/lake_golden/serve
tmp=$(mktemp -d)
pid=""
pid2=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    [ -n "$pid2" ] && kill "$pid2" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

# fail prints the reason plus the daemon's captured stderr — the "why"
# of a dead or misbehaving server, not just the symptom.
fail() {
    echo "serve-smoke: $1" >&2
    for log in "$tmp/serve.err" "$tmp/serve2.err"; do
        if [ -s "$log" ]; then
            echo "--- daemon stderr ($log):" >&2
            cat "$log" >&2
        fi
    done
    exit 1
}

# wait_listening PIDVARNAME OUTFILE: poll for the "listening on" line,
# failing fast with the daemon's stderr if the process dies first.
wait_listening() {
    wpid=$1; wout=$2; url=""
    i=0
    while [ $i -lt 120 ]; do
        url=$(sed -n 's/^listening on //p' "$wout")
        [ -n "$url" ] && break
        kill -0 "$wpid" 2>/dev/null || fail "daemon exited during startup"
        sleep 0.25
        i=$((i + 1))
    done
    [ -n "$url" ] || fail "daemon did not start listening within 30s"
}

go build -o "$tmp/datamaran" ./cmd/datamaran

# Fresh state in the temp dir: the fixture lake itself stays pristine.
"$tmp/datamaran" serve -addr 127.0.0.1:0 -workers 1 \
    -registry "$tmp/registry.json" -checkpoints "$tmp/checkpoints.json" \
    -store "$tmp/store" \
    -reindex testdata/lake > "$tmp/serve.out" 2> "$tmp/serve.err" &
pid=$!
wait_listening "$pid" "$tmp/serve.out"

curl -fsS "$url/healthz" > /dev/null || fail "healthz probe failed"
curl -fsS "$url/v1/formats" > "$tmp/formats.json" || fail "GET /v1/formats failed"
curl -fsS "$url/v1/lake/extract?path=web/requests-1.log&output=csv&table=type0" > "$tmp/lake_extract.csv" \
    || fail "lake extract failed"
curl -fsS -X POST --data-binary @testdata/lake/jobs/job-1.log \
    "$url/v1/extract?format=42f99400cddeb649&output=csv&table=type0" > "$tmp/body_extract.csv" \
    || fail "body extract failed"
# The record store is populated; a group-by query must reproduce the
# committed golden (the same bytes the CLI and in-process engine emit).
curl -fsS --get --data-urlencode \
    "q=SELECT f3, count(*), avg(f2) FROM 570eebfb5b600688 GROUP BY f3 ORDER BY f3" \
    --data-urlencode "output=csv" "$url/v1/query" > "$tmp/query_groupby.csv" \
    || fail "query failed"
# Top-k (ORDER BY + LIMIT) runs the bounded-heap path; the served bytes
# must still match the committed golden.
curl -fsS --get --data-urlencode \
    "q=SELECT f1, f2, f3 FROM 570eebfb5b600688 ORDER BY f2 DESC, f1 LIMIT 5" \
    --data-urlencode "output=csv" "$url/v1/query" > "$tmp/query_topk.csv" \
    || fail "top-k query failed"
# EXPLAIN over HTTP: plan-only output is deterministic and must match
# the committed golden (the same bytes the CLI's -explain plan emits);
# analyze executes and reports per-operator rows plus a total line.
curl -fsS --get --data-urlencode \
    "q=SELECT f1, f2, f3 FROM 570eebfb5b600688 ORDER BY f2 DESC, f1 LIMIT 5" \
    --data-urlencode "output=csv" --data-urlencode "explain=plan" \
    "$url/v1/query" > "$tmp/explain_topk.csv" || fail "explain=plan query failed"
curl -fsS --get --data-urlencode \
    "q=SELECT f1, f2 FROM 570eebfb5b600688 WHERE f2 > 90 AND f2 <= 99" \
    --data-urlencode "output=csv" --data-urlencode "explain=analyze" \
    "$url/v1/query" > "$tmp/explain_analyze.csv" || fail "explain=analyze query failed"
grep -q 'total: rows=' "$tmp/explain_analyze.csv" \
    || fail "explain=analyze missing the total line: $(cat "$tmp/explain_analyze.csv")"
grep -q 'pruned=' "$tmp/explain_analyze.csv" \
    || fail "explain=analyze missing scan block counters: $(cat "$tmp/explain_analyze.csv")"
# /metrics serves the Prometheus text form with the request, query and
# crawl families populated — a family absent or an empty scrape fails.
curl -fsS "$url/metrics" > "$tmp/metrics.txt" || fail "GET /metrics failed"
[ -s "$tmp/metrics.txt" ] || fail "/metrics scrape is empty"
for family in datamaran_http_requests_total datamaran_http_request_seconds \
    datamaran_queries_total datamaran_query_blocks_decoded_total \
    datamaran_reindex_total datamaran_crawl_stage_seconds \
    datamaran_crawl_files_total; do
    grep -q "^# TYPE $family " "$tmp/metrics.txt" \
        || fail "/metrics missing family $family"
done
grep -q '^datamaran_reindex_total [1-9]' "$tmp/metrics.txt" \
    || fail "/metrics reindex counter still zero after the startup crawl"
grep -q '^datamaran_queries_total [1-9]' "$tmp/metrics.txt" \
    || fail "/metrics query counter still zero after served queries"
# /v1/status reports the store's tables (manifest counts, no scan).
curl -fsS "$url/v1/status" > "$tmp/status_tables.json" || fail "status failed"
grep -q '"name": "570eebfb5b600688"' "$tmp/status_tables.json" \
    || fail "status does not list store tables: $(cat "$tmp/status_tables.json")"
# The second crawl sees nothing new: every file must report unchanged.
curl -fsS -X POST "$url/v1/reindex" > "$tmp/reindex.json" || fail "reindex failed"
# A scoped crawl touches one format and tags its summary; a fingerprint
# the registry does not know is 404.
curl -fsS -X POST "$url/v1/reindex?format=42f99400cddeb649" > "$tmp/reindex_scoped.json" \
    || fail "scoped reindex failed"
grep -q '"format": "42f99400cddeb649"' "$tmp/reindex_scoped.json" \
    || fail "scoped reindex summary is not tagged with its format: $(cat "$tmp/reindex_scoped.json")"
code=$(curl -sS -o "$tmp/reindex_unknown.json" -w '%{http_code}' -X POST "$url/v1/reindex?format=ffffffffffffffff")
[ "$code" = "404" ] || fail "unknown-format reindex returned $code, want 404"
# Failures carry the JSON error envelope.
curl -sS "$url/v1/lake/extract?path=../escape" > "$tmp/error.json" || fail "error-route request failed"

if [ "${1:-}" = "-update" ]; then
    mkdir -p "$golden"
    cp "$tmp/formats.json" "$golden/formats.json"
    cp "$tmp/reindex.json" "$golden/reindex.json"
    echo "serve goldens regenerated under $golden"
    exit 0
fi

diff -u "$golden/formats.json" "$tmp/formats.json"
diff -u "$golden/reindex.json" "$tmp/reindex.json"
diff -u testdata/lake_golden/csv/web__requests-1.log.type0.csv "$tmp/lake_extract.csv"
diff -u testdata/lake_golden/csv/jobs__job-1.log.type0.csv "$tmp/body_extract.csv"
diff -u testdata/lake_golden/query/groupby.csv "$tmp/query_groupby.csv"
diff -u testdata/lake_golden/query/topk.csv "$tmp/query_topk.csv"
diff -u testdata/lake_golden/query/explain_topk.csv "$tmp/explain_topk.csv"
grep -q '"error"' "$tmp/error.json" && grep -q '"code":"bad_request"' "$tmp/error.json" \
    || fail "error envelope missing: $(cat "$tmp/error.json")"

# --- Production limits over real HTTP -------------------------------
# A second daemon, same state, with a one-request in-flight bound and a
# three-second deadline.
"$tmp/datamaran" serve -addr 127.0.0.1:0 -workers 1 \
    -registry "$tmp/registry.json" -checkpoints "$tmp/checkpoints.json" \
    -store "$tmp/store2" \
    -max-inflight 1 -request-timeout 3s \
    testdata/lake > "$tmp/serve2.out" 2> "$tmp/serve2.err" &
pid2=$!
saved_url=$url
wait_listening "$pid2" "$tmp/serve2.out"
url2=$url
url=$saved_url

# Park one request in the single in-flight slot: a streamed POST (-T -
# sends chunked without buffering stdin) that delivers a few bytes, then
# stalls past the deadline.
{ printf 'JOB '; sleep 5; } | curl -sS -o "$tmp/held.out" -T - -X POST \
    "$url2/v1/extract?format=42f99400cddeb649" &
holder=$!
i=0
while [ $i -lt 25 ]; do
    curl -fsS "$url2/v1/status" > "$tmp/status.json" || fail "status probe failed"
    grep -q '"inFlight": 1' "$tmp/status.json" && break
    sleep 0.1
    i=$((i + 1))
done
grep -q '"inFlight": 1' "$tmp/status.json" || fail "held request never occupied the in-flight slot"

# Saturated: the next request is shed with 429 + Retry-After, while the
# liveness and status probes stay exempt.
code=$(curl -sS -o "$tmp/shed.json" -w '%{http_code}' -D "$tmp/shed.hdr" "$url2/v1/formats")
[ "$code" = "429" ] || fail "request under saturation returned $code, want 429"
grep -qi '^Retry-After:' "$tmp/shed.hdr" || fail "429 response missing Retry-After"
grep -q '"code":"saturated"' "$tmp/shed.json" || fail "429 body is not the saturated envelope: $(cat "$tmp/shed.json")"
curl -fsS "$url2/healthz" > /dev/null || fail "healthz must stay exempt under saturation"
curl -fsS "$url2/v1/status" > /dev/null || fail "status must stay exempt under saturation"

# The held request overruns its 3s deadline: the daemon answers 504
# deadline_exceeded (the stalled upload is cut, the envelope still
# flushes within the write grace) and frees the slot.
wait "$holder" || true
grep -q '"code":"deadline_exceeded"' "$tmp/held.out" \
    || fail "stalled request did not fail with deadline_exceeded: $(cat "$tmp/held.out")"
curl -fsS "$url2/v1/formats" > /dev/null || fail "slot not freed after the deadline fired"

echo "serve smoke passed: /v1 routes, /v1/query (+explain), /metrics, scoped reindex, the error envelope, 429-on-saturation and deadline-exceeded all behave"
