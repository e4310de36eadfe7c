#!/usr/bin/env bash
# Smoke-test durability end to end: a TCP remote source (aigsource with
# -data-dir) and the mediator (aigd with -state-dir for its local CSV
# sources and -cache-dir for the result cache) are warmed, stopped and
# restarted twice:
#
#  1. Warm restart, nothing changed: before any request the restarted
#     daemon must report restored cache entries on /metrics, and the
#     first request must be a cache hit with the byte-identical body —
#     zero evaluations paid.
#  2. Restart with a mutation landed while everything was down (via
#     `aigsource -apply` against the source's durable state): the
#     persisted entry must be dropped, the first request must be a miss,
#     and its body must reflect the mutation — stale bytes are never
#     served.
#
# Used by `make smoke-restart` and CI; finishes in well under a minute.
set -euo pipefail

ADDR="${AIGD_RESTART_ADDR:-127.0.0.1:18094}"
SRC_ADDR="${AIGD_RESTART_SRC_ADDR:-127.0.0.1:18095}"
PROBE_SSN="s999999"
PROBE_NAME="zzz-restart-probe"

tmpdir="$(mktemp -d)"
daemon_pid=""
source_pid=""
cleanup() {
    [ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null || true
    [ -n "$source_pid" ] && kill "$source_pid" 2>/dev/null || true
    rm -rf "$tmpdir"
}
trap cleanup EXIT

go build -o "$tmpdir/aigd" ./cmd/aigd
go build -o "$tmpdir/aigsource" ./cmd/aigsource
go build -o "$tmpdir/aiggen" ./cmd/aiggen

"$tmpdir/aiggen" -size tiny -seed 42 -out "$tmpdir/data"
mkdir -p "$tmpdir/remote" "$tmpdir/state" "$tmpdir/cache"
mv "$tmpdir/data/DB1" "$tmpdir/remote/DB1"

start_source() { # after the first call the CSV seed is ignored: state recovers
    "$tmpdir/aigsource" -name DB1 -data "$tmpdir/remote/DB1" \
        -data-dir "$tmpdir/state/DB1" -fsync always -listen "$SRC_ADDR" \
        >>"$tmpdir/aigsource.log" 2>&1 &
    source_pid=$!
    sleep 0.3
}

start_daemon() {
    "$tmpdir/aigd" -addr "$ADDR" \
        -view report=examples/hospital/report.aig \
        -data "$tmpdir/data" -state-dir "$tmpdir/state" \
        -source "DB1=$SRC_ADDR" -cache-dir "$tmpdir/cache" \
        >>"$tmpdir/aigd.log" 2>&1 &
    daemon_pid=$!
    for _ in $(seq 100); do
        if curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.1
    done
    echo "aigd did not become healthy; log:" >&2
    cat "$tmpdir/aigd.log" >&2
    exit 1
}

stop_all() { # graceful: aigd drains (saving the cache), source snapshots
    kill -TERM "$daemon_pid"
    wait "$daemon_pid"
    daemon_pid=""
    kill -TERM "$source_pid"
    wait "$source_pid" 2>/dev/null || true
    source_pid=""
}

metric() { # name -> value (0 when absent)
    # The whole body is read before matching: an awk that exited early
    # would break curl's pipe, and a failed pipeline would print twice.
    local body
    body="$(curl -fsS "http://$ADDR/metrics")" || body=""
    awk -v m="$1" '$1 == m && v == "" { v = $2 } END { print (v == "" ? 0 : v) }' <<<"$body"
}

fetch() { # writes headers to $1.h and body to $1.b
    curl -fsS -D "$1.h" -o "$1.b" "http://$ADDR/views/report?date=d001"
}
cache_state() { tr -d '\r' <"$1.h" | awk -F': ' 'tolower($1)=="x-aig-cache"{print $2}'; }

echo "== warm the daemon, then stop everything gracefully"
start_source
start_daemon
fetch "$tmpdir/first"
[ "$(cache_state "$tmpdir/first")" = "miss" ] || {
    echo "smoke_restart: expected a cold miss" >&2; exit 1; }
fetch "$tmpdir/warm"
[ "$(cache_state "$tmpdir/warm")" = "hit" ] || {
    echo "smoke_restart: expected a warm hit before the restart" >&2; exit 1; }
stop_all

echo "== phase 1: warm restart, nothing changed"
start_source
start_daemon
restored="$(metric aig_serve_cache_persist_restored_total)"
if [ "${restored%%.*}" -lt 1 ]; then
    echo "smoke_restart: no restored cache entries after restart (got $restored)" >&2
    cat "$tmpdir/aigd.log" >&2
    exit 1
fi
fetch "$tmpdir/restart"
[ "$(cache_state "$tmpdir/restart")" = "hit" ] || {
    echo "smoke_restart: first post-restart request was not a cache hit" >&2; exit 1; }
cmp -s "$tmpdir/warm.b" "$tmpdir/restart.b" || {
    echo "smoke_restart: restored entry served different bytes" >&2; exit 1; }
evals="$(metric aig_serve_evaluations_total)"
if [ "${evals%%.*}" -ne 0 ]; then
    echo "smoke_restart: warm restart paid $evals evaluations, want 0" >&2
    exit 1
fi
echo "warm restart: $restored entries restored, first request hit, 0 evaluations"
stop_all

echo "== phase 2: mutation lands while everything is down"
"$tmpdir/aigsource" -name DB1 -data-dir "$tmpdir/state/DB1" -fsync always \
    -apply "patient:insert:$PROBE_SSN,$PROBE_NAME,p000001"
"$tmpdir/aigsource" -name DB1 -data-dir "$tmpdir/state/DB1" -fsync always \
    -apply "visitInfo:insert:$PROBE_SSN,t000001,d001"
start_source
start_daemon
dropped="$(metric aig_serve_cache_persist_dropped_total)"
if [ "${dropped%%.*}" -lt 1 ]; then
    echo "smoke_restart: stale entry was not dropped on load (got $dropped)" >&2
    exit 1
fi
fetch "$tmpdir/mutated"
[ "$(cache_state "$tmpdir/mutated")" = "miss" ] || {
    echo "smoke_restart: post-mutation request served from a stale cache" >&2; exit 1; }
grep -q "$PROBE_NAME" "$tmpdir/mutated.b" || {
    echo "smoke_restart: mutation applied while down is missing from the document" >&2
    exit 1
}
grep -q "$PROBE_NAME" "$tmpdir/warm.b" && {
    echo "smoke_restart: probe name present before the mutation; test is vacuous" >&2
    exit 1
}
echo "mutation restart: entry dropped, fresh evaluation reflects the offline write"
stop_all
echo "smoke_restart: OK"
