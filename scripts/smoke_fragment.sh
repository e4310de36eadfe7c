#!/usr/bin/env bash
# Smoke-test fragment serving end to end through the router: boot aigd
# on the built-in hospital catalog with the refresher and /mutate
# enabled, front it with aigrouter, and require —
#
#  1. A fragment request for the document root (path=/report) served
#     through the router byte-equals the full-document response, and a
#     predicate fragment selects exactly the matching subtree.
#  2. A mutation outside the fragment's scans (a DB3 billing insert for
#     a treatment nobody visits; the /report/patient/SSN fragment reads
#     only DB1) leaves the fragment entry warm: the next request is
#     still a cache hit with identical bytes, and the refresher metered
#     a delta restamp. The row keeps every premise of the view's
#     certification, so partial evaluation still serves the fragment.
#  3. A mutation inside the fragment's scans (a new DB1 patient with a
#     visit) invalidates it: the next response contains the new row.
#  4. A billing row duplicating t1 breaks the premise key
#     DB3:billing(trId): the fragment is then served by the fully
#     guarded grammar, whose unique guard aborts with a 500 naming
#     patient(item.trId -> item); deleting the duplicate serves 200
#     again.
#
# Used by `make smoke-fragment` and CI; finishes in well under 20s.
set -euo pipefail

ADDR="${AIGD_ADDR:-127.0.0.1:18107}"
ROUTER_ADDR="${AIG_FRAG_ROUTER_ADDR:-127.0.0.1:18108}"
FRAG_PATH='/report/patient/SSN'

tmpdir="$(mktemp -d)"
pids=()
cleanup() {
    for p in "${pids[@]}"; do kill "$p" 2>/dev/null || true; done
    rm -rf "$tmpdir"
}
trap cleanup EXIT

echo "== build"
go build -o "$tmpdir/aigd" ./cmd/aigd
go build -o "$tmpdir/aigrouter" ./cmd/aigrouter

wait_healthy() { # base-url
    for _ in $(seq 50); do
        if curl -fsS "$1/healthz" >/dev/null 2>&1; then return 0; fi
        sleep 0.1
    done
    echo "smoke_fragment: $1 did not become healthy" >&2
    cat "$tmpdir"/*.log >&2 || true
    exit 1
}

echo "== start aigd + aigrouter"
"$tmpdir/aigd" -demo -addr "$ADDR" -allow-mutate -refresh-interval 25ms \
    >"$tmpdir/aigd.log" 2>&1 &
pids+=($!)
wait_healthy "http://$ADDR"
"$tmpdir/aigrouter" -addr "$ROUTER_ADDR" -replica "http://$ADDR" \
    -health-interval 100ms >"$tmpdir/router.log" 2>&1 &
pids+=($!)
wait_healthy "http://$ROUTER_ADDR"

frag() { # path outfile headerfile
    curl -fsS -G "http://$ROUTER_ADDR/views/report" \
        --data-urlencode "date=d1" --data-urlencode "path=$1" \
        -o "$2" -D "$3"
}
cache_state() { # headerfile
    tr -d '\r' <"$1" | awk -F': ' 'tolower($1)=="x-aig-cache"{print $2}' | tail -1
}
metric() { # name
    curl -fsS "http://$ADDR/metrics" \
        | awk -v m="$1" '$1 == m { print $2 }' | head -1
}

echo "== phase 1: fragments match the full document through the router"
curl -fsS "http://$ROUTER_ADDR/views/report?date=d1" -o "$tmpdir/full.b"
frag "/report" "$tmpdir/root.b" "$tmpdir/root.h"
cmp -s "$tmpdir/full.b" "$tmpdir/root.b" || {
    echo "smoke_fragment: path=/report fragment differs from the full document" >&2
    diff "$tmpdir/full.b" "$tmpdir/root.b" | head >&2
    exit 1
}
frag "//patient[pname='alice']" "$tmpdir/alice.b" "$tmpdir/alice.h"
grep -q "alice" "$tmpdir/alice.b" || {
    echo "smoke_fragment: predicate fragment is missing its own match" >&2; exit 1; }
if grep -q "bob" "$tmpdir/alice.b"; then
    echo "smoke_fragment: predicate fragment leaked a non-matching patient" >&2
    exit 1
fi

echo "== phase 2: mutation outside the fragment's scans keeps it warm"
frag "$FRAG_PATH" "$tmpdir/ssn1.b" "$tmpdir/ssn1.h"
frag "$FRAG_PATH" "$tmpdir/ssn2.b" "$tmpdir/ssn2.h"
state="$(cache_state "$tmpdir/ssn2.h")"
[ "$state" = "hit" ] || {
    echo "smoke_fragment: repeat fragment request was '$state', want hit" >&2; exit 1; }
delta_before="$(metric aig_serve_refresh_delta_total)"
curl -fsS -X POST "http://$ADDR/mutate?source=DB3&table=billing&op=insert&values=t999,999" >/dev/null
sleep 0.6
frag "$FRAG_PATH" "$tmpdir/ssn3.b" "$tmpdir/ssn3.h"
state="$(cache_state "$tmpdir/ssn3.h")"
[ "$state" = "hit" ] || {
    echo "smoke_fragment: fragment went cold on an unrelated mutation (state '$state')" >&2
    cat "$tmpdir/aigd.log" >&2
    exit 1
}
cmp -s "$tmpdir/ssn2.b" "$tmpdir/ssn3.b" || {
    echo "smoke_fragment: unrelated mutation changed the fragment bytes" >&2; exit 1; }
delta_after="$(metric aig_serve_refresh_delta_total)"
awk -v a="${delta_after:-0}" -v b="${delta_before:-0}" 'BEGIN { exit !(a > b) }' || {
    echo "smoke_fragment: refresher metered no delta restamp across the billing insert" >&2
    exit 1
}

echo "== phase 3: mutation inside the fragment's scans invalidates it"
curl -fsS -X POST "http://$ADDR/mutate?source=DB1&table=patient&op=insert&values=s9,zed,gold" >/dev/null
curl -fsS -X POST "http://$ADDR/mutate?source=DB1&table=visitInfo&op=insert&values=s9,t1,d1" >/dev/null
ok=0
for _ in $(seq 40); do
    sleep 0.1
    frag "$FRAG_PATH" "$tmpdir/ssn4.b" "$tmpdir/ssn4.h"
    if grep -q "s9" "$tmpdir/ssn4.b"; then ok=1; break; fi
done
[ "$ok" -eq 1 ] || {
    echo "smoke_fragment: fragment never picked up the in-scope mutation" >&2
    cat "$tmpdir/aigd.log" >&2
    exit 1
}

echo "== phase 4: a broken premise serves the guarded grammar"
frag_status() { # outfile -> HTTP status of the fragment request
    curl -sS -G "http://$ROUTER_ADDR/views/report" \
        --data-urlencode "date=d1" --data-urlencode "path=$FRAG_PATH" \
        -o "$1" -w '%{http_code}'
}
curl -fsS -X POST "http://$ADDR/mutate?source=DB3&table=billing&op=insert&values=t1,999" >/dev/null
status="$(frag_status "$tmpdir/dup.b")"
[ "$status" = "500" ] && grep -qF 'patient(item.trId -> item)' "$tmpdir/dup.b" || {
    echo "smoke_fragment: duplicate billing key answered $status, want the guard's 500:" >&2
    cat "$tmpdir/dup.b" >&2
    exit 1
}
curl -fsS -X POST "http://$ADDR/mutate?source=DB3&table=billing&op=delete&values=t1,999" >/dev/null
status="$(frag_status "$tmpdir/undup.b")"
[ "$status" = "200" ] && grep -q "s9" "$tmpdir/undup.b" || {
    echo "smoke_fragment: fragment answered $status after the duplicate was deleted, want 200" >&2
    cat "$tmpdir/undup.b" >&2
    exit 1
}

echo "smoke_fragment: OK (subtree match, warm across unrelated mutation, invalidated in scope, guarded on a broken premise)"
