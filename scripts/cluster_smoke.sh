#!/usr/bin/env bash
# Cluster smoke: boot a router over 3 independent skoped shards on
# ephemeral ports and gate on the three cluster invariants:
#   1. the router reports all shards healthy in cluster_stats;
#   2. a repeated query sticks to one shard and is a cache hit there —
#      and on no other shard (disjoint caches); one trace id spans
#      router and shard, and a body the router cannot parse still gets
#      a router-minted id listed in its recent errors;
#   3. after SIGKILL of the owning shard, queries keep succeeding via
#      failover, the router never crashes, and the dead shard is
#      ejected by the health probes.
set -euo pipefail

cd "$(dirname "$0")/.."

fail() { echo "cluster_smoke: FAIL: $*" >&2; exit 1; }

PIDS=()
TEMP_FILES=()

cleanup() {
    local pid
    for pid in ${PIDS[@]+"${PIDS[@]}"}; do
        kill -INT "$pid" 2>/dev/null || true
    done
    for pid in ${PIDS[@]+"${PIDS[@]}"}; do
        for _ in $(seq 1 50); do
            kill -0 "$pid" 2>/dev/null || break
            sleep 0.1
        done
        kill -9 "$pid" 2>/dev/null || true
    done
    rm -f ${TEMP_FILES[@]+"${TEMP_FILES[@]}"}
}
trap cleanup EXIT

mktmp() {
    local f
    f=$(mktemp "/tmp/skoped-cluster.XXXXXX$1")
    TEMP_FILES+=("$f")
    echo "$f"
}

echo "cluster_smoke: building..."
dune build bin || fail "dune build"

SKOPE=_build/default/bin/skope.exe

# wait_listening LOG PID: block until LOG contains the listening line,
# then echo the bound port.
wait_listening() {
    local log=$1 pid=$2
    for _ in $(seq 1 50); do
        grep -q "listening" "$log" 2>/dev/null && break
        kill -0 "$pid" 2>/dev/null || { cat "$log" >&2; return 1; }
        sleep 0.1
    done
    sed -n 's/.*listening on [^:]*:\([0-9]*\).*/\1/p' "$log" | head -n 1
}

# --- boot 3 shards + the router ---------------------------------------

SHARD_PIDS=()
SHARD_PORTS=()
for i in 0 1 2; do
    LOG=$(mktmp .shard$i.log)
    "$SKOPE" serve --port 0 --pool 2 --queue 32 >"$LOG" 2>&1 &
    PID=$!
    PIDS+=("$PID")
    SHARD_PIDS+=("$PID")
    PORT=$(wait_listening "$LOG" "$PID") || fail "shard s$i never came up"
    [ -n "$PORT" ] || fail "shard s$i printed no port"
    SHARD_PORTS+=("$PORT")
    echo "cluster_smoke: shard s$i on port $PORT (pid $PID)"
done

ROUTER_LOG=$(mktmp .router.log)
# One shard is named by host name: the router resolves it like any
# other, and gate 1 needs it healthy.
"$SKOPE" route --port 0 --probe-interval-ms 200 --fall 2 \
    --shard "127.0.0.1:${SHARD_PORTS[0]}" \
    --shard "localhost:${SHARD_PORTS[1]}" \
    --shard "127.0.0.1:${SHARD_PORTS[2]}" >"$ROUTER_LOG" 2>&1 &
ROUTER_PID=$!
PIDS+=("$ROUTER_PID")
ROUTER_PORT=$(wait_listening "$ROUTER_LOG" "$ROUTER_PID") \
    || fail "router never came up"
[ -n "$ROUTER_PORT" ] || fail "router printed no port"
echo "cluster_smoke: router on port $ROUTER_PORT (pid $ROUTER_PID)"

q() { "$SKOPE" query --port "$ROUTER_PORT" "$@"; }

# --- gate 1: all shards healthy ---------------------------------------

echo "cluster_smoke: gate 1: all shards healthy"
STATS=$(q --kind cluster_stats) || fail "cluster_stats request"
echo "$STATS" | grep -q '"shards":3'  || fail "cluster_stats missing 3 shards"
echo "$STATS" | grep -q '"healthy":3' || fail "not all shards healthy"

# --- gate 2: repeat query is a cache hit on exactly one shard ---------

echo "cluster_smoke: gate 2: affinity + disjoint caches"
R1=$(q -w sord -m bgq) || fail "analyze via router"
OWNER=$(echo "$R1" | grep -o '"shard":"[^"]*"' | sed 's/.*:"\(.*\)"/\1/')
[ -n "$OWNER" ] || fail "response carries no shard field"
R2=$(q -w sord -m bgq) || fail "repeat analyze via router"
OWNER2=$(echo "$R2" | grep -o '"shard":"[^"]*"' | sed 's/.*:"\(.*\)"/\1/')
[ "$OWNER" = "$OWNER2" ] || fail "repeat went to $OWNER2, first to $OWNER"
echo "cluster_smoke: fingerprint owned by $OWNER"

# Ask each shard directly: the owner must have the hit, the others a
# cold cache — the caches are disjoint.
HOT=0
for i in 0 1 2; do
    HITS=$("$SKOPE" query --port "${SHARD_PORTS[$i]}" --kind stats \
        | grep -o '"cache_hits":[0-9]*' | head -n 1 | cut -d: -f2)
    if [ "${HITS:-0}" -gt 0 ]; then
        HOT=$((HOT + 1))
        [ "s$i" = "$OWNER" ] || fail "cache hit on s$i but owner is $OWNER"
    fi
done
[ "$HOT" -eq 1 ] || fail "expected a cache hit on exactly 1 shard, got $HOT"

# Concurrent repeat traffic through the router must come back clean
# and report the per-shard latency/retries table (the loadgen's
# scaling lens).
echo "cluster_smoke: load burst through the router"
LOAD=$(q -w sord -m bgq --repeat 100 --concurrency 4) \
    || fail "load burst via router"
echo "$LOAD"
echo "$LOAD" | grep -q '(0 failed' || fail "load burst reported failures"
echo "$LOAD" | grep -q 'Per-shard latency' \
    || fail "load burst missing per-shard latency table"
echo "$LOAD" | grep -q 'retries' || fail "load burst missing retries column"

# --- gate 2b: one trace id spans the router and the owning shard ------

echo "cluster_smoke: gate 2b: trace id propagates router -> shard"
RT=$(q -w sord -m bgq --trace-id cluster-trace-1) || fail "traced analyze"
echo "$RT" | grep -q '"trace_id":"cluster-trace-1"' \
    || fail "router response does not echo the caller's trace id"
TOWNER=$(echo "$RT" | grep -o '"shard":"[^"]*"' | sed 's/.*:"\(.*\)"/\1/')
[ -n "$TOWNER" ] || fail "traced response carries no shard field"

CHROME=$(mktmp .chrome.json)
TRACED=$(q --kind trace --trace-id cluster-trace-1 --chrome "$CHROME" \
    2>/dev/null) || fail "trace lookup via router"
echo "$TRACED" | grep -q '"router"' \
    || fail "merged trace missing the router's spans"
echo "$TRACED" | grep -q "\"$TOWNER\"" \
    || fail "merged trace missing the owning shard's spans"
"$SKOPE" json-check "$CHROME" >/dev/null \
    || fail "merged Chrome trace is not valid JSON"
grep -q '"ph":"X"' "$CHROME" || fail "Chrome trace has no complete events"
grep -q "\"name\":\"$TOWNER\"" "$CHROME" \
    || fail "Chrome trace missing the shard process"
grep -q '"name":"router"' "$CHROME" \
    || fail "Chrome trace missing the router process"

# The owning shard's own flight recorder must hold the same id.
OWNER_PORT=${SHARD_PORTS[${TOWNER#s}]}
RECENT=$("$SKOPE" query --port "$OWNER_PORT" --kind recent --last 50) \
    || fail "recent on owning shard"
echo "$RECENT" | grep -q '"trace_id":"cluster-trace-1"' \
    || fail "owning shard's recent missing the propagated trace id"

# A single dashboard frame against the router must render all three
# panes and exit cleanly (single-shot mode never clears the screen, so
# it stays pipeable).
echo "cluster_smoke: single-shot skope top frame"
TOP=$("$SKOPE" top --port "$ROUTER_PORT" -n 1) || fail "skope top frame"
echo "$TOP" | grep -q 'shards healthy' || fail "top frame missing cluster pane"
echo "$TOP" | grep -q 'cluster-trace-1' \
    || fail "top frame missing the traced request in its recent pane"

# A body the router cannot parse is answered like a shard answers it:
# under an id the router minted, and listed in its recent errors.
echo "cluster_smoke: gate 2c: the router ids a parse error"
BAD=$(q --body '{"kind":' --retries 0) && fail "malformed body answered ok"
echo "$BAD" | grep -q '"code":"parse_error"' \
    || fail "malformed body not answered parse_error: $BAD"
BAD_ID=$(echo "$BAD" | grep -o '"trace_id":"rtr-[0-9]*"' | cut -d'"' -f4)
[ -n "$BAD_ID" ] || fail "parse error carries no rtr- trace id: $BAD"
q --kind recent --errors-only | grep -q "\"trace_id\":\"$BAD_ID\"" \
    || fail "router's recent errors do not list $BAD_ID"

# --- gate 3: SIGKILL the owner; failover keeps answering --------------

echo "cluster_smoke: gate 3: SIGKILL $OWNER, expect failover"
OWNER_IDX=${OWNER#s}
kill -9 "${SHARD_PIDS[$OWNER_IDX]}" || fail "could not kill $OWNER"

# The very next requests must succeed via the ring successor, without
# client retries — the router's failover is what is under test.
for _ in 1 2 3; do
    R3=$(q -w sord -m bgq --retries 0) || fail "query after shard kill"
    SURVIVOR=$(echo "$R3" | grep -o '"shard":"[^"]*"' | sed 's/.*:"\(.*\)"/\1/')
    [ -n "$SURVIVOR" ] && [ "$SURVIVOR" != "$OWNER" ] \
        || fail "request still answered by dead shard $OWNER"
done
echo "cluster_smoke: failover to $SURVIVOR"

kill -0 "$ROUTER_PID" 2>/dev/null || fail "router crashed after shard kill"

# Probes (200 ms interval, fall 2) must eject the dead member.
EJECTED=0
for _ in $(seq 1 50); do
    STATS=$(q --kind cluster_stats) || fail "cluster_stats after kill"
    if echo "$STATS" | grep -q '"healthy":2'; then
        EJECTED=1
        break
    fi
    sleep 0.2
done
[ "$EJECTED" -eq 1 ] || fail "dead shard never left the healthy count"
echo "$STATS" | grep -q "\"id\":\"$OWNER\",[^{]*\"state\":\"ejected\"" \
    || fail "dead shard not marked ejected"

# Post-ejection steady state: still answering, router still alive.
q -w sord -m bgq --retries 0 >/dev/null || fail "query after ejection"
q --kind capabilities | grep -q '"cluster"' \
    || fail "capabilities missing cluster topology"
kill -0 "$ROUTER_PID" 2>/dev/null || fail "router crashed after ejection"

echo "cluster_smoke: OK"
