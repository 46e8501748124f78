#!/usr/bin/env bash
# Pre-PR smoke check for the skoped service layer: build, start the
# server on an ephemeral port, run a client query against every
# registered workload (plus the catalogs, a sweep, and a small load
# burst), then exercise the reliability layer end to end: structured
# errors against a dead port, retries riding through injected
# connection drops, client deadlines against a stalled server, and
# load shedding on a saturated queue.  All servers are torn down by an
# EXIT trap, pass or fail.
set -euo pipefail

cd "$(dirname "$0")/.."

fail() { echo "smoke: FAIL: $*" >&2; exit 1; }

# --- teardown ---------------------------------------------------------

SERVER_PIDS=()
TEMP_FILES=()

cleanup() {
    local pid
    for pid in ${SERVER_PIDS[@]+"${SERVER_PIDS[@]}"}; do
        kill -INT "$pid" 2>/dev/null || true
    done
    for pid in ${SERVER_PIDS[@]+"${SERVER_PIDS[@]}"}; do
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
    f=$(mktemp "/tmp/skoped-smoke.XXXXXX$1")
    TEMP_FILES+=("$f")
    echo "$f"
}

# --- build ------------------------------------------------------------

echo "smoke: building..."
dune build bin test || fail "dune build"

SKOPE=_build/default/bin/skope.exe

# --- offline checks ---------------------------------------------------

echo "smoke: lint gate (all bundled workloads + examples, deny warnings)"
"$SKOPE" lint --workloads --deny warnings >/dev/null \
    || fail "bundled workloads do not lint clean"
"$SKOPE" lint examples/skeletons/heat2d.skope -i n=512 -i maxiter=100 \
    --deny warnings >/dev/null || fail "heat2d.skope does not lint clean"
"$SKOPE" lint examples/skeletons/nbody.skope -i nbody=4096 -i nsteps=10 \
    --deny warnings >/dev/null || fail "nbody.skope does not lint clean"

echo "smoke: lint failure path exits nonzero with structured output"
BROKEN=$(mktmp .skope)
printf 'program broken\ndef main()\n{\n  let z = 2 - 2\n  comp flops=1/z\n}\n' \
    >"$BROKEN"
if "$SKOPE" lint "$BROKEN" >/dev/null 2>&1; then
    fail "lint accepted a division by zero"
fi
("$SKOPE" lint "$BROKEN" --format json 2>/dev/null || true) \
    | grep -q '"code":"L002"' || fail "lint json missing L002"

echo "smoke: audit gate (all bundled workloads, deny warnings)"
"$SKOPE" audit --workloads --deny warnings >/dev/null \
    || fail "bundled workloads do not audit clean of warnings"

echo "smoke: audit flags a static send/recv deadlock as an error"
RING=$(mktmp .skope)
printf 'program ring\ndef main(p, rank) {\n  lib recv_left scale 64\n  lib send_right scale 64\n}\n' \
    >"$RING"
if "$SKOPE" audit "$RING" -i p=4 -i rank=0 >/dev/null 2>&1; then
    fail "audit accepted a recv-first ring"
fi
("$SKOPE" audit "$RING" -i p=4 -i rank=0 --format json 2>/dev/null || true) \
    | grep -q '"code":"A007"' || fail "audit json missing A007"

echo "smoke: audit --deny warnings escalates an Amdahl finding"
SERIAL=$(mktmp .skope)
printf 'program serial\ndef main(n, p) {\n  @par: for i = 1 to n / p {\n    comp flops=8\n  }\n  @ser: for j = 1 to n {\n    comp flops=4\n  }\n}\n' \
    >"$SERIAL"
"$SKOPE" audit "$SERIAL" -i n=65536 -i p=8 >/dev/null \
    || fail "warnings alone must not fail the default audit"
if "$SKOPE" audit "$SERIAL" -i n=65536 -i p=8 --deny warnings >/dev/null 2>&1; then
    fail "audit --deny warnings accepted a serial bottleneck"
fi

echo "smoke: version"
"$SKOPE" --version | grep -q '^1\.' || fail "skope --version"

echo "smoke: traced analyze produces a loadable Chrome trace"
TRACE=$(mktmp .trace.json)
"$SKOPE" analyze -w sord --trace "$TRACE" >/dev/null 2>&1 \
    || fail "traced analyze"
"$SKOPE" json-check "$TRACE" >/dev/null || fail "trace is not valid JSON"
grep -q '"ph":"X"' "$TRACE" || fail "trace has no complete events"
grep -q '"name":"bet_build"' "$TRACE" || fail "trace missing bet_build span"

echo "smoke: explore (multi-axis grid, text + ndjson)"
# Capture instead of piping into grep -q: with pipefail, grep's early
# exit would SIGPIPE the producer and fail the gate spuriously.
EXPLORE=$("$SKOPE" explore -w sord -m bgq --axis bw=7,14 --axis freq=0.8,1.6) \
    || fail "explore"
echo "$EXPLORE" | grep -q 'pareto' || fail "explore text"
NDJSON=$("$SKOPE" explore -w sord -m bgq --axis bw=7,14 --axis freq=0.8,1.6 \
    --format ndjson) || fail "explore ndjson"
echo "$NDJSON" | grep -q '"tag":"bw=7.0,freq=0.8"' \
    || fail "explore ndjson missing grid point"
echo "$NDJSON" | grep -q '"pareto"' || fail "explore ndjson missing summary"

echo "smoke: unparsable, out-of-range or unpriceable axis values exit 2"
# The last three are positive but price to an infinite time.
for args in "sweep --axis bw --values 1,x,4" "sweep --axis bw --values 0,nan" \
    "sweep --axis vec --values 0.5" "explore --axis issue=0,2" \
    "sweep --axis bw --values 1e-320,7" "sweep --axis freq --values 1e-310" \
    "explore --axis bw=1e-320,7"; do
    status=0
    # shellcheck disable=SC2086  # $args is split into words on purpose
    "$SKOPE" $args -w sord -m bgq >/dev/null 2>&1 || status=$?
    [ "$status" -eq 2 ] || fail "skope $args exited $status, expected 2"
done

echo "smoke: explore points match the expected file, on 1 and 4 domains"
# The summary line carries wall-clock (elapsed_ms), so compare only
# the per-point lines; -j 1 pins the emission order.  The expected
# file holds the tree walk's points, byte for byte.
EXPECTED_PTS=scripts/golden/explore-sord-bgq.ndjson
PTS_J1=$("$SKOPE" explore -w sord -m bgq --axis bw=7,14 --axis freq=0.8,1.6 \
    -j 1 --format ndjson | grep '"tag"') || fail "explore -j 1"
[ "$PTS_J1" = "$(cat "$EXPECTED_PTS")" ] \
    || fail "explore ndjson points differ from $EXPECTED_PTS"
PTS_J4=$("$SKOPE" explore -w sord -m bgq --axis bw=7,14 --axis freq=0.8,1.6 \
    -j 4 --format ndjson | grep '"tag"') || fail "explore -j 4"
[ "$(sort <<<"$PTS_J4")" = "$(sort <<<"$PTS_J1")" ] \
    || fail "explore -j 4 points differ from -j 1"

echo "smoke: sweep text matches the expected file"
# Priced through one prepared BET; the text is what per-value
# analyses printed.
EXPECTED_SWEEP=scripts/golden/sweep-sord-bgq.txt
"$SKOPE" sweep -w sord -m bgq --axis bw --values 7,14,28,56 \
    | cmp -s - "$EXPECTED_SWEEP" || fail "sweep text differs from $EXPECTED_SWEEP"

echo "smoke: audit report matches the expected file"
# A005's L2-crossing multipliers evaluate the symbolic model's closed
# forms at 2-64x scale, so byte equality covers the closed forms too.
EXPECTED_AUDIT=scripts/golden/audit-fleet.json
"$SKOPE" audit --workloads --format json | cmp -s - "$EXPECTED_AUDIT" \
    || fail "audit --workloads json differs from $EXPECTED_AUDIT"

echo "smoke: lint report matches the expected file"
# Every message and note of every bundled workload's diagnostics, so
# byte equality pins the engine's text as well as its findings.
EXPECTED_LINT=scripts/golden/lint-workloads.json
"$SKOPE" lint --workloads --format json | cmp -s - "$EXPECTED_LINT" \
    || fail "lint --workloads json differs from $EXPECTED_LINT"

# --- server lifecycle -------------------------------------------------

# start_server LOGFILE [serve flags...] -> SERVER_PID, SERVER_PORT.
# Binds port 0 (the kernel hands out a free port, so there is nothing
# to race) and parses the bound port from the listening line; retries
# a couple of times anyway in case the server dies on startup.
start_server() {
    local log=$1; shift
    local attempt
    for attempt in 1 2 3; do
        : >"$log"
        "$SKOPE" serve --port 0 "$@" >"$log" 2>&1 &
        SERVER_PID=$!
        SERVER_PIDS+=("$SERVER_PID")
        for _ in $(seq 1 50); do
            grep -q "listening" "$log" 2>/dev/null && break
            kill -0 "$SERVER_PID" 2>/dev/null || break
            sleep 0.1
        done
        SERVER_PORT=$(sed -n 's/.*listening on [^:]*:\([0-9]*\).*/\1/p' "$log")
        if [ -n "$SERVER_PORT" ]; then
            return 0
        fi
        echo "smoke: server start attempt $attempt failed; retrying" >&2
        kill -9 "$SERVER_PID" 2>/dev/null || true
    done
    cat "$log" >&2
    fail "server never became ready"
}

# stop_server PID: graceful SIGINT shutdown, bounded wait.
stop_server() {
    local pid=$1
    kill -INT "$pid" || fail "server $pid already gone"
    for _ in $(seq 1 50); do
        kill -0 "$pid" 2>/dev/null || return 0
        sleep 0.1
    done
    fail "server $pid did not exit on SIGINT"
}

LOG=$(mktmp .log)
start_server "$LOG"
MAIN_PID=$SERVER_PID
echo "smoke: skoped up on port $SERVER_PORT"

q() { "$SKOPE" query --port "$SERVER_PORT" "$@"; }

echo "smoke: catalogs"
q --kind workloads >/dev/null || fail "workloads request"
q --kind machines  >/dev/null || fail "machines request"

WORKLOADS=$(q --kind workloads \
    | tr ',' '\n' | sed -n 's/.*"name":"\([^"]*\)".*/\1/p')
[ -n "$WORKLOADS" ] || fail "could not list workloads"

for w in $WORKLOADS; do
    for m in bgq xeon future; do
        echo "smoke: analyze $w on $m"
        q -w "$w" -m "$m" >/dev/null || fail "analyze $w on $m"
    done
done

echo "smoke: sweep + cache-warm repeat"
q --kind sweep -w sord -m bgq --axis bw --values 7,14,28,56 >/dev/null \
    || fail "sweep"
q --kind sweep -w sord -m bgq --axis bw --values 7,14,28,56 >/dev/null \
    || fail "re-sweep"

echo "smoke: explore request (grid + cache-warm repeat)"
EXPLORE=$(q --kind explore -w sord -m bgq --axes bw=7,14 --axes freq=0.8,1.6) \
    || fail "explore request"
echo "$EXPLORE" | grep -q '"pareto"' || fail "explore request result"
q --kind explore -w sord -m bgq --axes bw=7,14 --axes freq=0.8,1.6 \
    >/dev/null || fail "explore repeat"

echo "smoke: capabilities + protocol version stamp"
CAPS=$(q --kind capabilities) || fail "capabilities request"
echo "$CAPS" | grep -q '"protocol":1' || fail "capabilities missing protocol"
echo "$CAPS" | grep -q '"explore"'    || fail "capabilities missing explore kind"
echo "$CAPS" | grep -q '"bet_engines"' || fail "capabilities missing bet_engines"
echo "$CAPS" | grep -q '"arena"'      || fail "capabilities missing arena engine"
q --kind version | grep -q '"v":1' || fail "response not version-stamped"

echo "smoke: lint request kind"
q --kind lint -w sord >/dev/null || fail "lint request"
q --body '{"kind":"lint","source":"skeleton p { fn main() { flops(1); } }"}' \
    >/dev/null || fail "lint source request"

echo "smoke: error paths return structured errors (and nonzero exit)"
if q -w no-such-workload >/dev/null 2>&1; then fail "unknown workload accepted"; fi
if q --body 'not json' >/dev/null 2>&1; then fail "malformed body accepted"; fi

echo "smoke: one connection carries two requests, answered in order"
exec 3<>"/dev/tcp/127.0.0.1/$SERVER_PORT" || fail "raw connection to skoped"
printf '%s\n%s\n' '{"kind":"version","trace":{"id":"smoke-keep-1"}}' \
    '{"kind":"version","trace":{"id":"smoke-keep-2"}}' >&3
read -r -t 5 KEEP1 <&3 || fail "no first reply on the kept connection"
read -r -t 5 KEEP2 <&3 || fail "no second reply on the kept connection"
exec 3<&- 3>&-
# kept_reply N LINE: LINE is an ok reply carrying trace id smoke-keep-N.
kept_reply() {
    case "$2" in
        '{"v":1,"ok":true'*"\"trace_id\":\"smoke-keep-$1\""*) ;;
        *) fail "reply $1 on the kept connection: $2" ;;
    esac
}
kept_reply 1 "$KEEP1"
kept_reply 2 "$KEEP2"

echo "smoke: load burst"
q -w srad -m bgq --repeat 200 --concurrency 4 || fail "load burst"

echo "smoke: generated corpus is deterministic and replays as loadgen traffic"
CORPUS_DIR=$(mktemp -d /tmp/skoped-smoke-corpus.XXXXXX)
"$SKOPE" gen --seed 42 --count 20 --out "$CORPUS_DIR" >/dev/null \
    || fail "skope gen"
SUM1=$(cat "$CORPUS_DIR"/*.skope "$CORPUS_DIR"/corpus.json | cksum)
rm -rf "$CORPUS_DIR"
# Same seed, different worker count: the corpus must be byte-identical.
"$SKOPE" gen --seed 42 --count 20 --jobs 4 --out "$CORPUS_DIR" >/dev/null \
    || fail "skope gen --jobs 4"
SUM2=$(cat "$CORPUS_DIR"/*.skope "$CORPUS_DIR"/corpus.json | cksum)
[ "$SUM1" = "$SUM2" ] || fail "corpus differs across --jobs (seed 42)"
q --kind lint --corpus "$CORPUS_DIR" --concurrency 4 \
    || fail "corpus lint replay"
q --kind audit --corpus "$CORPUS_DIR" || fail "corpus audit replay"
if q --kind analyze --corpus "$CORPUS_DIR" >/dev/null 2>&1; then
    fail "corpus replay accepted a non-source kind"
fi
rm -rf "$CORPUS_DIR"

STATS=$(q --kind stats) || fail "stats request"
echo "$STATS" | grep -q '"cache_hits"' || fail "stats missing cache_hits"
echo "$STATS" | grep -q '"counters"'   || fail "stats missing counters object"
STATS=$(q --stats) || fail "stats table request"
echo "$STATS" | grep -q 'Per-phase latency' || fail "stats table"

echo "smoke: version request"
q --kind version | grep -q '"version"' || fail "version request"

echo "smoke: trace id propagates end to end and exports a Chrome trace"
R=$(q -w sord -m bgq --trace-id smoke-trace-1) || fail "traced analyze request"
echo "$R" | grep -q '"trace_id":"smoke-trace-1"' \
    || fail "response does not echo the caller's trace id"
CHROME=$(mktmp .chrome.json)
TRACED=$(q --kind trace --trace-id smoke-trace-1 --chrome "$CHROME" \
    2>/dev/null) || fail "trace lookup"
echo "$TRACED" | grep -q '"trace_id":"smoke-trace-1"' \
    || fail "trace record missing the id"
echo "$TRACED" | grep -q '"spans"' || fail "trace record has no spans"
"$SKOPE" json-check "$CHROME" >/dev/null \
    || fail "exported Chrome trace is not valid JSON"
grep -q '"ph":"X"' "$CHROME" || fail "Chrome trace has no complete events"

echo "smoke: flight recorder lists recent requests"
RECENT=$(q --kind recent --last 10) || fail "recent request"
echo "$RECENT" | grep -q '"trace_id":"smoke-trace-1"' \
    || fail "recent does not list the traced request"
echo "$RECENT" | grep -q '"records"' || fail "recent missing records array"

echo "smoke: Prometheus exposition"
PROM=$(mktmp .prom)
q --kind metrics_prom >"$PROM" || fail "metrics_prom request"
for family in \
    'skope_requests_total{' \
    'skope_request_latency_seconds_bucket{le="+Inf"}' \
    'skope_phase_duration_seconds_bucket{phase="parse"' \
    'skope_phase_duration_seconds_bucket{phase="bet_build"' \
    'skope_phase_duration_seconds_bucket{phase="eval"' \
    'skope_phase_duration_seconds_bucket{phase="lint"' \
    'skope_phase_duration_seconds_bucket{phase="report"' \
    'skope_lru_entries' \
    'skope_queue_depth' \
    'skope_build_info{'
do
    grep -qF "$family" "$PROM" || fail "exposition missing $family"
done

echo "smoke: shutting down main server (SIGINT)"
stop_server "$MAIN_PID"
grep -q "bye" "$LOG" || fail "missing shutdown stats line"

# --- reliability gates ------------------------------------------------

echo "smoke: dead port yields a structured refused error"
# The just-stopped server's port is free again: nothing is listening.
ERR=$(mktmp .err)
if "$SKOPE" query --port "$SERVER_PORT" --kind version --retries 0 \
    >/dev/null 2>"$ERR"; then
    fail "query against a dead port succeeded"
fi
grep -q 'refused' "$ERR" || { cat "$ERR" >&2; fail "dead-port error not structured (want 'refused')"; }

echo "smoke: 30% connection drops, fixed seed: 50 requests all recover via retries"
DROP_LOG=$(mktmp .log)
start_server "$DROP_LOG" --fault-inject drop=0.3 --fault-seed 7
DROP_PID=$SERVER_PID
DROP_PORT=$SERVER_PORT
REPORT=$("$SKOPE" query --port "$DROP_PORT" --kind version \
    --repeat 50 --concurrency 2 --retries 8 --retry-base-ms 5 --retry-max-ms 40) \
    || { echo "$REPORT" >&2; fail "load under 30% drops did not fully recover"; }
echo "$REPORT"
echo "$REPORT" | grep -q '(0 failed' || fail "drop run reported failures"
echo "$REPORT" | grep -Eq '[1-9][0-9]* retries' \
    || fail "drop run reported no retries (faults not injected?)"
STATS=$("$SKOPE" query --port "$DROP_PORT" --kind stats) \
    || fail "drop-server stats request"
echo "$STATS" | grep -q '"faults_injected"' \
    || fail "stats missing faults_injected counter"
echo "smoke: injected faults leave attributable structured log events"
grep -q '"event":"fault_injected"' "$DROP_LOG" \
    || fail "server log missing fault_injected events"
grep '"event":"fault_injected"' "$DROP_LOG" | head -n 1 \
    | grep -q '"seed":7' || fail "fault_injected event missing the seed"
grep '"event":"fault_injected"' "$DROP_LOG" | head -n 1 \
    | grep -q '"fault":' || fail "fault_injected event missing the fault kind"
stop_server "$DROP_PID"

echo "smoke: stalled server trips the client read deadline"
SLOW_LOG=$(mktmp .log)
start_server "$SLOW_LOG" --pool 1 --queue 1 \
    --fault-inject delay_p=1,delay_ms=800 --fault-seed 1
SLOW_PID=$SERVER_PID
SLOW_PORT=$SERVER_PORT
if "$SKOPE" query --port "$SLOW_PORT" --kind version \
    --retries 0 --io-timeout-ms 200 >/dev/null 2>"$ERR"; then
    fail "query against a stalled server succeeded"
fi
grep -q 'timeout' "$ERR" || { cat "$ERR" >&2; fail "stall error not structured (want 'timeout')"; }
sleep 1  # let the delayed response drain so the worker is idle again

echo "smoke: saturated queue sheds with a structured overloaded error, fast"
# Worker pinned for 800 ms by one request, queue slot held by a
# second: the third must be shed from the accept loop immediately.
shed_once() {
    "$SKOPE" query --port "$SLOW_PORT" --kind version --retries 0 \
        >/dev/null 2>&1 &
    BG1=$!
    sleep 0.2
    "$SKOPE" query --port "$SLOW_PORT" --kind version --retries 0 \
        >/dev/null 2>&1 &
    BG2=$!
    sleep 0.2
    local t0 t1 status=0
    t0=$(date +%s%N)
    "$SKOPE" query --port "$SLOW_PORT" --kind version --retries 0 \
        >/dev/null 2>"$ERR" || status=$?
    t1=$(date +%s%N)
    SHED_MS=$(( (t1 - t0) / 1000000 ))
    wait "$BG1" "$BG2" 2>/dev/null || true
    [ "$status" -ne 0 ] && grep -q 'overloaded' "$ERR"
}
# Timing gate with a couple of attempts so a cold page cache or a busy
# CI host cannot flake the run; the sub-100ms bound must hold once.
SHED_OK=0
for attempt in 1 2 3; do
    if shed_once && [ "$SHED_MS" -lt 100 ]; then
        echo "smoke: shed response in ${SHED_MS} ms"
        SHED_OK=1
        break
    fi
    echo "smoke: shed attempt $attempt: ${SHED_MS:-?} ms; retrying" >&2
    sleep 1
done
[ "$SHED_OK" -eq 1 ] || fail "saturated queue did not shed in under 100 ms"
STATS=$("$SKOPE" query --port "$SLOW_PORT" --kind stats --retries 6) \
    || fail "slow-server stats request"
echo "$STATS" | grep -q '"requests_shed"' \
    || fail "stats missing requests_shed counter"

echo "smoke: the shed request is visible in the flight recorder"
RECENT=$("$SKOPE" query --port "$SLOW_PORT" --kind recent --last 20 \
    --retries 6) || fail "slow-server recent request"
echo "$RECENT" | grep -q '"trace_id":"shed-' \
    || fail "recent missing the shed request's synthetic trace id"
echo "$RECENT" | grep -q '"outcome":"overloaded"' \
    || fail "shed record not marked overloaded"
grep -q '"event":"request_shed"' "$SLOW_LOG" \
    || fail "server log missing request_shed event"
stop_server "$SLOW_PID"

# --- cluster gates ----------------------------------------------------

echo "smoke: cluster router gates (health, affinity, failover)"
bash scripts/cluster_smoke.sh || fail "cluster smoke"

echo "smoke: OK"
