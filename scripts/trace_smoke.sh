#!/usr/bin/env bash
# End-to-end trace smoke: boots a real-process 3-shard cluster on
# loopback (three waldo-server shards plus one waldo-gateway), issues
# ONE traced upload through the gateway, and asserts the distributed
# trace actually crossed the tiers — the response's X-Waldo-Trace ID
# must name a trace retained in the
# gateway's flight recorder (/v1/readings root + fan-out leg) AND in the
# owning shard's recorder (/v1/upload/batch root + wal/append span).
# This is the out-of-process proof that header propagation,
# /debug/traces, and the WAL span attribution survive flag parsing and
# real sockets, not just the in-process test harness. It then drives
# the request shapes real clients send at the binaries' serving loop
# (Expect: 100-continue, HTTP/1.0, Connection: close, a long-poll whose
# client gives up) and SIGTERMs a gateway and a shard with a watcher
# parked on each.
#
# Usage: scripts/trace_smoke.sh [bin-dir]
# Binaries are taken from bin-dir (default ./bin); build them with
# `make trace-smoke` or `go build -o bin ./cmd/...`.
set -euo pipefail

BIN=${1:-bin}
GATEWAY_PORT=${GATEWAY_PORT:-9100}
SHARD_PORTS=(9101 9102 9103)

for exe in waldo-server waldo-gateway; do
    if [ ! -x "$BIN/$exe" ]; then
        echo "missing $BIN/$exe (run: go build -o $BIN ./cmd/...)" >&2
        exit 1
    fi
done

WORK=$(mktemp -d /tmp/waldo-trace.XXXXXX)
PIDS=()
cleanup() {
    for pid in "${PIDS[@]:-}"; do
        kill "$pid" 2>/dev/null || true
    done
    wait 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

port_open() {
    (exec 3<>"/dev/tcp/127.0.0.1/$1") 2>/dev/null
}

# wait_port port pid log: poll until the child started for that port
# serves it. The port answering is not enough — someone else's listener
# answers too, and then our child has exited on the bind error — so the
# child must still be alive when it does.
wait_port() {
    for _ in $(seq 1 100); do
        if port_open "$1"; then
            kill -0 "$2" 2>/dev/null && return 0
            break
        fi
        kill -0 "$2" 2>/dev/null || break
        sleep 0.1
    done
    echo "process $2 never served port $1; its log:" >&2
    cat "$3" >&2
    return 1
}

# A listener that is already there answers before a child has had time
# to fail its bind, so refuse it before starting anything.
for port in "$GATEWAY_PORT" "${SHARD_PORTS[@]}"; do
    if port_open "$port"; then
        echo "port $port is already in use by another process" >&2
        exit 1
    fi
done

SHARDS=""
for i in "${!SHARD_PORTS[@]}"; do
    port=${SHARD_PORTS[$i]}
    id="s$i"
    "$BIN/waldo-server" -addr "127.0.0.1:$port" -shard-id "$id" \
        -data-dir "$WORK/$id" -classifier nb \
        >"$WORK/$id.log" 2>&1 &
    PIDS+=($!)
    SHARDS="${SHARDS:+$SHARDS;}$id=http://127.0.0.1:$port"
done
for i in "${!SHARD_PORTS[@]}"; do
    wait_port "${SHARD_PORTS[$i]}" "${PIDS[$i]}" "$WORK/s$i.log"
done

"$BIN/waldo-gateway" -addr "127.0.0.1:$GATEWAY_PORT" -shards "$SHARDS" \
    >"$WORK/gateway.log" 2>&1 &
PIDS+=($!)
wait_port "$GATEWAY_PORT" "$!" "$WORK/gateway.log"
echo "cluster up: gateway :$GATEWAY_PORT, shards ${SHARD_PORTS[*]}"

# The gateway's own topology view (cluster version, ring, active
# endpoint per shard) must be served by the real process.
curl -fsS "http://127.0.0.1:$GATEWAY_PORT/healthz" || {
    echo "gateway /healthz failed; gateway log:" >&2
    cat "$WORK/gateway.log" >&2
    exit 1
}
echo

# One single-cell upload (4 readings clustered near the metro center, so
# the gateway's fast path forwards it whole to exactly one shard).
BODY='{"ci_span_db":0.4,"readings":[
 {"seq":0,"lat":33.7490,"lon":-84.3880,"channel":47,"sensor":1,"rss_dbm":-70,"cft_db":-81.3,"aft_db":-83},
 {"seq":1,"lat":33.7491,"lon":-84.3881,"channel":47,"sensor":1,"rss_dbm":-71,"cft_db":-82.3,"aft_db":-84},
 {"seq":2,"lat":33.7492,"lon":-84.3879,"channel":47,"sensor":1,"rss_dbm":-69,"cft_db":-80.3,"aft_db":-82},
 {"seq":3,"lat":33.7489,"lon":-84.3882,"channel":47,"sensor":1,"rss_dbm":-70.5,"cft_db":-81.8,"aft_db":-83.5}]}'

HDRS="$WORK/upload.headers"
curl -fsS -o /dev/null -D "$HDRS" \
    -H 'Content-Type: application/json' \
    -d "$BODY" "http://127.0.0.1:$GATEWAY_PORT/v1/readings" || {
    echo "upload failed; gateway log:" >&2
    tail -20 "$WORK/gateway.log" >&2
    exit 1
}

# Response headers carry the trace context and the shard that served it.
TRACEPARENT=$(tr -d '\r' <"$HDRS" | awk -F': ' 'tolower($1)=="x-waldo-trace"{print $2}')
SHARD=$(tr -d '\r' <"$HDRS" | awk -F': ' 'tolower($1)=="x-waldo-shard"{print $2}')
TRACE_ID=$(printf '%s' "$TRACEPARENT" | cut -d- -f2)
if ! printf '%s' "$TRACE_ID" | grep -Eq '^[0-9a-f]{32}$'; then
    echo "bad X-Waldo-Trace header: '$TRACEPARENT'" >&2
    exit 1
fi
if [ -z "$SHARD" ]; then
    echo "missing X-Waldo-Shard header" >&2
    exit 1
fi
echo "upload accepted: trace=$TRACE_ID shard=$SHARD"

# Gateway recorder: the trace must exist and contain the fan-out leg
# naming the serving shard.
GW_TRACE=$(curl -fsS "http://127.0.0.1:$GATEWAY_PORT/debug/traces?trace=$TRACE_ID&format=text")
printf '%s\n' "$GW_TRACE" | grep -q "trace $TRACE_ID" || {
    echo "gateway recorder did not retain trace $TRACE_ID" >&2
    exit 1
}
printf '%s\n' "$GW_TRACE" | grep -q "/v1/readings/leg .*shard=$SHARD" || {
    echo "gateway trace has no leg span for shard $SHARD:" >&2
    printf '%s\n' "$GW_TRACE" >&2
    exit 1
}
echo "gateway trace OK (route + leg shard=$SHARD)"

# Owning shard's recorder: same trace ID, with the WAL append span. The
# shard's root is /v1/upload/batch — the gateway re-encodes a JSON upload
# as a batch frame, so that is the only upload route a shard behind it
# serves.
SHARD_IDX=${SHARD#s}
SHARD_PORT=${SHARD_PORTS[$SHARD_IDX]}
SH_TRACE=$(curl -fsS "http://127.0.0.1:$SHARD_PORT/debug/traces?trace=$TRACE_ID&format=text")
printf '%s\n' "$SH_TRACE" | grep -q "trace $TRACE_ID .*/v1/upload/batch" || {
    echo "shard $SHARD did not retain trace $TRACE_ID" >&2
    printf '%s\n' "$SH_TRACE" >&2
    exit 1
}
printf '%s\n' "$SH_TRACE" | grep -q "wal/append" || {
    echo "shard trace has no wal/append span:" >&2
    printf '%s\n' "$SH_TRACE" >&2
    exit 1
}
echo "shard trace OK (route + wal/append on $SHARD)"

# --- The shapes real clients send, on the real binaries' serving loop
# (internal/adminhttp: DESIGN.md §8 "Serving loop"). ---
GW="http://127.0.0.1:$GATEWAY_PORT"
SH="http://127.0.0.1:$SHARD_PORT"

# expect_code what want curl-args...: run curl, compare the status code.
expect_code() {
    local what=$1 want=$2 got
    shift 2
    got=$(curl -sS -o /dev/null -w '%{http_code}' "$@") || true
    if [ "$got" != "$want" ]; then
        echo "$what: HTTP $got, want $want" >&2
        exit 1
    fi
}

# A JSON upload over 1 KiB that waits for "100 Continue" before sending
# its body. curl older than 7.47 asks for that by itself over 1 KiB,
# newer ones only over 1 MiB, so say it outright. A server that never
# sends the 100 costs the client its full one-second patience.
READINGS=""
for i in $(seq 10 29); do
    READINGS="${READINGS:+$READINGS,}{\"seq\":$i,\"lat\":33.7490,\"lon\":-84.3880,\"channel\":47,\"sensor\":1,\"rss_dbm\":-70,\"cft_db\":-81.3,\"aft_db\":-83}"
done
BIG="{\"ci_span_db\":0.4,\"readings\":[$READINGS]}"
[ "${#BIG}" -gt 1024 ] || { echo "upload body is only ${#BIG} bytes" >&2; exit 1; }
for base in "$GW" "$SH"; do
    OUT=$(curl -sS -o /dev/null -w '%{http_code} %{time_total}' -H 'Content-Type: application/json' \
        -H 'Expect: 100-continue' -d "$BIG" "$base/v1/readings")
    if ! printf '%s' "$OUT" | awk '{exit !($1 == 204 && $2 < 0.8)}'; then
        echo "Expect: 100-continue upload to $base: '$OUT' (code, seconds), want 204 in well under a second" >&2
        exit 1
    fi
done
for base in "$GW" "$SH"; do
    expect_code "HTTP/1.0 GET $base/v1/stats" 200 --http1.0 "$base/v1/stats"
    expect_code "Connection: close GET $base/v1/stats" 200 -H 'Connection: close' "$base/v1/stats"
done
echo "client shapes OK (Expect: 100-continue, HTTP/1.0, Connection: close on gateway and $SHARD)"

# shard_metric name: the value of one series on the owning shard.
shard_metric() {
    curl -fsS "$SH/metrics" | awk -v name="$1" '$1 == name {print $2}'
}
# wait_metric name want: poll the shard until the series reads want.
wait_metric() {
    local got
    for _ in $(seq 1 40); do
        got=$(shard_metric "$1")
        [ "$got" = "$2" ] && return 0
        sleep 0.05
    done
    echo "shard $SHARD: $1 = '$got', want $2" >&2
    return 1
}

# A parked /v1/model/watch whose client gives up: the handler's
# r.Context().Done() is what starts the serving loop's hang-up watcher,
# so the shard must still notice — directly, and behind the gateway,
# whose own loop must notice first and drop the leg.
WATCH="v1/model/watch?channel=47&sensor=1&version=99"
curl -sS -o /dev/null --max-time 1 "$SH/$WATCH" 2>/dev/null || true
wait_metric 'waldo_dbserver_watch_total{outcome="disconnect"}' 1
wait_metric waldo_dbserver_watch_active 0
curl -sS -o /dev/null --max-time 1 "$GW/$WATCH&lat=33.7490&lon=-84.3880" 2>/dev/null || true
wait_metric 'waldo_dbserver_watch_total{outcome="disconnect"}' 2
wait_metric waldo_dbserver_watch_active 0
echo "abandoned watches OK (disconnect counted on $SHARD, directly and through the gateway)"

# SIGTERM with a watcher parked: the watcher is answered 503 at once,
# not dropped after the ten-second drain, and the process exits 0.
# term_parked what pid url: park a watch on url, SIGTERM pid.
term_parked() {
    local what=$1 pid=$2 url=$3 code status=0 t0
    curl -sS -o /dev/null -w '%{http_code}' --max-time 15 "$url" >"$WORK/parked.code" 2>/dev/null &
    local curl_pid=$!
    sleep 0.3
    t0=$(date +%s)
    kill -TERM "$pid"
    wait "$pid" || status=$?
    wait "$curl_pid" || true
    code=$(cat "$WORK/parked.code")
    if [ "$status" -ne 0 ] || [ "$code" != 503 ] || [ $(($(date +%s) - t0)) -gt 2 ]; then
        echo "SIGTERM to $what with a watcher parked: exit $status, watcher got HTTP $code, $(($(date +%s) - t0)) s; want exit 0, 503, at once" >&2
        exit 1
    fi
}
term_parked gateway "${PIDS[3]}" "$GW/$WATCH&lat=33.7490&lon=-84.3880"
term_parked "shard $SHARD" "${PIDS[$SHARD_IDX]}" "$SH/$WATCH"
echo "graceful shutdown OK (parked watchers answered 503, gateway and $SHARD exited 0)"

echo
echo "trace smoke OK: one trace ID crossed gateway -> $SHARD -> WAL"
