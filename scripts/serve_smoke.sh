#!/bin/sh
# serve-smoke: end-to-end check of the rvserved daemon and rvq client
# over a real Unix-domain socket.
#
#   1. start rvserved on a temp socket
#   2. push a mixed batch (parse/lint/rewrite/trace) through rvq batch
#   3. push the identical batch again: every response must say
#      cached=true and byte-match the cold payload
#   4. a metrics scrape must report the block engine's sim.bb.blocks
#      row > 0 after the trace job (in the JSON and the table),
#      cache-hit counters > 0 and a drained queue
#   5. shutdown must unlink the socket, let the daemon exit 0, and
#      leave a loadable span trace behind (--trace-out)
#
# Run via `make serve-smoke` (part of `make check`).
set -eu

dune build bin/rvserved.exe bin/rvq.exe bin/mkmutatee.exe
B=_build/default/bin
DIR=$(mktemp -d)
SOCK="$DIR/rvserved.sock"
PID=""
cleanup() {
    [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
    rm -rf "$DIR"
}
trap cleanup EXIT INT TERM

"$B/mkmutatee.exe" --builtin fib -o "$DIR/fib.elf" >/dev/null
"$B/mkmutatee.exe" --builtin calls -o "$DIR/calls.elf" >/dev/null
cp "$DIR/fib.elf" "$DIR/fib_copy.elf"

TRACE="$DIR/trace.json"
"$B/rvserved.exe" --socket "$SOCK" --domains 2 --trace-out "$TRACE" &
PID=$!
i=0
while [ ! -S "$SOCK" ] && [ $i -lt 50 ]; do sleep 0.1; i=$((i + 1)); done
if [ ! -S "$SOCK" ]; then
    echo "serve-smoke: daemon did not come up" >&2
    exit 1
fi

"$B/rvq.exe" ping --socket "$SOCK" >/dev/null

batch() {
    cat <<EOF
{"id":1,"action":"parse","path":"$DIR/fib.elf"}
{"id":2,"action":"lint","path":"$DIR/fib_copy.elf"}
{"id":3,"action":"rewrite","path":"$DIR/calls.elf","entries":["main"]}
{"id":4,"action":"trace","path":"$DIR/fib.elf","calls":true}
EOF
}

OUT1=$(batch | "$B/rvq.exe" batch --socket "$SOCK")
[ "$(printf '%s\n' "$OUT1" | grep -c '"ok":true')" -eq 4 ] || {
    echo "serve-smoke: cold batch had failures:" >&2
    printf '%s\n' "$OUT1" >&2
    exit 1
}

OUT2=$(batch | "$B/rvq.exe" batch --socket "$SOCK")
[ "$(printf '%s\n' "$OUT2" | grep -c '"cached":true')" -eq 4 ] || {
    echo "serve-smoke: warm batch was not fully cached:" >&2
    printf '%s\n' "$OUT2" >&2
    exit 1
}

# warm payloads must byte-match cold ones (responses may stream out of
# order: normalize timing/cached fields, then sort by id)
norm() {
    sed -e 's/"elapsed_us":[0-9]*/"elapsed_us":0/' \
        -e 's/"cached":true/"cached":false/' | sort
}
if [ "$(printf '%s\n' "$OUT1" | norm)" != "$(printf '%s\n' "$OUT2" | norm)" ]; then
    echo "serve-smoke: warm responses differ from cold ones" >&2
    exit 1
fi

# the batches' trace job ran mutatees through the block engine: the
# registry's sim.bb.blocks row is > 0, and the human table shows it
BLOCKS=$("$B/rvq.exe" metrics --socket "$SOCK" --json |
    sed -n 's/.*"name":"sim\.bb\.blocks","type":"counter","value":\([0-9]*\).*/\1/p')
[ -n "$BLOCKS" ] && [ "$BLOCKS" -gt 0 ] || {
    echo "serve-smoke: metrics report no sim.bb.blocks after the trace job (got '$BLOCKS')" >&2
    exit 1
}
"$B/rvq.exe" metrics --socket "$SOCK" | grep -q '^sim\.bb\.blocks ' || {
    echo "serve-smoke: metrics table missing the sim.bb.blocks row" >&2
    exit 1
}

# metrics scrape after the warm batch: the cache must have hits, and
# with both batches drained the queue gauge must read zero
METRICS=$("$B/rvq.exe" metrics --socket "$SOCK" --json)
HITS=$(printf '%s' "$METRICS" |
    sed -n 's/.*"name":"serve\.cache\.hits","type":"counter","value":\([0-9]*\).*/\1/p')
[ -n "$HITS" ] && [ "$HITS" -gt 0 ] || {
    echo "serve-smoke: metrics report no cache hits (got '$HITS')" >&2
    exit 1
}
DEPTH=$(printf '%s' "$METRICS" |
    sed -n 's/.*"name":"serve\.pool\.queue_depth","type":"gauge","value":\(-\{0,1\}[0-9]*\).*/\1/p')
[ "$DEPTH" = "0" ] || {
    echo "serve-smoke: queue not drained (depth '$DEPTH')" >&2
    exit 1
}
# the human table renders too
"$B/rvq.exe" metrics --socket "$SOCK" | grep -q 'serve\.cache\.hits' || {
    echo "serve-smoke: metrics table missing cache rows" >&2
    exit 1
}

"$B/rvq.exe" shutdown --socket "$SOCK" >/dev/null
wait "$PID"
PID=""
if [ -S "$SOCK" ]; then
    echo "serve-smoke: socket not unlinked on shutdown" >&2
    exit 1
fi

# the daemon must leave a Perfetto-loadable trace with job spans
[ -s "$TRACE" ] || {
    echo "serve-smoke: no trace written to $TRACE" >&2
    exit 1
}
grep -q '"traceEvents"' "$TRACE" && grep -q '"name":"job:parse"' "$TRACE" || {
    echo "serve-smoke: trace missing job spans" >&2
    exit 1
}
echo "serve-smoke: ok"
