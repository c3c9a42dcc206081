#!/bin/sh
# Server smoke test for `make ci`: start hardq-server on an ephemeral
# Unix-domain socket, run one query of each task type plus ping and
# metrics through hardq-client, check that a served Boolean answer is
# bit-identical to an offline hardq-qa replay of the same instance, then
# SIGTERM it and assert a clean drain (exit 0) and a non-empty metrics
# snapshot. hardq-client opens one connection per run, so every eval
# arrives while no other connection is open: the snapshot must count
# lone-connection flushes (server.batch.direct > 0), the scheduler's
# skip of the gather window. Every eval after the first asks the same
# query of the same dataset, so the snapshot must also count prepared
# plan hits (registry.plan_hits > 0): the repeats did not compile again.
# A query over item constants interns new item labels into the resident
# database; answer keys hold only the labels their union names, so a
# repeat of an earlier query afterwards must not add an answer-tier
# miss (engine.cache.misses, read from the metrics op).
#
# Usage: scripts/server_smoke.sh [server-exe [client-exe [qa-exe]]]
set -eu

SERVER=${1:-_build/default/bin/hardq_server.exe}
CLIENT=${2:-_build/default/bin/hardq_client.exe}
QA=${3:-_build/default/bin/hardq_qa.exe}

[ -x "$SERVER" ] || { echo "smoke: server binary missing: $SERVER" >&2; exit 1; }
[ -x "$CLIENT" ] || { echo "smoke: client binary missing: $CLIENT" >&2; exit 1; }
[ -x "$QA" ] || { echo "smoke: qa binary missing: $QA" >&2; exit 1; }

DIR=$(mktemp -d "${TMPDIR:-/tmp}/hardq_smoke.XXXXXX")
SOCK="$DIR/server.sock"
METRICS="$DIR/metrics.json"

cleanup() {
    [ -n "${SERVER_PID:-}" ] && kill -9 "$SERVER_PID" 2>/dev/null || true
    rm -rf "$DIR"
}
trap cleanup EXIT INT TERM

"$SERVER" --listen "$SOCK" --metrics-json "$METRICS" --quiet \
    --preload polls &
SERVER_PID=$!

run() {
    desc=$1; shift
    if out=$("$CLIENT" --connect "$SOCK" --retries 100 "$@"); then
        echo "smoke: $desc ok"
    else
        echo "smoke: $desc FAILED" >&2
        echo "$out" >&2
        exit 1
    fi
}

run "ping" --op ping
run "boolean query" --dataset polls --size 6 --sessions 20 --task boolean
run "count-session query" --dataset polls --size 6 --sessions 20 --task count
run "most-probable-session query" \
    --dataset polls --size 6 --sessions 20 --task top-k -k 3
run "metrics op" --op metrics

cache_misses() {
    "$CLIENT" --connect "$SOCK" --retries 100 --op metrics \
        | sed -n 's/.*"engine\.cache\.misses": *\([0-9]*\).*/\1/p'
}
run "item-label query" --dataset polls --size 6 --sessions 20 --task count \
    'Q() :- P(_, _; "cand01"; "cand04").'
MISSES_BEFORE=$(cache_misses)
[ -n "$MISSES_BEFORE" ] \
    || { echo "smoke: metrics op lacks engine.cache.misses" >&2; exit 1; }
run "repeat after new labels" --dataset polls --size 6 --sessions 20 --task boolean
MISSES_AFTER=$(cache_misses)
[ "$MISSES_AFTER" = "$MISSES_BEFORE" ] \
    || { echo "smoke: repeat after new item labels missed the answer tier (engine.cache.misses $MISSES_BEFORE -> $MISSES_AFTER)" >&2; exit 1; }
echo "smoke: repeat after new item labels hit the answer tier (engine.cache.misses $MISSES_AFTER)"

# Differential replay: export the served instance (registry dataset +
# showcase query) as a case file and re-answer it offline; both sides
# print floats through the same round-trip repr, so the served Boolean
# answer must match the replayed one byte for byte.
SERVED=$("$CLIENT" --connect "$SOCK" --retries 100 \
    --dataset polls --size 6 --sessions 20 --task boolean)
SERVED_P=$(printf '%s\n' "$SERVED" \
    | sed -n 's/.*"kind":"probability","value":\([^,}]*\).*/\1/p')
[ -n "$SERVED_P" ] || { echo "smoke: no served probability in: $SERVED" >&2; exit 1; }
"$QA" export --dataset polls --size 6 --sessions 20 -o "$DIR/smoke.case"
REPLAY=$("$QA" replay "$DIR/smoke.case")
REPLAY_P=$(printf '%s\n' "$REPLAY" | sed -n 's/^ok .* answer=\([^ ]*\).*/\1/p')
[ -n "$REPLAY_P" ] || { echo "smoke: replay did not answer: $REPLAY" >&2; exit 1; }
[ "$SERVED_P" = "$REPLAY_P" ] \
    || { echo "smoke: served $SERVED_P != replayed $REPLAY_P" >&2; exit 1; }
echo "smoke: served answer bit-identical to offline replay ($SERVED_P)"

# Graceful drain: SIGTERM must produce exit 0 and flush the snapshot.
kill -TERM "$SERVER_PID"
if wait "$SERVER_PID"; then
    STATUS=0
else
    STATUS=$?
fi
SERVER_PID=
[ "$STATUS" -eq 0 ] || { echo "smoke: server exited $STATUS, want 0" >&2; exit 1; }
[ -s "$METRICS" ] || { echo "smoke: metrics snapshot missing or empty" >&2; exit 1; }
grep -q '"server.requests"' "$METRICS" \
    || { echo "smoke: metrics snapshot lacks server counters" >&2; exit 1; }
DIRECT=$(sed -n 's/.*"server\.batch\.direct": *\([0-9]*\).*/\1/p' "$METRICS")
[ "${DIRECT:-0}" -gt 0 ] \
    || { echo "smoke: no lone-connection batch skipped the gather window (server.batch.direct=${DIRECT:-absent})" >&2; exit 1; }
echo "smoke: $DIRECT lone-connection batches skipped the gather window"
PLAN_HITS=$(sed -n 's/.*"registry\.plan_hits": *\([0-9]*\).*/\1/p' "$METRICS")
[ "${PLAN_HITS:-0}" -gt 0 ] \
    || { echo "smoke: no repeated query reused its prepared plan (registry.plan_hits=${PLAN_HITS:-absent})" >&2; exit 1; }
echo "smoke: $PLAN_HITS requests reused a prepared plan"

echo "smoke: server drained cleanly, metrics snapshot written"
