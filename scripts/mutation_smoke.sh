#!/usr/bin/env bash
# mutation_smoke.sh — end-to-end dynamic-graph smoke test.
#
# Generates a seeded graph plus a replayable mutation stream from the same
# flags (gengraph -deltas), starts a gminerd -dynamic daemon over the
# graph, parks a standing cd query, and replays the stream one batch per
# epoch. At every epoch the standing job's accumulated match set must be
# byte-identical to a fresh snapshot job submitted after the mutation —
# the serving-layer half of the differential gate the Go test suite pins
# in-process. The epoch must also be visible everywhere the API surfaces
# it: the mutation response, /healthz, /metrics and the job status. A
# `gminer watch` stream runs across all epochs and its NDJSON documents
# (snapshot + deltas) must fold back into exactly the final match set.
set -euo pipefail

COMMUNITIES="${COMMUNITIES:-24}"
BRIDGES="${BRIDGES:-400}"
SEED="${SEED:-7}"
BATCHES="${BATCHES:-3}"
DELTA_OPS="${DELTA_OPS:-24}"
DELTA_SEED="${DELTA_SEED:-5}"
PORT="${PORT:-17087}"
ADDR="127.0.0.1:${PORT}"
DIR="$(mktemp -d)"
DAEMON_PID=""
WATCH_PID=""

cleanup() {
  [ -n "$WATCH_PID" ] && kill -9 "$WATCH_PID" 2>/dev/null || true
  [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null || true
  rm -rf "$DIR"
}
trap cleanup EXIT

echo "== build"
go build -o "$DIR/gminer" ./cmd/gminer
go build -o "$DIR/gminerd" ./cmd/gminerd
go build -o "$DIR/gengraph" ./cmd/gengraph

echo "== generate graph + replayable mutation stream (same flags, same seed)"
# An attributed community graph, so the standing cd query has real
# matches to add and retract as mutations land.
GENFLAGS=(-type community -communities "$COMMUNITIES" -bridges "$BRIDGES" -seed "$SEED")
"$DIR/gengraph" "${GENFLAGS[@]}" -o "$DIR/base.graph"
"$DIR/gengraph" "${GENFLAGS[@]}" \
  -deltas "$BATCHES" -delta-ops "$DELTA_OPS" -delta-seed "$DELTA_SEED" \
  -o "$DIR/stream.ndjson"
[ "$(wc -l < "$DIR/stream.ndjson")" = "$BATCHES" ] \
  || { echo "stream has $(wc -l < "$DIR/stream.ndjson") batches, want $BATCHES"; exit 1; }
# Replayability: the stream is a pure function of graph + delta-seed.
"$DIR/gengraph" "${GENFLAGS[@]}" \
  -deltas "$BATCHES" -delta-ops "$DELTA_OPS" -delta-seed "$DELTA_SEED" \
  -o "$DIR/stream2.ndjson"
diff "$DIR/stream.ndjson" "$DIR/stream2.ndjson" \
  || { echo "mutation stream is not replayable"; exit 1; }

echo "== start dynamic daemon"
"$DIR/gminerd" -dynamic -graph "$DIR/base.graph" \
  -workers 3 -threads 2 -addr "$ADDR" -max-jobs 2 \
  > "$DIR/daemon.log" 2>&1 &
DAEMON_PID=$!
for _ in $(seq 1 100); do
  curl -sf "http://$ADDR/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done
curl -sf "http://$ADDR/healthz" >/dev/null || {
  echo "daemon never became healthy"; cat "$DIR/daemon.log"; exit 1;
}
curl -sf "http://$ADDR/healthz" | jq -e '.dynamic == true and .graph_epoch == 0' >/dev/null \
  || { echo "healthz not dynamic at epoch 0"; curl -s "http://$ADDR/healthz"; exit 1; }

await() { # await ID STATE...
  local id=$1; shift
  local deadline=$((SECONDS + 120)) state
  while [ "$SECONDS" -lt "$deadline" ]; do
    state="$(curl -sf "http://$ADDR/jobs/$id" | jq -r .state)"
    for want in "$@"; do
      [ "$state" = "$want" ] && { echo "$state"; return 0; }
    done
    case "$state" in failed|cancelled|preempted|shed) echo "$state"; return 1 ;; esac
    sleep 0.1
  done
  echo "timeout"; return 1
}

served_set() { # served_set ID FILE — the job's records, sorted
  curl -sf "http://$ADDR/jobs/$1/result?format=text" | sort > "$2"
}

echo "== park a standing cd query"
curl -sf -X POST "http://$ADDR/jobs" -H 'Content-Type: application/json' \
  -d '{"app":"cd","id":"stand","standing":true}' >/dev/null
state="$(await stand standing)" || { echo "standing job ended $state"; cat "$DIR/daemon.log"; exit 1; }
served_set stand "$DIR/stand-0.txt"
[ -s "$DIR/stand-0.txt" ] \
  || { echo "baseline found no matches; the differential check would be vacuous"; exit 1; }
echo "baseline: $(wc -l < "$DIR/stand-0.txt") matches at epoch 0"

echo "== epoch pin: a submit pinned to a future epoch is rejected with 409"
code="$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$ADDR/jobs" \
  -H 'Content-Type: application/json' -d '{"app":"tc","id":"pinned","epoch":99}')"
[ "$code" = 409 ] || { echo "epoch-pinned submit returned $code, want 409"; exit 1; }

echo "== follow the delta stream across all epochs"
"$DIR/gminer" watch -addr "$ADDR" -raw stand > "$DIR/watch.ndjson" &
WATCH_PID=$!
sleep 0.3

i=0
while IFS= read -r batch; do
  i=$((i + 1))
  echo "== epoch $i: mutate, then compare standing vs snapshot"
  resp="$(curl -sf -X POST "http://$ADDR/graph/mutations" \
    -H 'Content-Type: application/json' -d "$batch")" \
    || { echo "mutation batch $i rejected"; cat "$DIR/daemon.log"; exit 1; }
  echo "$resp" | jq -e ".epoch == $i" >/dev/null \
    || { echo "batch $i: epoch $(echo "$resp" | jq .epoch), want $i"; exit 1; }
  echo "$resp" | jq -c '{epoch, stats, dirty_blocks, moved_blocks, rebuilt_workers}'
  # cd declares a seed radius: its round is dirty-rooted, never a recompute.
  echo "$resp" | jq -e '.standing | length == 1 and all(.incremental == true)' >/dev/null \
    || { echo "batch $i: standing cd delta is not incremental"; echo "$resp" | jq -c .standing; exit 1; }

  # The epoch is visible on every surface.
  curl -sf "http://$ADDR/healthz" | jq -e ".graph_epoch == $i" >/dev/null \
    || { echo "healthz epoch != $i"; exit 1; }
  epoch_metric="$(curl -sf "http://$ADDR/metrics" | awk '/^gminer_graph_epoch /{print $2}')"
  [ "$epoch_metric" = "$i" ] || { echo "gminer_graph_epoch=$epoch_metric, want $i"; exit 1; }

  # Differential gate, serving half: the standing job's accumulated set
  # must equal a from-scratch snapshot of the mutated graph.
  curl -sf -X POST "http://$ADDR/jobs" -H 'Content-Type: application/json' \
    -d "{\"app\":\"cd\",\"id\":\"snap-$i\"}" >/dev/null
  state="$(await "snap-$i" done)" || { echo "snap-$i ended $state"; cat "$DIR/daemon.log"; exit 1; }
  served_set "snap-$i" "$DIR/snap-$i.txt"
  served_set stand "$DIR/stand-$i.txt"
  diff "$DIR/snap-$i.txt" "$DIR/stand-$i.txt" \
    || { echo "epoch $i: standing set diverges from snapshot recompute"; exit 1; }
  echo "epoch $i: standing set == snapshot ($(wc -l < "$DIR/snap-$i.txt") matches)"
done < "$DIR/stream.ndjson"

echo "== job status carries the epoch and round count"
curl -sf "http://$ADDR/jobs/stand" \
  | jq -e ".graph_epoch == $BATCHES and .delta_rounds == $BATCHES" >/dev/null \
  || { echo "standing status wrong"; curl -s "http://$ADDR/jobs/stand"; exit 1; }
rounds="$(curl -sf "http://$ADDR/metrics" | awk '/^gminer_standing_rounds_total{mode="incremental"} /{print $2}')"
[ "${rounds:-0}" -ge "$BATCHES" ] \
  || { echo "gminer_standing_rounds_total{mode=\"incremental\"}=$rounds, want >=$BATCHES"; exit 1; }

echo "== unsubscribe ends the watch stream"
curl -sf -X DELETE "http://$ADDR/jobs/stand" | jq -e '.state == "cancelled"' >/dev/null \
  || { echo "standing job did not cancel"; exit 1; }
wait "$WATCH_PID" 2>/dev/null || true
WATCH_PID=""

echo "== watch stream folds back into the final match set"
docs="$(wc -l < "$DIR/watch.ndjson")"
[ "$docs" = $((BATCHES + 1)) ] \
  || { echo "watch stream has $docs documents, want snapshot + $BATCHES deltas"; cat "$DIR/watch.ndjson"; exit 1; }
head -1 "$DIR/watch.ndjson" | jq -e '.type == "snapshot"' >/dev/null \
  || { echo "watch stream does not open with a snapshot"; exit 1; }
jq -r -s '
  reduce .[] as $d ([];
    if $d.type == "snapshot" then $d.records // []
    elif $d.type == "delta" then (. - ($d.retracted // [])) + ($d.added // [])
    else . end)
  | .[]' "$DIR/watch.ndjson" | sort > "$DIR/reconstructed.txt"
diff "$DIR/reconstructed.txt" "$DIR/snap-$BATCHES.txt" \
  || { echo "watch-stream reconstruction diverges from the final snapshot"; exit 1; }
echo "reconstructed $(wc -l < "$DIR/reconstructed.txt") matches from snapshot + $BATCHES deltas"

kill -TERM "$DAEMON_PID"; wait "$DAEMON_PID" 2>/dev/null || true; DAEMON_PID=""

echo "mutation smoke: OK"
