#!/usr/bin/env bash
# multiproc_smoke.sh — end-to-end multi-process cluster smoke test.
#
# Phase A: starts a gminerd coordinator plus 3 gminer-worker processes
# (separate OS processes over real TCP sockets), submits three concurrent
# jobs (tc, gm, cd) and requires every served result — records and
# aggregates — to be byte-identical to the single-shot CLI run of the same
# spec on the same dataset.
#
# Phase B: on a larger graph, launches a checkpointing cd job, SIGKILLs
# the worker process holding slot $KILL_INDEX mid-job, starts a
# replacement process claiming the same slot and checkpoint directory, and
# requires the job to complete with records byte-identical to a fault-free
# single-shot run. KILL_INDEX defaults to 1; the chaos-nightly sweep runs
# the script once per slot.
#
# Phase C: rolling restart. With the same checkpointing job shape running,
# SIGTERMs every worker process in sequence — each drains (barrier
# checkpoint, wait for the epoch to commit, detach), exits cleanly, and is
# replaced by a fresh process re-admitted at the next slot generation —
# and requires the job to complete byte-identically. ROLLING_DELAY (a
# sleep inserted after the first epoch commits, default 0) lets the
# chaos-nightly sweep land the first SIGTERM at varied points of the
# checkpoint barrier window.
#
# Phase D: coordinator crash. SIGKILLs the whole cluster — coordinator
# included — mid-job, restarts gminerd with -resume on the same checkpoint
# directory, restarts the workers on their checkpoint directories, and
# requires the held job to be resubmitted automatically and to finish
# byte-identically.
#
# On failure (any failure: set -e + ERR trap), logs are copied to $LOGDIR
# when set — CI uploads that directory as an artifact.
set -euo pipefail

PRESET="${PRESET:-dblp-s}"
SCALE="${SCALE:-0.5}"
# Real processes cannot be held like the in-process soaks (cluster.HoldLastSeed), so phases B-D size the job to outlive the fault instead:
# starting from KILL_SCALE, the scale doubles until the phase-B single-shot
# reference mines for at least KILL_MIN_SECONDS, or up to KILL_SCALE_MAX.
KILL_SCALE="${KILL_SCALE:-32}"
KILL_MIN_SECONDS=1.5
KILL_SCALE_MAX=256
KILL_INDEX="${KILL_INDEX:-1}"
ROLLING_DELAY="${ROLLING_DELAY:-0}"
PORT="${PORT:-17177}"
CLUSTER_PORT="${CLUSTER_PORT:-17178}"
ADDR="127.0.0.1:${PORT}"
CADDR="127.0.0.1:${CLUSTER_PORT}"
WORKERS=3
THREADS=2
DIR="$(mktemp -d)"
PIDS=()

save_logs() {
  if [ -n "${LOGDIR:-}" ]; then
    mkdir -p "$LOGDIR"
    cp "$DIR"/*.log "$LOGDIR"/ 2>/dev/null || true
  fi
}
cleanup() {
  for pid in "${PIDS[@]:-}"; do kill -9 "$pid" 2>/dev/null || true; done
  rm -rf "$DIR"
}
trap 'save_logs' ERR
trap cleanup EXIT

wait_healthy() {
  # Healthy here means HTTP 200: in multi-process mode /healthz is 503
  # ("degraded") until every worker slot has joined.
  local tries=$1
  for _ in $(seq 1 "$tries"); do
    curl -sf "http://$ADDR/healthz" >/dev/null 2>&1 && return 0
    sleep 0.2
  done
  return 1
}

await() {
  local id=$1 deadline=$((SECONDS + 300))
  while [ "$SECONDS" -lt "$deadline" ]; do
    state="$(curl -sf "http://$ADDR/jobs/$id" | sed -n 's/.*"state":"\([a-z]*\)".*/\1/p')"
    case "$state" in done|failed|cancelled|preempted|shed) echo "$state"; return 0 ;; esac
    sleep 0.2
  done
  echo "timeout"; return 1
}

echo "== build"
go build -o "$DIR/gminer" ./cmd/gminer
go build -o "$DIR/gminerd" ./cmd/gminerd
go build -o "$DIR/gminer-worker" ./cmd/gminer-worker

echo "== phase A: single-shot references"
for app in tc gm cd; do
  "$DIR/gminer" -preset "$PRESET" -scale "$SCALE" -app "$app" \
    -workers "$WORKERS" -threads "$THREADS" -out "$DIR/$app.ref.txt" \
    > "$DIR/$app.ref.log" 2>&1
  grep -oE 'aggregate: +.*' "$DIR/$app.ref.log" | awk '{print $2}' \
    > "$DIR/$app.ref.agg" || true
done
[ -s "$DIR/cd.ref.txt" ] || { echo "degenerate cd reference: no records"; exit 1; }

echo "== phase A: start coordinator + $WORKERS worker processes"
"$DIR/gminerd" -preset "$PRESET" -scale "$SCALE" \
  -workers "$WORKERS" -threads "$THREADS" -addr "$ADDR" -max-jobs 4 \
  -cluster-listen "$CADDR" \
  > "$DIR/coord-a.log" 2>&1 &
PIDS+=($!); disown $! 2>/dev/null || true
for i in $(seq 0 $((WORKERS - 1))); do
  "$DIR/gminer-worker" -preset "$PRESET" -scale "$SCALE" \
    -workers "$WORKERS" -threads "$THREADS" \
    -coordinator "$CADDR" -node "$i" \
    > "$DIR/worker-a$i.log" 2>&1 &
  PIDS+=($!); disown $! 2>/dev/null || true
done
wait_healthy 150 || {
  echo "multi-process daemon never became healthy"
  tail -40 "$DIR"/coord-a.log "$DIR"/worker-a*.log; exit 1;
}

echo "== phase A: healthz reports every worker slot up"
health="$(curl -s "http://$ADDR/healthz")"
echo "$health" | grep -q '"status":"ok"' || { echo "healthz not ok: $health"; exit 1; }
up="$(curl -s "http://$ADDR/metrics" | grep -c '^gminer_cluster_worker_up{[^}]*} 1$')" || true
[ "$up" = "$WORKERS" ] || { echo "gminer_cluster_worker_up: $up of $WORKERS up"; exit 1; }

echo "== phase A: 3 concurrent jobs, byte-identical to single-shot"
for app in tc gm cd; do
  curl -sf -X POST "http://$ADDR/jobs" \
    -H 'Content-Type: application/json' \
    -d "{\"app\":\"$app\",\"id\":\"$app\"}" >/dev/null
done
for app in tc gm cd; do
  state="$(await "$app")"
  [ "$state" = done ] || {
    echo "job $app ended $state"
    tail -40 "$DIR"/coord-a.log "$DIR"/worker-a*.log; exit 1;
  }
  curl -sf "http://$ADDR/jobs/$app/result?format=text" > "$DIR/$app.served.txt"
  diff "$DIR/$app.ref.txt" "$DIR/$app.served.txt" \
    || { echo "job $app records diverge from single-shot run"; exit 1; }
done
for app in tc gm; do
  served="$(curl -sf "http://$ADDR/jobs/$app/result" \
    | sed -n 's/.*"aggregate":"\([^"]*\)".*/\1/p')"
  ref="$(cat "$DIR/$app.ref.agg")"
  [ "$served" = "$ref" ] \
    || { echo "job $app aggregate: served '$served' != single-shot '$ref'"; exit 1; }
done
echo "phase A OK: served records byte-identical across process boundaries"

echo "== phase A: teardown"
for pid in "${PIDS[@]}"; do kill -TERM "$pid" 2>/dev/null || true; done
for pid in "${PIDS[@]}"; do wait "$pid" 2>/dev/null || true; done
PIDS=()

echo "== phase B: single-shot reference, sized to mine for at least ${KILL_MIN_SECONDS}s"
while :; do
  "$DIR/gminer" -preset "$PRESET" -scale "$KILL_SCALE" -app cd \
    -workers "$WORKERS" -threads "$THREADS" -out "$DIR/kill.ref.txt" \
    > "$DIR/kill.ref.log" 2>&1
  mined="$(sed -n 's/^mining time: *\([0-9.]*\)s$/\1/p' "$DIR/kill.ref.log")"
  next="$(awk -v s="$KILL_SCALE" 'BEGIN { print s * 2 }')"
  if awk -v m="$mined" -v f="$KILL_MIN_SECONDS" -v n="$next" -v c="$KILL_SCALE_MAX" \
    'BEGIN { exit !(m >= f || n > c) }'; then
    break
  fi
  echo "scale $KILL_SCALE mined in ${mined}s; doubling"
  KILL_SCALE="$next"
done
echo "phases B-D run at scale $KILL_SCALE (reference mined in ${mined}s)"
[ -s "$DIR/kill.ref.txt" ] || { echo "degenerate kill reference: no records"; exit 1; }

echo "== phase B: start checkpointing cluster"
mkdir -p "$DIR/coord-ckpt" "$DIR/wckpt"
"$DIR/gminerd" -preset "$PRESET" -scale "$KILL_SCALE" \
  -workers "$WORKERS" -threads "$THREADS" -addr "$ADDR" -max-jobs 1 \
  -cluster-listen "$CADDR" -checkpoint-dir "$DIR/coord-ckpt" \
  > "$DIR/coord-b.log" 2>&1 &
COORD_PID=$!
PIDS+=($COORD_PID); disown $COORD_PID 2>/dev/null || true
WPIDS=()
for i in $(seq 0 $((WORKERS - 1))); do
  "$DIR/gminer-worker" -preset "$PRESET" -scale "$KILL_SCALE" \
    -workers "$WORKERS" -threads "$THREADS" \
    -coordinator "$CADDR" -node "$i" -checkpoint-dir "$DIR/wckpt/node-$i" \
    > "$DIR/worker-b$i.log" 2>&1 &
  WPIDS+=($!)
  PIDS+=($!); disown $! 2>/dev/null || true
done
wait_healthy 300 || {
  echo "phase B daemon never became healthy"
  tail -40 "$DIR"/coord-b.log "$DIR"/worker-b*.log; exit 1;
}

echo "== phase B: launch checkpointing cd job, SIGKILL worker $KILL_INDEX mid-job"
curl -sf -X POST "http://$ADDR/jobs" \
  -H 'Content-Type: application/json' \
  -d '{"app":"cd","id":"kill","checkpoint_every_seconds":0.1}' >/dev/null
# Kill only after the first epoch commits (the coordinator's MANIFEST
# exists): a kill before any commit exercises plain restart, not recovery.
deadline=$((SECONDS + 120))
while [ ! -f "$DIR/coord-ckpt/kill/MANIFEST" ]; do
  state="$(curl -sf "http://$ADDR/jobs/kill" | sed -n 's/.*"state":"\([a-z]*\)".*/\1/p')"
  [ "$state" = done ] && { echo "job finished before a checkpoint committed; raise KILL_SCALE"; exit 1; }
  [ "$SECONDS" -lt "$deadline" ] || { echo "no checkpoint within 120s"; exit 1; }
  sleep 0.1
done
kill -9 "${WPIDS[$KILL_INDEX]}"
echo "SIGKILLed worker process holding slot $KILL_INDEX (pid ${WPIDS[$KILL_INDEX]})"
state="$(curl -sf "http://$ADDR/jobs/kill" | sed -n 's/.*"state":"\([a-z]*\)".*/\1/p')"
[ "$state" = done ] && { echo "job finished before the kill landed; raise KILL_SCALE"; exit 1; }

echo "== phase B: replacement claims slot $KILL_INDEX and its checkpoints"
"$DIR/gminer-worker" -preset "$PRESET" -scale "$KILL_SCALE" \
  -workers "$WORKERS" -threads "$THREADS" \
  -coordinator "$CADDR" -node "$KILL_INDEX" -checkpoint-dir "$DIR/wckpt/node-$KILL_INDEX" \
  > "$DIR/worker-b$KILL_INDEX-replacement.log" 2>&1 &
PIDS+=($!); disown $! 2>/dev/null || true

state="$(await kill)"
[ "$state" = done ] || {
  echo "kill job ended $state"
  tail -40 "$DIR"/coord-b.log "$DIR"/worker-b*.log; exit 1;
}
curl -sf "http://$ADDR/jobs/kill/result?format=text" > "$DIR/kill.served.txt"
diff "$DIR/kill.ref.txt" "$DIR/kill.served.txt" \
  || { echo "records diverge after kill+recovery"; exit 1; }
grep -q "generation 2" "$DIR/coord-b.log" \
  || { echo "coordinator never re-admitted a generation-2 worker"; tail -40 "$DIR/coord-b.log"; exit 1; }
echo "phase B OK: job survived a SIGKILLed worker process, records byte-identical"

echo "== phase B: teardown"
for pid in "${PIDS[@]}"; do kill -9 "$pid" 2>/dev/null || true; done
for pid in "${PIDS[@]}"; do wait "$pid" 2>/dev/null || true; done
PIDS=()

echo "== phase C: rolling SIGTERM restart of every worker slot"
mkdir -p "$DIR/coord-ckpt-c" "$DIR/wckpt-c"
"$DIR/gminerd" -preset "$PRESET" -scale "$KILL_SCALE" \
  -workers "$WORKERS" -threads "$THREADS" -addr "$ADDR" -max-jobs 1 \
  -cluster-listen "$CADDR" -checkpoint-dir "$DIR/coord-ckpt-c" \
  > "$DIR/coord-c.log" 2>&1 &
PIDS+=($!); disown $! 2>/dev/null || true
WPIDS=()
for i in $(seq 0 $((WORKERS - 1))); do
  "$DIR/gminer-worker" -preset "$PRESET" -scale "$KILL_SCALE" \
    -workers "$WORKERS" -threads "$THREADS" \
    -coordinator "$CADDR" -node "$i" -checkpoint-dir "$DIR/wckpt-c/node-$i" \
    > "$DIR/worker-c$i.log" 2>&1 &
  WPIDS+=($!)
  PIDS+=($!); disown $! 2>/dev/null || true
done
wait_healthy 300 || {
  echo "phase C daemon never became healthy"
  tail -40 "$DIR"/coord-c.log "$DIR"/worker-c*.log; exit 1;
}
curl -sf -X POST "http://$ADDR/jobs" \
  -H 'Content-Type: application/json' \
  -d '{"app":"cd","id":"rolling","checkpoint_every_seconds":0.1}' >/dev/null
deadline=$((SECONDS + 120))
while [ ! -f "$DIR/coord-ckpt-c/rolling/MANIFEST" ]; do
  state="$(curl -sf "http://$ADDR/jobs/rolling" | sed -n 's/.*"state":"\([a-z]*\)".*/\1/p')"
  [ "$state" = done ] && { echo "job finished before a checkpoint committed; raise KILL_SCALE"; exit 1; }
  [ "$SECONDS" -lt "$deadline" ] || { echo "no checkpoint within 120s"; exit 1; }
  sleep 0.1
done
sleep "$ROLLING_DELAY"
for i in $(seq 0 $((WORKERS - 1))); do
  state="$(curl -sf "http://$ADDR/jobs/rolling" | sed -n 's/.*"state":"\([a-z]*\)".*/\1/p')"
  [ "$state" = done ] && { echo "job finished before slot $i restarted; raise KILL_SCALE"; exit 1; }
  kill -TERM "${WPIDS[$i]}"
  # The worker drains: it requests a barrier checkpoint, waits for the
  # epoch to commit, detaches, and only then exits. The pid is disowned,
  # so `wait` would return immediately — poll for exit instead.
  drain_deadline=$((SECONDS + 90))
  while kill -0 "${WPIDS[$i]}" 2>/dev/null; do
    [ "$SECONDS" -lt "$drain_deadline" ] || {
      echo "worker $i never exited after SIGTERM"
      tail -20 "$DIR/worker-c$i.log"; exit 1;
    }
    sleep 0.1
  done
  grep -q "drain complete" "$DIR/worker-c$i.log" \
    || { echo "worker $i did not drain cleanly"; tail -20 "$DIR/worker-c$i.log"; exit 1; }
  "$DIR/gminer-worker" -preset "$PRESET" -scale "$KILL_SCALE" \
    -workers "$WORKERS" -threads "$THREADS" \
    -coordinator "$CADDR" -node "$i" -checkpoint-dir "$DIR/wckpt-c/node-$i" \
    > "$DIR/worker-c$i-replacement.log" 2>&1 &
  WPIDS[$i]=$!
  PIDS+=($!); disown $! 2>/dev/null || true
  wait_healthy 300 || {
    echo "slot $i replacement never rejoined"
    tail -40 "$DIR"/coord-c.log "$DIR/worker-c$i-replacement.log"; exit 1;
  }
  echo "slot $i drained, detached and was replaced at the next generation"
done
state="$(await rolling)"
[ "$state" = done ] || {
  echo "rolling job ended $state"
  tail -40 "$DIR"/coord-c.log "$DIR"/worker-c*.log; exit 1;
}
curl -sf "http://$ADDR/jobs/rolling/result?format=text" > "$DIR/rolling.served.txt"
diff "$DIR/kill.ref.txt" "$DIR/rolling.served.txt" \
  || { echo "records diverge after rolling restart"; exit 1; }
grep -q "generation 2" "$DIR/coord-c.log" \
  || { echo "coordinator never re-admitted a generation-2 worker"; tail -40 "$DIR/coord-c.log"; exit 1; }
echo "phase C OK: job survived a rolling restart of every slot, records byte-identical"

echo "== phase C: teardown"
for pid in "${PIDS[@]}"; do kill -9 "$pid" 2>/dev/null || true; done
for pid in "${PIDS[@]}"; do wait "$pid" 2>/dev/null || true; done
PIDS=()

echo "== phase D: coordinator crash + -resume"
mkdir -p "$DIR/coord-ckpt-d" "$DIR/wckpt-d"
"$DIR/gminerd" -preset "$PRESET" -scale "$KILL_SCALE" \
  -workers "$WORKERS" -threads "$THREADS" -addr "$ADDR" -max-jobs 1 \
  -cluster-listen "$CADDR" -checkpoint-dir "$DIR/coord-ckpt-d" \
  > "$DIR/coord-d.log" 2>&1 &
COORD_PID=$!
PIDS+=($COORD_PID); disown $COORD_PID 2>/dev/null || true
WPIDS=()
for i in $(seq 0 $((WORKERS - 1))); do
  "$DIR/gminer-worker" -preset "$PRESET" -scale "$KILL_SCALE" \
    -workers "$WORKERS" -threads "$THREADS" \
    -coordinator "$CADDR" -node "$i" -checkpoint-dir "$DIR/wckpt-d/node-$i" \
    > "$DIR/worker-d$i.log" 2>&1 &
  WPIDS+=($!)
  PIDS+=($!); disown $! 2>/dev/null || true
done
wait_healthy 300 || {
  echo "phase D daemon never became healthy"
  tail -40 "$DIR"/coord-d.log "$DIR"/worker-d*.log; exit 1;
}
curl -sf -X POST "http://$ADDR/jobs" \
  -H 'Content-Type: application/json' \
  -d '{"app":"cd","id":"held","checkpoint_every_seconds":0.1}' >/dev/null
deadline=$((SECONDS + 120))
while [ ! -f "$DIR/coord-ckpt-d/held/MANIFEST" ]; do
  state="$(curl -sf "http://$ADDR/jobs/held" | sed -n 's/.*"state":"\([a-z]*\)".*/\1/p')"
  [ "$state" = done ] && { echo "job finished before a checkpoint committed; raise KILL_SCALE"; exit 1; }
  [ "$SECONDS" -lt "$deadline" ] || { echo "no checkpoint within 120s"; exit 1; }
  sleep 0.1
done
state="$(curl -sf "http://$ADDR/jobs/held" | sed -n 's/.*"state":"\([a-z]*\)".*/\1/p')"
[ "$state" = done ] && { echo "job finished before the coordinator crash; raise KILL_SCALE"; exit 1; }
echo "SIGKILLing the whole cluster (coordinator pid $COORD_PID + workers) mid-job"
for pid in "${PIDS[@]}"; do kill -9 "$pid" 2>/dev/null || true; done
# The pids are disowned; poll for exit so the listen ports are free
# before the restarted coordinator binds them.
for pid in "${PIDS[@]}"; do
  while kill -0 "$pid" 2>/dev/null; do sleep 0.05; done
done
PIDS=()

echo "== phase D: restart coordinator with -resume, workers rejoin with held epochs"
"$DIR/gminerd" -preset "$PRESET" -scale "$KILL_SCALE" \
  -workers "$WORKERS" -threads "$THREADS" -addr "$ADDR" -max-jobs 1 \
  -cluster-listen "$CADDR" -checkpoint-dir "$DIR/coord-ckpt-d" -resume \
  > "$DIR/coord-d-resumed.log" 2>&1 &
PIDS+=($!); disown $! 2>/dev/null || true
for i in $(seq 0 $((WORKERS - 1))); do
  "$DIR/gminer-worker" -preset "$PRESET" -scale "$KILL_SCALE" \
    -workers "$WORKERS" -threads "$THREADS" \
    -coordinator "$CADDR" -node "$i" -checkpoint-dir "$DIR/wckpt-d/node-$i" \
    > "$DIR/worker-d$i-resumed.log" 2>&1 &
  PIDS+=($!); disown $! 2>/dev/null || true
done
wait_healthy 300 || {
  echo "resumed daemon never became healthy"
  tail -40 "$DIR"/coord-d-resumed.log "$DIR"/worker-d*-resumed.log; exit 1;
}
state="$(await held)"
[ "$state" = done ] || {
  echo "resumed job ended $state"
  tail -40 "$DIR"/coord-d-resumed.log "$DIR"/worker-d*-resumed.log; exit 1;
}
grep -q "resume: job held resubmitted" "$DIR/coord-d-resumed.log" \
  || { echo "coordinator did not resubmit the held job"; tail -40 "$DIR/coord-d-resumed.log"; exit 1; }
curl -sf "http://$ADDR/jobs/held/result?format=text" > "$DIR/held.served.txt"
diff "$DIR/kill.ref.txt" "$DIR/held.served.txt" \
  || { echo "records diverge after coordinator -resume"; exit 1; }
echo "phase D OK: job survived a full-cluster crash + coordinator -resume, records byte-identical"

echo "multiproc smoke: OK"
