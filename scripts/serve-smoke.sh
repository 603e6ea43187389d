#!/usr/bin/env bash
# scripts/serve-smoke.sh — four-part end-to-end check of the service
# subsystem. Part 1 boots a single dp-serve on a random port, checks
# /healthz and /metrics, submits one analysis, asserts the fleet counters
# moved, resubmits it and asserts the node's report memo answered without
# rebuilding CUs, and asserts rejected submissions are counted by reason.
# Part 2 boots a 2-node fleet (worker + coordinator with -peers), submits
# a batch through the coordinator, asserts the worker's own job counters
# advanced (the work really ran remotely), then resubmits one job and
# asserts the coordinator answered it from its report memo. Part 3 is the
# trust-and-durability drill: boot with -tokens, -journal, and a tiny
# -journal-max-records, assert 401/202 and the rate-limit 429, run jobs
# past the compaction threshold (asserting the journal compacted),
# SIGKILL the node, restart on the same journal, and assert the
# pre-restart records (results included) are restored from a bounded
# replay, with the idempotency key deduping onto the original job.
# Part 4 is observability: fetch a finished job's Chrome trace and
# validate it with a JSON parser, check /v1/debug/recent, pull a gzipped
# workload pprof profile, and run a dp-profile -pprof export through
# `go tool pprof -top`.
# The CI serve-smoke job runs this; it is also the quickest local check
# of the service.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN="${BIN:-$(mktemp -d)/dp-serve}"
LOG="$(mktemp)"
go build -o "$BIN" ./cmd/dp-serve

"$BIN" -addr 127.0.0.1:0 -jobs 2 >"$LOG" 2>&1 &
SRV=$!
trap 'kill -TERM "$SRV" 2>/dev/null || true; wait "$SRV" 2>/dev/null || true' EXIT

# The first stdout line reports the resolved address; wait for it.
PORT=""
for _ in $(seq 1 50); do
  PORT=$(sed -n 's/.*listening on .*:\([0-9][0-9]*\)$/\1/p' "$LOG")
  [ -n "$PORT" ] && break
  sleep 0.1
done
[ -n "$PORT" ] || { echo "dp-serve never reported its port"; cat "$LOG"; exit 1; }
BASE="http://127.0.0.1:$PORT"
echo "dp-serve up on $BASE"

fail() { echo "FAIL: $1"; cat "$LOG"; exit 1; }

[ "$(curl -s -o /dev/null -w '%{http_code}' "$BASE/healthz")" = 200 ] \
  || fail "/healthz not 200"

code=$(curl -s -o /tmp/metrics0.txt -w '%{http_code}' "$BASE/metrics")
[ "$code" = 200 ] || fail "/metrics not 200"
grep -q '^# TYPE dp_queue_latency_seconds histogram' /tmp/metrics0.txt \
  || fail "no queue-latency histogram declared"

# Submit one analysis and wait for it inline.
resp=$(curl -s -XPOST "$BASE/v1/analyze" -d '{"workload":"histogram"}')
id=$(echo "$resp" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$id" ] || fail "no job id in $resp"
job=$(curl -s "$BASE/v1/jobs/$id?wait=30s")
echo "$job" | grep -q '"state":"done"' || fail "job did not finish: $job"
echo "$job" | grep -q '"suggestions":\[{' || fail "job has no suggestions: $job"

# The scrape must now show non-empty fleet counters: a completed job,
# executed instructions, pool traffic, and populated histogram buckets.
curl -sf "$BASE/metrics" > /tmp/metrics1.txt || fail "/metrics scrape failed"
check_pos() {
  v=$(sed -n "s/^$1 \([0-9.e+]*\)$/\1/p" /tmp/metrics1.txt)
  [ -n "$v" ] || fail "metric $1 missing"
  awk -v v="$v" 'BEGIN { exit (v > 0 ? 0 : 1) }' || fail "metric $1 = $v, want > 0"
}
check_pos dp_jobs_submitted_total
check_pos dp_jobs_completed_total
check_pos dp_instrs_total
check_pos dp_pool_gets_total
check_pos dp_pool_fresh_total
check_pos dp_queue_latency_seconds_count
grep -q 'dp_stage_seconds_total{stage="profile"}' /tmp/metrics1.txt \
  || fail "no per-stage counter"

# A repeat of the same job is answered from the node's report memo: a cache
# hit that runs no stage, so the build-cus stage time does not move.
cus_before=$(sed -n 's/^dp_stage_seconds_total{stage="build-cus"} \(.*\)$/\1/p' /tmp/metrics1.txt)
[ -n "$cus_before" ] || fail "no build-cus stage counter"
resp=$(curl -s -XPOST "$BASE/v1/analyze" -d '{"workload":"histogram"}')
id=$(echo "$resp" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$id" ] || fail "no job id for the repeat in $resp"
job=$(curl -s "$BASE/v1/jobs/$id?wait=30s")
echo "$job" | grep -q '"cache_hit":true' || fail "repeat not answered from the memo: $job"
curl -sf "$BASE/metrics" > /tmp/metrics1b.txt || fail "/metrics scrape failed"
grep -q '^dp_report_cache_hits_total 1$' /tmp/metrics1b.txt \
  || fail "the memo hit was not counted"
cus_after=$(sed -n 's/^dp_stage_seconds_total{stage="build-cus"} \(.*\)$/\1/p' /tmp/metrics1b.txt)
[ "$cus_after" = "$cus_before" ] \
  || fail "a memo hit rebuilt CUs (build-cus seconds $cus_before -> $cus_after)"

# The memo is the node's only table: no profile cache is exported, and the
# same job with other ranking options misses the memo and profiles again.
grep -q '^dp_profile_cache_' /tmp/metrics1b.txt \
  && fail "/metrics exports a profile cache"
resp=$(curl -s -XPOST "$BASE/v1/analyze" -d '{"workload":"histogram","threads":4}')
id=$(echo "$resp" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$id" ] || fail "no job id for the threads variant in $resp"
job=$(curl -s "$BASE/v1/jobs/$id?wait=30s")
echo "$job" | grep -q '"cache_hit":false' || fail "threads variant answered from a cache: $job"

# Rejected submissions must be counted by reason: a malformed body and a
# bad serialized module each land in their category.
curl -s -XPOST "$BASE/v1/analyze" -d 'this is not json' >/dev/null
curl -s -XPOST "$BASE/v1/analyze" -d '{"module":"AAAAnotamodule"}' >/dev/null
curl -sf "$BASE/metrics" > /tmp/metrics2.txt || fail "/metrics scrape failed"
grep -q 'dp_jobs_rejected_total{reason="body"} 1' /tmp/metrics2.txt \
  || fail "body rejection not counted"
grep -q 'dp_jobs_rejected_total{reason="decode"} 1' /tmp/metrics2.txt \
  || fail "decode rejection not counted"

# Bytecode compile cache: the counters and compile-time histogram are
# exposed, and resubmitting an identical inline module — which never
# consults the report memo — is served by the compile cache: the second
# submission raises the hit counter instead of compiling again.
grep -q '^dp_compile_cache_misses_total ' /tmp/metrics2.txt \
  || fail "compile-cache counters missing"
grep -q '^# TYPE dp_compile_seconds histogram' /tmp/metrics2.txt \
  || fail "no compile-time histogram declared"
cc_before=$(sed -n 's/^dp_compile_cache_hits_total \([0-9.e+]*\)$/\1/p' /tmp/metrics2.txt)
INLINE='{"inline":{"name":"smoke-ccache","kernels":[{"pattern":"doall","n":512}]}}'
for _ in 1 2; do
  resp=$(curl -s -XPOST "$BASE/v1/analyze" -d "$INLINE")
  id=$(echo "$resp" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
  [ -n "$id" ] || fail "no job id for inline submission in $resp"
  job=$(curl -s "$BASE/v1/jobs/$id?wait=30s")
  echo "$job" | grep -q '"state":"done"' || fail "inline job did not finish: $job"
done
curl -sf "$BASE/metrics" > /tmp/metrics_cc.txt || fail "/metrics scrape failed"
cc_after=$(sed -n 's/^dp_compile_cache_hits_total \([0-9.e+]*\)$/\1/p' /tmp/metrics_cc.txt)
awk -v a="${cc_before:-0}" -v b="${cc_after:-0}" 'BEGIN { exit (b > a ? 0 : 1) }' \
  || fail "repeat inline submission did not hit the compile cache (hits $cc_before -> $cc_after)"

# Graceful drain: SIGTERM must end the process cleanly.
kill -TERM "$SRV"
for _ in $(seq 1 50); do
  kill -0 "$SRV" 2>/dev/null || break
  sleep 0.1
done
kill -0 "$SRV" 2>/dev/null && fail "dp-serve still running after SIGTERM"
wait "$SRV" 2>/dev/null || true
grep -q "drained cleanly" "$LOG" || fail "no clean-drain log line"
trap - EXIT
echo "single-node smoke OK"

# ---------------------------------------------------------------------------
# Part 2: 2-node fleet. A worker plus a coordinator started with -peers;
# a batch submitted to the coordinator must be analyzed BY THE WORKER,
# visible in the worker's own dp_jobs_completed_total and the
# coordinator's per-peer proxy counters; a repeat of one of them must not be.

WLOG="$(mktemp)"; CLOG="$(mktemp)"
CPID=""  # set once the coordinator boots; the trap must survive set -u before then
"$BIN" -addr 127.0.0.1:0 -jobs 2 >"$WLOG" 2>&1 &
WPID=$!
trap 'kill -TERM $WPID $CPID 2>/dev/null || true; wait 2>/dev/null || true' EXIT
WPORT=""
for _ in $(seq 1 50); do
  WPORT=$(sed -n 's/.*listening on .*:\([0-9][0-9]*\)$/\1/p' "$WLOG")
  [ -n "$WPORT" ] && break
  sleep 0.1
done
[ -n "$WPORT" ] || { echo "worker never reported its port"; cat "$WLOG"; exit 1; }

"$BIN" -addr 127.0.0.1:0 -jobs 2 -peers "http://127.0.0.1:$WPORT" >"$CLOG" 2>&1 &
CPID=$!
CPORT=""
for _ in $(seq 1 50); do
  CPORT=$(sed -n 's/.*listening on .*:\([0-9][0-9]*\)$/\1/p' "$CLOG")
  [ -n "$CPORT" ] && break
  sleep 0.1
done
[ -n "$CPORT" ] || { echo "coordinator never reported its port"; cat "$CLOG"; exit 1; }
WBASE="http://127.0.0.1:$WPORT"; CBASE="http://127.0.0.1:$CPORT"
echo "fleet up: worker $WBASE, coordinator $CBASE"

ffail() { echo "FAIL: $1"; echo "--- worker"; cat "$WLOG"; echo "--- coordinator"; cat "$CLOG"; exit 1; }

for w in histogram matmul EP; do
  resp=$(curl -s -XPOST "$CBASE/v1/analyze" -d "{\"workload\":\"$w\"}")
  id=$(echo "$resp" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
  [ -n "$id" ] || ffail "no job id for $w in $resp"
  job=$(curl -s "$CBASE/v1/jobs/$id?wait=30s")
  echo "$job" | grep -q '"state":"done"' || ffail "fleet job $w did not finish: $job"
  echo "$job" | grep -q "\"peer\":\"http://127.0.0.1:$WPORT\"" \
    || ffail "fleet job $w not attributed to the worker: $job"
done

# The worker's own counters must account for the batch...
wjobs=$(curl -s "$WBASE/metrics" | sed -n 's/^dp_jobs_completed_total \([0-9.e+]*\)$/\1/p')
awk -v v="${wjobs:-0}" 'BEGIN { exit (v >= 3 ? 0 : 1) }' \
  || ffail "worker completed $wjobs jobs, want >= 3"
# ...and the coordinator's proxy counters must agree.
curl -s "$CBASE/metrics" > /tmp/metrics3.txt
grep -q "dp_peer_jobs_total{peer=\"http://127.0.0.1:$WPORT\"} 3" /tmp/metrics3.txt \
  || ffail "coordinator per-peer job counter wrong"
grep -q 'dp_remote_fallbacks_total 0' /tmp/metrics3.txt \
  || ffail "coordinator fell back locally with a healthy worker"

# A repeat of a job the fleet has analyzed is answered from the
# coordinator's report memo: a cache hit with no peer, and neither the
# worker's nor the per-peer job counters move.
resp=$(curl -s -XPOST "$CBASE/v1/analyze" -d '{"workload":"histogram"}')
id=$(echo "$resp" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$id" ] || ffail "no job id for the repeat in $resp"
job=$(curl -s "$CBASE/v1/jobs/$id?wait=30s")
echo "$job" | grep -q '"state":"done"' || ffail "repeat job did not finish: $job"
echo "$job" | grep -q '"cache_hit":true' || ffail "repeat not answered from the memo: $job"
if echo "$job" | grep -q '"peer"'; then ffail "memo answer names a peer: $job"; fi
wjobs=$(curl -s "$WBASE/metrics" | sed -n 's/^dp_jobs_completed_total \([0-9.e+]*\)$/\1/p')
[ "$wjobs" = 3 ] || ffail "worker completed $wjobs jobs after the repeat, want 3"
curl -s "$CBASE/metrics" > /tmp/metrics3b.txt
grep -q "dp_peer_jobs_total{peer=\"http://127.0.0.1:$WPORT\"} 3" /tmp/metrics3b.txt \
  || ffail "per-peer job counter moved on a memo hit"
grep -q '^dp_report_cache_hits_total 1$' /tmp/metrics3b.txt \
  || ffail "coordinator did not count the memo hit"
grep -q '^dp_profile_cache_' /tmp/metrics3b.txt \
  && ffail "coordinator exports a profile cache"

kill -TERM "$CPID" "$WPID"
for _ in $(seq 1 50); do
  kill -0 "$CPID" 2>/dev/null || kill -0 "$WPID" 2>/dev/null || break
  sleep 0.1
done
wait "$CPID" "$WPID" 2>/dev/null || true
grep -q "drained cleanly" "$CLOG" || ffail "coordinator did not drain cleanly"
grep -q "drained cleanly" "$WLOG" || ffail "worker did not drain cleanly"
trap - EXIT
echo "fleet smoke OK"

# ---------------------------------------------------------------------------
# Part 3: trust and durability. One node with bearer auth, a per-client
# rate limit, and a job journal with a compaction threshold small enough
# that the run's own traffic rotates the log. The node is SIGKILLed (no
# drain) and restarted on the same journal: the finished jobs must come
# back with their results from a replay bounded by the compacted log —
# not the full 3-records-per-job history — and the original idempotency
# key must dedupe onto its pre-restart job.

JDIR="$(mktemp -d)"; JPATH="$JDIR/jobs.journal"; HLOG="$(mktemp)"
TOKEN="smoke-secret-token"
AUTH="Authorization: Bearer $TOKEN"

"$BIN" -addr 127.0.0.1:0 -jobs 1 -tokens "$TOKEN=smoke" -journal "$JPATH" \
  -journal-max-records 6 >"$HLOG" 2>&1 &
HPID=$!
trap 'kill -9 $HPID 2>/dev/null || true; wait 2>/dev/null || true' EXIT
HPORT=""
for _ in $(seq 1 50); do
  HPORT=$(sed -n 's/.*listening on .*:\([0-9][0-9]*\)$/\1/p' "$HLOG")
  [ -n "$HPORT" ] && break
  sleep 0.1
done
[ -n "$HPORT" ] || { echo "hardened node never reported its port"; cat "$HLOG"; exit 1; }
HBASE="http://127.0.0.1:$HPORT"
echo "hardened node up on $HBASE (journal $JPATH)"

hfail() { echo "FAIL: $1"; cat "$HLOG"; exit 1; }

# Auth: /v1 is closed without the token, open endpoints are not.
[ "$(curl -s -o /dev/null -w '%{http_code}' "$HBASE/v1/jobs")" = 401 ] \
  || hfail "/v1/jobs without token not 401"
[ "$(curl -s -o /dev/null -w '%{http_code}' "$HBASE/healthz")" = 200 ] \
  || hfail "/healthz closed by auth"
[ "$(curl -s -o /dev/null -w '%{http_code}' -XPOST "$HBASE/v1/analyze" \
      -d '{"workload":"histogram"}')" = 401 ] \
  || hfail "unauthenticated analyze not 401"

# A journaled job under an idempotency key, completed before the kill.
resp=$(curl -s -XPOST "$HBASE/v1/analyze" -H "$AUTH" \
  -H 'Idempotency-Key: smoke-k1' -d '{"workload":"histogram"}')
DONE_ID=$(echo "$resp" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$DONE_ID" ] || hfail "no job id in $resp"
job=$(curl -s -H "$AUTH" "$HBASE/v1/jobs/$DONE_ID?wait=30s")
echo "$job" | grep -q '"state":"done"' || hfail "journaled job did not finish: $job"

# Drive the journal past its 6-record compaction threshold: each job
# appends 3 records (accepted/started/finished), so this batch forces at
# least one snapshot rotation while the node is live.
NJOBS=9  # total journaled jobs this incarnation, DONE_ID included
for _ in $(seq 1 $((NJOBS - 1))); do
  resp=$(curl -s -XPOST "$HBASE/v1/analyze" -H "$AUTH" -d '{"workload":"histogram"}')
  jid=$(echo "$resp" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
  [ -n "$jid" ] || hfail "no job id in compaction-batch response $resp"
  curl -s -H "$AUTH" "$HBASE/v1/jobs/$jid?wait=30s" | grep -q '"state":"done"' \
    || hfail "compaction-batch job $jid did not finish"
done
curl -s "$HBASE/metrics" > /tmp/metrics_compact.txt
ncompact=$(sed -n 's/^dp_journal_compactions_total \([0-9.e+]*\)$/\1/p' /tmp/metrics_compact.txt)
awk -v v="${ncompact:-0}" 'BEGIN { exit (v >= 1 ? 0 : 1) }' \
  || hfail "journal never compacted (dp_journal_compactions_total=$ncompact after $NJOBS jobs over a 6-record threshold)"

# Give the batched fsync its few-millisecond window, then kill -9: no
# drain, no journal close — recovery must come from replay alone.
sleep 0.3
kill -9 "$HPID"
wait "$HPID" 2>/dev/null || true
echo "node SIGKILLed; restarting on the same journal"

"$BIN" -addr 127.0.0.1:0 -jobs 1 -tokens "$TOKEN=smoke" -journal "$JPATH" \
  -rate 2 -burst 1 >"$HLOG" 2>&1 &
HPID=$!
HPORT=""
for _ in $(seq 1 50); do
  HPORT=$(sed -n 's/.*listening on .*:\([0-9][0-9]*\)$/\1/p' "$HLOG")
  [ -n "$HPORT" ] && break
  sleep 0.1
done
[ -n "$HPORT" ] || { echo "restarted node never reported its port"; cat "$HLOG"; exit 1; }
HBASE="http://127.0.0.1:$HPORT"
grep -q "journal .* replayed" "$HLOG" || hfail "restart did not replay the journal"

# The pre-restart record survives, result included, and /v1/jobs lists it.
job=$(curl -s -H "$AUTH" "$HBASE/v1/jobs/$DONE_ID")
echo "$job" | grep -q '"state":"done"' || hfail "restored job not done: $job"
echo "$job" | grep -q '"suggestions":\[{' || hfail "restored job lost its result: $job"
curl -s -H "$AUTH" "$HBASE/v1/jobs" | grep -q "\"id\":\"$DONE_ID\"" \
  || hfail "restored job missing from the listing"

# The original idempotency key dedupes onto the pre-restart record.
resp=$(curl -s -XPOST "$HBASE/v1/analyze" -H "$AUTH" \
  -H 'Idempotency-Key: smoke-k1' -d '{"workload":"histogram"}')
echo "$resp" | grep -q "\"id\":\"$DONE_ID\"" \
  || hfail "idempotent resubmit got a new job: $resp (want $DONE_ID)"

# Rate limiting: with -rate 2 -burst 1 a rapid burst must hit 429 with a
# Retry-After header, counted under reason="ratelimit".
got429=""
for _ in 1 2 3 4 5 6; do
  hdrs=$(curl -s -D - -o /dev/null -XPOST "$HBASE/v1/analyze" -H "$AUTH" \
    -d '{"workload":"histogram"}')
  if echo "$hdrs" | grep -q '^HTTP/[0-9.]* 429'; then
    got429=yes
    echo "$hdrs" | grep -qi '^Retry-After: [0-9]' || hfail "429 without Retry-After"
    break
  fi
done
[ -n "$got429" ] || hfail "burst never hit the rate limit"
# Rejection counters are in-memory (only job records are journaled), so
# provoke one auth rejection on this incarnation before scraping.
[ "$(curl -s -o /dev/null -w '%{http_code}' "$HBASE/v1/jobs")" = 401 ] \
  || hfail "restarted node serves /v1 without a token"
curl -s "$HBASE/metrics" > /tmp/metrics4.txt
grep -q 'dp_jobs_rejected_total{reason="auth"}' /tmp/metrics4.txt \
  || hfail "auth rejections not labeled in /metrics"
grep -q 'dp_jobs_rejected_total{reason="ratelimit"}' /tmp/metrics4.txt \
  || hfail "ratelimit rejections not labeled in /metrics"
grep -q '^dp_journal_replayed_records ' /tmp/metrics4.txt \
  || hfail "journal replay gauge missing from /metrics"
# Compaction bounded the boot: an uncompacted log would replay the full
# 3-records-per-job history (3 * NJOBS); the rotated one must replay less.
replayed=$(sed -n 's/^dp_journal_replayed_records \([0-9.e+]*\)$/\1/p' /tmp/metrics4.txt)
awk -v v="${replayed:-0}" -v n="$NJOBS" 'BEGIN { exit (v > 0 && v < 3 * n ? 0 : 1) }' \
  || hfail "restart replayed $replayed records for $NJOBS jobs — compaction did not bound the log"

kill -TERM "$HPID"
for _ in $(seq 1 50); do
  kill -0 "$HPID" 2>/dev/null || break
  sleep 0.1
done
kill -0 "$HPID" 2>/dev/null && hfail "hardened node still running after SIGTERM"
wait "$HPID" 2>/dev/null || true
grep -q "drained cleanly" "$HLOG" || hfail "hardened node did not drain cleanly"
trap - EXIT
rm -rf "$JDIR"
echo "hardened smoke OK"

# ---------------------------------------------------------------------------
# Part 4: observability. A finished job's trace must render as valid
# Chrome trace-event JSON with the expected spans, the recent-jobs ring
# must summarize it, the workload pprof endpoint must serve non-empty
# gzip, and a dp-profile -pprof export must be accepted by `go tool
# pprof -top`.

OLOG="$(mktemp)"
"$BIN" -addr 127.0.0.1:0 -jobs 1 >"$OLOG" 2>&1 &
OPID=$!
trap 'kill -TERM $OPID 2>/dev/null || true; wait 2>/dev/null || true' EXIT
OPORT=""
for _ in $(seq 1 50); do
  OPORT=$(sed -n 's/.*listening on .*:\([0-9][0-9]*\)$/\1/p' "$OLOG")
  [ -n "$OPORT" ] && break
  sleep 0.1
done
[ -n "$OPORT" ] || { echo "obs node never reported its port"; cat "$OLOG"; exit 1; }
OBASE="http://127.0.0.1:$OPORT"
echo "obs node up on $OBASE"

ofail() { echo "FAIL: $1"; cat "$OLOG"; exit 1; }

resp=$(curl -s -XPOST "$OBASE/v1/analyze" -d '{"workload":"histogram"}')
id=$(echo "$resp" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$id" ] || ofail "no job id in $resp"
job=$(curl -s "$OBASE/v1/jobs/$id?wait=30s")
echo "$job" | grep -q '"state":"done"' || ofail "obs job did not finish: $job"

# The trace must be valid JSON with complete events for the job root and
# the pipeline stages (validated by a real JSON parser, not grep alone).
curl -sf "$OBASE/v1/jobs/$id/trace" > /tmp/trace.json || ofail "trace fetch failed"
python3 - <<'PY' /tmp/trace.json || ofail "trace is not valid Chrome trace JSON"
import json, sys
with open(sys.argv[1]) as f:
    t = json.load(f)
events = t["traceEvents"]
names = {e["name"] for e in events if e.get("ph") == "X"}
missing = {"job", "queue", "profile"} - names
assert not missing, f"missing spans: {missing} (got {names})"
assert all(e["dur"] >= 0 for e in events if e.get("ph") == "X")
PY
curl -sf "$OBASE/v1/jobs/$id/trace?format=text" | grep -q "trace $id" \
  || ofail "text trace missing header"

# The finished job is summarized in the recent ring with stage timings.
curl -sf "$OBASE/v1/debug/recent" | grep -q "\"id\":\"$id\"" \
  || ofail "job missing from /v1/debug/recent"
curl -sf "$OBASE/v1/debug/recent" | grep -q '"stage_ms"' \
  || ofail "recent entry has no stage_ms"

# Workload pprof endpoint: non-empty gzip (1f 8b magic).
curl -sf "$OBASE/v1/workloads/histogram/profile?scale=1" > /tmp/workload.pb.gz \
  || ofail "workload profile fetch failed"
[ -s /tmp/workload.pb.gz ] || ofail "workload profile is empty"
magic=$(od -An -tx1 -N2 /tmp/workload.pb.gz | tr -d ' \n')
[ "$magic" = "1f8b" ] || ofail "workload profile is not gzip (magic $magic)"

kill -TERM "$OPID"
for _ in $(seq 1 50); do
  kill -0 "$OPID" 2>/dev/null || break
  sleep 0.1
done
wait "$OPID" 2>/dev/null || true
trap - EXIT

# dp-profile -pprof round trip through the real pprof tool.
PBIN="$(dirname "$BIN")/dp-profile"
go build -o "$PBIN" ./cmd/dp-profile
"$PBIN" -workload histogram -pprof /tmp/histogram.pb.gz >/dev/null 2>&1 \
  || ofail "dp-profile -pprof failed"
go tool pprof -top /tmp/histogram.pb.gz > /tmp/pprof-top.txt 2>&1 \
  || ofail "go tool pprof rejected the profile: $(cat /tmp/pprof-top.txt)"
grep -q 'instructions' /tmp/pprof-top.txt \
  || ofail "pprof -top does not show the instructions sample type: $(cat /tmp/pprof-top.txt)"
echo "observability smoke OK"

echo "serve smoke OK (single node + 2-node fleet + auth/journal crash-restart + observability)"
