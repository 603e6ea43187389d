#!/usr/bin/env bash
# scripts/bench.sh [label] — run the headline benchmarks COUNT times, fold
# the results into $BENCH_OUT (per benchmark: minimum, mean, and stddev of
# ns/op over the COUNT runs, one JSON object per recorded label), then diff
# the run against the most recent other BENCH_*.json record and print the
# per-benchmark deltas (also written to scripts/bench-results/delta.md as a
# markdown table for CI summaries).
#
# Labels accumulate in the JSON: run once on the base commit with label
# "before" and once on the PR with the default "after" to record the perf
# trajectory.
#
#   COUNT=5 BENCHTIME=20x scripts/bench.sh before
#   scripts/bench.sh                                  # label "after"
#   # Throwaway smoke runs: point BOTH outputs away from the committed
#   # record, or the stale .out label pollutes the next real regeneration.
#   COUNT=1 BENCHTIME=1x RESULTS_DIR=$(mktemp -d) BENCH_OUT=/tmp/s.json \
#     scripts/bench.sh smoke
#
# BASELINE_LABEL=<label> switches the diff to another label of the SAME
# $BENCH_OUT — i.e. a run recorded earlier on this machine (CI records the
# base commit as "before" in the same job). Same-machine rows carry none of
# the cross-machine constant factor, so in this mode a regression beyond
# ±max(2×stddev, ${MIN_THRESHOLD_PCT}%) fails the script instead of only
# warning.
set -euo pipefail
cd "$(dirname "$0")/.."

label="${1:-after}"
COUNT="${COUNT:-5}"
BENCHTIME="${BENCHTIME:-20x}"
BENCH="${BENCH:-BenchmarkProfilerThroughput\$|BenchmarkProfilerThroughputTreeWalk\$|BenchmarkAnalyzeAll\$|BenchmarkInterpNative\$|BenchmarkInterpNativeTreeWalk\$}"
BENCH_OUT="${BENCH_OUT:-BENCH_PR8.json}"
BASELINE_LABEL="${BASELINE_LABEL:-}"
RESULTS_DIR="${RESULTS_DIR:-scripts/bench-results}"

mkdir -p "$RESULTS_DIR" scripts/bench-results
go test -run NONE -bench "$BENCH" -benchtime "$BENCHTIME" -count "$COUNT" . \
  | tee "$RESULTS_DIR/$label.out"

# Regenerate $BENCH_OUT from every label recorded in $RESULTS_DIR. Each
# benchmark records min (the steady-state estimate the delta gate uses),
# mean, and the sample standard deviation over its runs — the variance
# estimate the ROADMAP asked for before any fail gate.
{
  echo '{'
  first=1
  for f in "$RESULTS_DIR"/*.out; do
    l=$(basename "$f" .out)
    [ "$first" -eq 1 ] || echo ','
    first=0
    printf '  "%s": {' "$l"
    awk '
      /^Benchmark/ {
        name = $1
        sub(/-[0-9]+$/, "", name)
        ns = $3 + 0
        if (!(name in n)) order[++k] = name
        n[name]++; sum[name] += ns; sumsq[name] += ns * ns
        if (!(name in best) || ns < best[name]) best[name] = ns
      }
      END {
        for (i = 1; i <= k; i++) {
          b = order[i]
          mean = sum[b] / n[b]
          sd = 0
          if (n[b] > 1) {
            v = (sumsq[b] - sum[b] * sum[b] / n[b]) / (n[b] - 1)
            if (v > 0) sd = sqrt(v)
          }
          if (i > 1) printf ", "
          printf "\"%s_ns_per_op\": %d, \"%s_mean_ns\": %d, \"%s_stddev_ns\": %d", \
            b, best[b], b, mean, b, sd
        }
      }' "$f"
    printf '}'
  done
  echo
  echo '}'
} > "$BENCH_OUT"
echo "wrote $BENCH_OUT"

# vals_for FILE LABEL SUFFIX — emit "benchmark value" pairs for one metric
# suffix recorded under one label of a BENCH_*.json (labels are one object
# per line by construction).
vals_for() {
  sed -n "s/^ *\"$2\": {\(.*\)}.*$/\1/p" "$1" | tr ',' '\n' \
    | sed 's/[" ]//g' | awk -F: -v suf="$3" '
      NF==2 && $1 ~ suf"$" { sub(suf"$", "", $1); print $1, $2 }'
}

# Diff this run against a baseline. With BASELINE_LABEL the baseline is a
# label of this very $BENCH_OUT — recorded on this machine, so the deltas
# are gated. Otherwise fall back to the newest other BENCH_*.json record
# ("after" values when present, else its first label), warn-only.
delta=scripts/bench-results/delta.md
gate=0
if [ -n "$BASELINE_LABEL" ]; then
  base="$BENCH_OUT"
  baselab="$BASELINE_LABEL"
  gate=1
  if [ -z "$(vals_for "$base" "$baselab" _ns_per_op)" ]; then
    echo "BASELINE_LABEL=$baselab not recorded in $base" | tee "$delta"
    exit 1
  fi
else
  base=$(ls -v BENCH_PR*.json 2>/dev/null | grep -vx "$BENCH_OUT" | tail -1 || true)
  if [ -z "$base" ]; then
    echo "no previous BENCH_*.json to diff against" | tee "$delta"
    exit 0
  fi
  baselab="after"
  if [ -z "$(vals_for "$base" "$baselab" _ns_per_op)" ]; then
    baselab=$(sed -n 's/^ *"\([^"]*\)": {.*/\1/p' "$base" | head -1)
  fi
fi
# Per-benchmark threshold: ±max(2×stddev of this run as a percentage of
# its mean, MIN_THRESHOLD_PCT). Cross-file baselines shift everything by a
# machine constant, so those stay warn-only and a human (or the
# EXPERIMENTS.md same-machine ablation) arbitrates; same-file
# BASELINE_LABEL rows were measured on this machine and fail the script.
MIN_THRESHOLD_PCT="${MIN_THRESHOLD_PCT:-5}"
{
  echo "### Benchmark delta: \`$label\` vs \`$base\` (\`$baselab\`)"
  echo
  echo "| benchmark | $base ns/op | $label ns/op | delta | threshold | status |"
  echo "|---|---:|---:|---:|---:|---|"
  {
    vals_for "$base" "$baselab" _ns_per_op     | sed 's/^/old /'
    vals_for "$BENCH_OUT" "$label" _ns_per_op  | sed 's/^/new /'
    vals_for "$BENCH_OUT" "$label" _mean_ns    | sed 's/^/mean /'
    vals_for "$BENCH_OUT" "$label" _stddev_ns  | sed 's/^/sd /'
  } | awk -v minthr="$MIN_THRESHOLD_PCT" -v gate="$gate" '
    $1 == "old"  { old[$2] = $3; next }
    $1 == "mean" { mean[$2] = $3; next }
    $1 == "sd"   { sd[$2] = $3; next }
    $1 == "new"  { new[$2] = $3; order[++k] = $2 }
    END {
      warned = 0
      for (i = 1; i <= k; i++) {
        b = order[i]
        thr = minthr
        if (b in mean && mean[b] > 0 && 200 * sd[b] / mean[b] > thr)
          thr = 200 * sd[b] / mean[b]
        if (b in old && old[b] > 0) {
          pct = 100 * (new[b] - old[b]) / old[b]
          status = "ok"
          if (pct > thr)       { status = sprintf("⚠️ regression >+%.1f%%", thr); warn[++warned] = sprintf("%s %+.1f%%", b, pct) }
          else if (pct < -thr) { status = sprintf("✅ improvement >-%.1f%%", thr) }
          printf "| %s | %d | %d | %+.1f%% | ±%.1f%% | %s |\n", b, old[b], new[b], pct, thr, status
        } else {
          printf "| %s | - | %d | new | ±%.1f%% | - |\n", b, new[b], thr
        }
      }
      print ""
      if (warned > 0) {
        printf "**%d benchmark(s) beyond their measured-variance threshold:** ", warned
        for (i = 1; i <= warned; i++) printf "%s%s", warn[i], (i < warned ? ", " : "")
        if (gate) {
          print " — same-machine baseline: failing."
          exit 3
        }
        print " — informational only (thresholds are 2×stddev of this run, floored at ±" minthr "%; cross-machine baselines shift absolute numbers, so rerun on one machine before acting)."
      } else {
        print "All deltas within their measured-variance thresholds (±2×stddev, floored at ±" minthr "%)."
      }
    }'
} | tee "$delta"
