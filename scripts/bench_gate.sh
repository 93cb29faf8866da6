#!/usr/bin/env bash
# Regression gate over the derived bench metrics. Compares a fresh snapshot
# (generated via scripts/bench_snapshot.sh, or supplied with --fresh FILE)
# against the committed baseline BENCH_pipeline.json and exits nonzero when
# any derived metric regresses by more than the tolerance.
#
#   scripts/bench_gate.sh                 # run benches, gate vs BENCH_pipeline.json
#   scripts/bench_gate.sh --fresh f.json  # gate a pre-generated snapshot
#   scripts/bench_gate.sh --self-test     # no benches: verify the gate logic
#
# Direction awareness: keys containing "speedup", "per_s" (so "per_second"
# too), or "ratio" are higher-is-better (a regression is a DROP), keys ending in "_ms" are
# lower-is-better (a regression is a RISE). Tolerance is relative; override the default 15%
# with BENCH_GATE_TOLERANCE (e.g. 0.25 in noisy CI), and the baseline path
# with BENCH_GATE_BASELINE.
set -euo pipefail
cd "$(dirname "$0")/.."

baseline=${BENCH_GATE_BASELINE:-BENCH_pipeline.json}
tolerance=${BENCH_GATE_TOLERANCE:-0.15}
fresh=""
self_test=false

while [ $# -gt 0 ]; do
  case "$1" in
    --fresh)
      [ $# -ge 2 ] || { echo "bench_gate: --fresh needs a file argument" >&2; exit 2; }
      fresh=$2; shift 2 ;;
    --self-test)
      self_test=true; shift ;;
    *)
      echo "bench_gate: unknown argument '$1'" >&2
      echo "usage: scripts/bench_gate.sh [--fresh FILE] [--self-test]" >&2
      exit 2 ;;
  esac
done

# Extracts the "derived" block of a snapshot as "key value" lines. The
# snapshots are machine-written with one key per line, so line-oriented
# parsing is reliable and keeps the gate dependency-free (no jq in the
# container).
derived_metrics() {
  awk '
    /"derived": \{/ { in_block = 1; next }
    in_block && /\}/ { exit }
    in_block {
      line = $0
      gsub(/[",:]/, " ", line)
      split(line, f, " ")
      if (f[1] != "") print f[1], f[2]
    }
  ' "$1"
}

# compare BASELINE_FILE FRESH_FILE -> prints a per-key report, returns 1 on
# any regression beyond the tolerance, 2 on a missing/empty derived block.
compare_snapshots() {
  local base_file=$1 fresh_file=$2
  local base_metrics fresh_metrics
  base_metrics=$(derived_metrics "$base_file")
  fresh_metrics=$(derived_metrics "$fresh_file")
  if [ -z "$base_metrics" ]; then
    echo "bench_gate: no derived metrics in baseline $base_file" >&2
    return 2
  fi
  if [ -z "$fresh_metrics" ]; then
    echo "bench_gate: no derived metrics in fresh snapshot $fresh_file" >&2
    return 2
  fi

  local failures=0 key base fresh_val
  printf '%-52s %10s %10s %8s  %s\n' "metric" "baseline" "fresh" "delta" "verdict"
  while read -r key base; do
    fresh_val=$(echo "$fresh_metrics" | awk -v k="$key" '$1 == k { print $2 }')
    if [ -z "$fresh_val" ]; then
      printf '%-52s %10s %10s %8s  %s\n' "$key" "$base" "-" "-" "MISSING"
      failures=$((failures + 1))
      continue
    fi
    # verdict: OK within tolerance, REGRESSED beyond it (direction-aware).
    local verdict delta
    read -r verdict delta < <(awk -v k="$key" -v b="$base" -v f="$fresh_val" -v tol="$tolerance" '
      BEGIN {
        delta = (b != 0) ? (f - b) / b : 0
        higher_better = (k ~ /speedup/ || k ~ /per_s/ || k ~ /ratio/) ? 1 : 0
        regressed = higher_better ? (delta < -tol) : (delta > tol)
        printf "%s %+.1f%%\n", regressed ? "REGRESSED" : "OK", delta * 100
      }')
    printf '%-52s %10s %10s %8s  %s\n' "$key" "$base" "$fresh_val" "$delta" "$verdict"
    [ "$verdict" = "REGRESSED" ] && failures=$((failures + 1))
  done <<< "$base_metrics"

  if [ "$failures" -gt 0 ]; then
    echo "bench_gate: $failures metric(s) regressed beyond ${tolerance} tolerance" >&2
    return 1
  fi
  echo "bench_gate: all metrics within ${tolerance} tolerance of $base_file"
  return 0
}

if $self_test; then
  # Exercise the gate logic without running any benches: the baseline must
  # pass against itself, and synthetic regressions in both directions
  # (speedup drop, latency rise) must fail.
  tmp=$(mktemp -d)
  trap 'rm -rf "$tmp"' EXIT

  echo "self-test 1/6: baseline vs itself must pass"
  compare_snapshots "$baseline" "$baseline" >/dev/null

  echo "self-test 2/6: a speedup drop beyond tolerance must fail"
  awk '{
    if ($0 ~ /process_speedup_flat_vs_rowwise"/) sub(/: [0-9.]+/, ": 0.10")
    print
  }' "$baseline" > "$tmp/speedup_drop.json"
  if compare_snapshots "$baseline" "$tmp/speedup_drop.json" >/dev/null 2>&1; then
    echo "bench_gate self-test FAILED: speedup drop not caught" >&2
    exit 1
  fi

  echo "self-test 3/6: a latency rise beyond tolerance must fail"
  awk '{
    if ($0 ~ /etl_stream_tail_to_trainer_ms"/) sub(/: [0-9.]+/, ": 999.0")
    print
  }' "$baseline" > "$tmp/latency_rise.json"
  if compare_snapshots "$baseline" "$tmp/latency_rise.json" >/dev/null 2>&1; then
    echo "bench_gate self-test FAILED: latency rise not caught" >&2
    exit 1
  fi

  echo "self-test 4/6: an end-to-end throughput drop beyond tolerance must fail"
  awk '{
    if ($0 ~ /pipeline_records_per_second"/) sub(/: [0-9.]+/, ": 1.0")
    print
  }' "$baseline" > "$tmp/throughput_drop.json"
  if compare_snapshots "$baseline" "$tmp/throughput_drop.json" >/dev/null 2>&1; then
    echo "bench_gate self-test FAILED: throughput drop not caught" >&2
    exit 1
  fi

  echo "self-test 5/6: a cache hit-ratio drop beyond tolerance must fail"
  awk '{
    if ($0 ~ /storage_cache_hit_ratio"/) sub(/: [0-9.]+/, ": 0.01")
    print
  }' "$baseline" > "$tmp/ratio_drop.json"
  if compare_snapshots "$baseline" "$tmp/ratio_drop.json" >/dev/null 2>&1; then
    echo "bench_gate self-test FAILED: hit-ratio drop not caught" >&2
    exit 1
  fi

  echo "self-test 6/6: a stripe-decode throughput drop beyond tolerance must fail"
  awk '{
    if ($0 ~ /stripe_decode_clustered_mb_per_s"/) sub(/: [0-9.]+/, ": 1.0")
    print
  }' "$baseline" > "$tmp/decode_drop.json"
  if compare_snapshots "$baseline" "$tmp/decode_drop.json" >/dev/null 2>&1; then
    echo "bench_gate self-test FAILED: stripe-decode throughput drop not caught" >&2
    exit 1
  fi

  echo "bench_gate self-test passed"
  exit 0
fi

if [ ! -f "$baseline" ]; then
  echo "bench_gate: baseline $baseline not found" >&2
  exit 2
fi

if [ -z "$fresh" ]; then
  fresh=$(mktemp --suffix=.json)
  trap 'rm -f "$fresh"' EXIT
  BENCH_SNAPSHOT_OUT=$fresh scripts/bench_snapshot.sh
elif [ ! -f "$fresh" ]; then
  echo "bench_gate: fresh snapshot $fresh not found" >&2
  exit 2
fi

compare_snapshots "$baseline" "$fresh"
