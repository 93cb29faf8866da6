#!/usr/bin/env bash
# Regenerates BENCH_pipeline.json: runs the convert-path and codec criterion
# benches (the offline criterion shim prints one mean per benchmark) and
# parses the output into a JSON snapshot, so the repo's performance trajectory has a
# commit-anchored record. Run from anywhere inside the repo:
#
#   scripts/bench_snapshot.sh
#
# The snapshot includes derived speedups for the flat-vs-rowwise process
# pairs the README's Performance section quotes. Override the output path with
# BENCH_SNAPSHOT_OUT (the regression gate writes fresh snapshots to a temp
# file this way). The script fails loudly — nonzero exit, message on stderr —
# when the bench binaries are missing or produce no parseable timings, so a
# broken bench run can never silently write an empty snapshot.
set -euo pipefail
cd "$(dirname "$0")/.."

out=${BENCH_SNAPSHOT_OUT:-BENCH_pipeline.json}
raw=$(mktemp)
bench_log=$(mktemp)
trap 'rm -f "$raw" "$bench_log"' EXIT

if ! command -v cargo >/dev/null 2>&1; then
  echo "bench_snapshot: cargo not found on PATH" >&2
  exit 1
fi

echo "running convert-path + codec + fan-out + continuous-etl benches (this takes a minute)..." >&2
if ! cargo bench -p recd-bench --bench columnar --bench dedup_conversion --bench codec --bench fanout --bench etl_stream >"$bench_log" 2>&1; then
  echo "bench_snapshot: cargo bench failed; last lines of its output:" >&2
  tail -20 "$bench_log" >&2
  exit 1
fi
grep 'time:' "$bench_log" > "$raw" || true
if ! [ -s "$raw" ]; then
  echo "bench_snapshot: no 'time:' lines in the bench output — bench binaries missing or output format changed" >&2
  tail -20 "$bench_log" >&2
  exit 1
fi

# Normalizes one shim output line to "name mean_ns [throughput...]".
normalize() {
  awk '{
    name = $1
    v = 0; u = ""; thrpt = ""
    for (i = 2; i <= NF; i++) {
      if ($i == "time:")  { v = $(i + 1); u = $(i + 2) }
      if ($i == "thrpt:") { thrpt = $(i + 1) " " $(i + 2) }
    }
    mult = 1
    if (u == "s")  mult = 1e9
    if (u == "ms") mult = 1e6
    if (u == "µs") mult = 1e3
    printf "%s %.1f %s\n", name, v * mult, thrpt
  }' "$raw"
}

# Prints the mean for one benchmark name; fails the script if it is absent,
# so a renamed bench cannot silently turn a derived ratio into zero.
mean_ns() {
  local got
  got=$(normalize | awk -v n="$1" '$1 == n { print $2 }' | head -1)
  if [ -z "$got" ]; then
    echo "bench_snapshot: benchmark '$1' missing from the bench output" >&2
    exit 1
  fi
  echo "$got"
}

# Prints the declared throughput (the number only) of one benchmark; fails
# the script if the bench is absent or declared none.
thrpt() {
  local got
  got=$(normalize | awk -v n="$1" '$1 == n { print $3 }' | head -1)
  if [ -z "$got" ]; then
    echo "bench_snapshot: benchmark '$1' missing from the bench output or has no throughput" >&2
    exit 1
  fi
  echo "$got"
}

ratio() {
  awk -v a="$1" -v b="$2" 'BEGIN { if (b > 0) printf "%.2f", a / b; else printf "0" }'
}

# Sustained end-to-end throughput of the pipeline (tail -> ETL -> DPP ->
# trainer fan-out) with the control loop closed (--ctrl), lifted from the
# CLI's machine-parseable derived line. This is the figure the control loop
# must sustain — resizing pools and gating the pump may reshape *when* work
# happens, never cost throughput. Guarded by the gate as higher-is-better.
echo "running controller-on pipeline throughput probe..." >&2
pipeline_rps=$(cargo run --release -q -p recd-dpp --bin recd-dpp -- \
  --trainers 2 --assign least --ctrl --quiet 2>>"$bench_log" \
  | awk '/^derived pipeline_records_per_second / { print $3 }')
if [ -z "$pipeline_rps" ]; then
  echo "bench_snapshot: controller probe printed no 'derived pipeline_records_per_second' line" >&2
  tail -20 "$bench_log" >&2
  exit 1
fi

# Control-plane cost of the multi-host fleet: wall-clock ms spent inside the
# work-stealing shard rebalance across a seeded host-death + rejoin run,
# lifted from the CLI's machine-parseable derived line. Guarded by the gate
# as lower-is-better (the _ms suffix).
echo "running fleet rebalance probe..." >&2
fleet_rebalance_ms=$(cargo run --release -q -p recd-dpp --bin recd-dpp -- \
  --hosts 3 --trainers 2 --chaos-seed 7 --quiet 2>>"$bench_log" \
  | awk '/^derived fleet_rebalance_ms / { print $3 }')
if [ -z "$fleet_rebalance_ms" ]; then
  echo "bench_snapshot: fleet probe printed no 'derived fleet_rebalance_ms' line" >&2
  tail -20 "$bench_log" >&2
  exit 1
fi

# Storage-realism figures: the blob-cache hit ratio with a working-set-sized
# cache (higher-is-better via the "ratio" suffix) and the mean per-op queue
# wait under hash placement on a frozen clock (lower-is-better via "_ms").
# Both come from deterministic experiment drivers — single-threaded, fixed
# access order, virtual-time wait accounting — so the gate can hold them
# tight.
echo "running storage load-balance + cache-sweep probes..." >&2
storage_derived=$(cargo run --release -q -p recd-bench --bin experiments -- \
  storage_balance cache_sweep --smoke 2>>"$bench_log")
storage_wait_ms=$(echo "$storage_derived" | awk '/^derived storage_load_balance_wait_ms / { print $3 }')
cache_hit_ratio=$(echo "$storage_derived" | awk '/^derived storage_cache_hit_ratio / { print $3 }')
if [ -z "$storage_wait_ms" ] || [ -z "$cache_hit_ratio" ]; then
  echo "bench_snapshot: storage experiments printed no derived storage_* lines" >&2
  tail -20 "$bench_log" >&2
  exit 1
fi

proc_row=$(mean_ns "preprocess/rowwise/baseline")
proc_flat=$(mean_ns "preprocess/flat/baseline")
proc_row_dedup=$(mean_ns "preprocess/rowwise/dedup")
proc_flat_dedup=$(mean_ns "preprocess/flat/dedup")
fanout_1=$(mean_ns "dpp_fanout/trainers_1")
fanout_4=$(mean_ns "dpp_fanout/trainers_4")
scaleup=$(mean_ns "dpp_scaleup/first_grow")
tail_to_trainer=$(mean_ns "etl_stream/tail_to_trainer")
seal_to_ingest=$(mean_ns "etl_stream/seal_to_ingest")
# Decoded column-stream MiB per second through one clustered 64-row RM1
# stripe: the per-layer figure under the reader's fill phase.
stripe_decode=$(thrpt "stripe_decode/clustered")

# Before/after rows are written by hand in the PR that claims them and
# carried forward verbatim from the committed snapshot.
before_after=$(awk '/"before_after": \[/ { keep = 1 } keep { print } keep && /^  \],?$/ { exit }' BENCH_pipeline.json 2>/dev/null || true)

git_rev=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
git_dirty=false
if ! git diff --quiet HEAD -- 2>/dev/null; then
  git_dirty=true
fi

{
  echo '{'
  echo '  "schema_version": 1,'
  echo "  \"generated_utc\": \"$(date -u +%Y-%m-%dT%H:%M:%SZ)\","
  echo "  \"git_rev\": \"$git_rev\","
  echo "  \"git_dirty\": $git_dirty,"
  echo '  "command": "scripts/bench_snapshot.sh (cargo bench -p recd-bench --bench columnar --bench dedup_conversion --bench codec --bench fanout --bench etl_stream)",'
  echo '  "derived": {'
  echo "    \"process_speedup_flat_vs_rowwise\": $(ratio "$proc_row" "$proc_flat"),"
  echo "    \"process_speedup_flat_vs_rowwise_dedup\": $(ratio "$proc_row_dedup" "$proc_flat_dedup"),"
  echo "    \"dpp_fanout_speedup_trainers4_vs_1\": $(ratio "$fanout_1" "$fanout_4"),"
  echo "    \"dpp_scaleup_first_grow_ms\": $(awk -v ns="$scaleup" 'BEGIN { printf "%.2f", ns / 1e6 }'),"
  echo "    \"etl_stream_tail_to_trainer_ms\": $(awk -v ns="$tail_to_trainer" 'BEGIN { printf "%.2f", ns / 1e6 }'),"
  echo "    \"etl_stream_seal_to_ingest_ms\": $(awk -v ns="$seal_to_ingest" 'BEGIN { printf "%.2f", ns / 1e6 }'),"
  echo "    \"pipeline_records_per_second\": $pipeline_rps,"
  echo "    \"fleet_rebalance_ms\": $fleet_rebalance_ms,"
  echo "    \"storage_load_balance_wait_ms\": $storage_wait_ms,"
  echo "    \"storage_cache_hit_ratio\": $cache_hit_ratio,"
  echo "    \"stripe_decode_clustered_mb_per_s\": $stripe_decode"
  echo '  },'
  if [ -n "$before_after" ]; then echo "$before_after"; fi
  echo '  "benches": ['
  normalize | awk '{
    line = sprintf("    {\"name\": \"%s\", \"mean_ns\": %s", $1, $2)
    if (NF >= 4) line = line sprintf(", \"throughput\": \"%s %s\"", $3, $4)
    print line "},"
  }' | sed '$ s/},$/}/'
  echo '  ]'
  echo '}'
} > "$out"

echo "wrote $out (rev $git_rev, dirty=$git_dirty)" >&2
