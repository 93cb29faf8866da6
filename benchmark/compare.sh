#!/usr/bin/env bash
# Sets two result files of benchmark/run.sh against the bounds in
# BENCHMARK.json, one row per workload × end-to-end metric.
#
#   benchmark/compare.sh A.json B.json   A is the baseline, B the candidate (paths
#                                        absolute or relative to the repo root);
#                                        exits 1 on a regression or a missing metric
#   benchmark/compare.sh --self-test     feeds the comparison synthetic regressions in
#                                        both directions, an unresolved cell and a
#                                        missing metric
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/recd-benchmark" compare "$@"
