#!/usr/bin/env bash
# The repo benchmark, one command.
#
#   benchmark/run.sh                   every workload, untraced then traced, each in
#                                      its own process; prints `workload metric value
#                                      unit` lines, writes benchmark/out/results.json,
#                                      exits non-zero on any output-check failure or
#                                      failed operation
#   benchmark/run.sh --smoke           1 warm-up + 1 measured epoch per workload,
#                                      checks only, < 30 s
#   benchmark/run.sh --runs N --seed S --seconds T --out DIR --append
#   benchmark/run.sh --workload W --seed N --seconds T --trace 0|1
#                                      one run of one workload; the last line of
#                                      standard output is the result object
#                                      BENCHMARK.json describes
#
# Builds the harness first (offline; a package of its own, so the root
# workspace is untouched). Build output goes to standard error.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/recd-benchmark"

case " $* " in
  *" --workload "*) exec "$bin" run "$@" ;;
  *) exec "$bin" suite "$@" ;;
esac
