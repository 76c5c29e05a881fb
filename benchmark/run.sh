#!/bin/sh
# Builds the benchmark and runs it from the repository root.
#
#   benchmark/run.sh --seed 1              every workload, results in benchmark/out/
#   benchmark/run.sh --seed 1 --trace 1    also the per-layer metrics and traces
#   benchmark/run.sh --workload sim_hot --seed 1 --seconds 10 --trace 0
#   benchmark/run.sh --compare A.json B.json
#
# See README.md beside this file, or --help, for every option.
set -eu
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
