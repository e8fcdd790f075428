#!/usr/bin/env bash
# Regenerate the committed benchmark baselines at the repo root through the
# repo benchmark's own `suite` command (BENCHMARK.json, benchmark/):
#
#   BENCH_suite.json   end-to-end metrics: --trace 0, seeds 1,2, 5 repeats
#   BENCH_layers.json  per-layer metrics:  --trace 1, seeds 1,2, 3 repeats
#                      (one run per seed let the host-time rows drift ±10 %
#                      between two regenerations of one commit; the median
#                      of three holds them still enough to compare)
#   BENCH_shrunk.json  tenth-size workloads: --shrunk --seconds 3, seeds 1,2,
#                      3 repeats (CI compares a fresh shrunk suite with it)
#
#   tools/bench-baseline.sh              # all three, ~40 min on 2 CPUs
#                                        # (suite ~25, layers ~12, shrunk ~1)
#   tools/bench-baseline.sh shrunk       # only the named ones (suite, layers, shrunk)
#
# Run it on an idle machine, commit the three files with the change that
# moved them, and read a change's before and after rows with
# `git log -p -- BENCH_suite.json`. `compare` gives the verdict:
#
#   cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
#       compare OLD.json BENCH_suite.json
set -euo pipefail
cd "$(dirname "$0")/.."

bench() { cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"; }

sets=("$@")
[ ${#sets[@]} -gt 0 ] || sets=(suite layers shrunk)

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
for set in "${sets[@]}"; do
    case $set in
    suite) bench suite --seeds 1,2 --repeats 5 --trace 0 --out BENCH_suite.json ;;
    layers) bench suite --seeds 1,2 --repeats 3 --trace 1 --out BENCH_layers.json ;;
    shrunk) bench suite --shrunk --seeds 1,2 --repeats 3 --seconds 3 --out BENCH_shrunk.json ;;
    *)
        echo "bench-baseline.sh: unknown set $set (suite, layers, shrunk)" >&2
        exit 2
        ;;
    esac
done
