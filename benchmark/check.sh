#!/usr/bin/env bash
# One command for the benchmark package: build offline, run its tests, run a
# tenth-size suite twice and compare the two sets with the benchmark's own
# bounds. Touches nothing outside this directory (the root workspace and the
# tier-1 commands never see this package).
#
#   benchmark/check.sh            # ~4 min
#
# The shrunk suites check the tooling and the counts, not the host timings:
# 3-second runs of tenth-size workloads have too few rounds for the bounds of
# the measured metrics, so a breach of those is reported (`compare` exits
# with 3) but only a wrong result, a failed operation or a count that moved
# (exit 1) fails the script.
set -euo pipefail
cd "$(dirname "$0")"

bench() { cargo run --release --offline --quiet -- "$@"; }

cargo build --release --offline
cargo test --release --offline

bench suite --shrunk --seeds 1,2 --repeats 3 --seconds 3 --out check-a.suite.json
bench suite --shrunk --seeds 1,2 --repeats 3 --seconds 3 --out check-b.suite.json
status=0
bench compare check-a.suite.json check-b.suite.json || status=$?
case $status in
0) ;;
3) echo "check.sh: measured metrics breached on the shrunk suites only (expected on a busy host)" ;;
*)
    echo "check.sh: FAILED (see above)" >&2
    exit 1
    ;;
esac
echo "check.sh: ok"
