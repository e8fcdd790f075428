#!/usr/bin/env bash
# Count the non-test lines of crate code: every file under crates/*/src, cut
# at its first line that starts with `#[cfg(test)]` (the unit-test module),
# blank and comment lines included. Prints one line per crate and the total.
#
#   tools/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for dir in crates/*/src; do
    crate=$(basename "$(dirname "$dir")")
    n=$(find "$dir" -name '*.rs' -print0 | sort -z |
        xargs -0 awk 'FNR == 1 { cut = 0 } /^#\[cfg\(test\)\]/ { cut = 1 } !cut { n++ } END { print n + 0 }')
    printf '%-12s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-12s %6d\n' total "$total"
