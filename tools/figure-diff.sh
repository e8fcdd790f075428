#!/bin/sh
# Print every cell that differs between two `repro` results directories,
# except host wall-clock cells and GPMA's contention cells, and exit 1 if
# there is any.
#
#   tools/figure-diff.sh OLD_RESULTS NEW_RESULTS
#
# Host wall-clock cells are the timing columns (`*Ms`) of the CPU-approach
# rows (AdjLists, PMA, Stinger) of fig7-fig10 and explicit: they move with
# machine load. GPMA's contention cells are the lock-based GPMA's time,
# rounds and aborts on batches whose updates crowd a few segments: the
# `key-sorted` rows' GpmaMs / GpmaRounds / GpmaAborts of sorted.csv and the
# `clustered` row's UpdateMs / Rounds / Aborts of ablation_conflicts.csv.
# Which lane wins each segment lock depends on how the host threads that
# run the device's lanes are scheduled, so two runs of one build differ
# there (by ~10 %). Every other cell (simulated device times, digests, counts,
# the CPU rows' digests) is compared as text. A CSV or a row present on one
# side only is a difference too. Each line names the file, the row's line
# number, its leading key cells and the column:
#
#   fig11.csv:2 Reddit,0.01% SendMs: 0.0100 -> 0.0101
#
# Rows are matched by line number, so compare runs of the same experiments
# at the same flags. Exit 0: identical; 1: some cell differs; 2: usage.
set -eu

if [ $# -ne 2 ] || [ ! -d "$1" ] || [ ! -d "$2" ]; then
    echo "usage: $0 OLD_RESULTS NEW_RESULTS" >&2
    exit 2
fi
old=$1
new=$2
status=0

names=$(for p in "$old"/*.csv "$new"/*.csv; do [ -f "$p" ] && basename "$p"; done | sort -u)
for name in $names; do
    if [ ! -f "$old/$name" ] || [ ! -f "$new/$name" ]; then
        [ -f "$old/$name" ] && side=OLD || side=NEW
        echo "$name: only in $side"
        status=1
        continue
    fi
    awk -F, -v name="$name" '
        FNR == NR { old[FNR] = $0; nold = FNR; next }
        FNR == 1 {
            ncol = split($0, head, ",")
            if ($0 != old[1]) { printf "%s: header %s -> %s\n", name, old[1], $0; bad++ }
            # Key cells: the leading columns before the first timing column.
            nkey = 0
            while (nkey < ncol && nkey < 3 && head[nkey + 1] !~ /Ms$/) nkey++
            for (i = 1; i <= ncol; i++) if (head[i] == "Approach") approach = i
            hostfig = name ~ /^(fig7|fig8|fig9|fig10|explicit)\.csv$/
            next
        }
        {
            key = $1
            for (i = 2; i <= nkey; i++) key = key "," $i
            if (!(FNR in old)) { printf "%s:%d %s: only in NEW\n", name, FNR, key; bad++; next }
            n = split(old[FNR], o, ",")
            wall = hostfig && approach && $approach ~ /^(AdjLists|PMA|Stinger)$/
            contended = ""
            if (name == "sorted.csv" && $1 == "key-sorted") contended = "^Gpma(Ms|Rounds|Aborts)$"
            if (name == "ablation_conflicts.csv" && $1 == "clustered") contended = "^(UpdateMs|Rounds|Aborts)$"
            for (i = 1; i <= (NF > n ? NF : n); i++) {
                if (wall && head[i] ~ /Ms$/) continue
                if (contended != "" && head[i] ~ contended) continue
                if ($i != o[i]) {
                    col = (i in head) ? head[i] : "column " i
                    printf "%s:%d %s %s: %s -> %s\n", name, FNR, key, col, o[i], $i
                    bad++
                }
            }
        }
        END {
            for (r = FNR + 1; r <= nold; r++) {
                split(old[r], o, ",")
                printf "%s:%d %s: only in OLD\n", name, r, o[1]
                bad++
            }
            exit bad > 0
        }
    ' "$old/$name" "$new/$name" || status=1
done
exit $status
