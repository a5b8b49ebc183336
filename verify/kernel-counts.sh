#!/bin/sh
# The rule kernel's and the executor's counts, checked against the
# committed pins.
#
#   verify/kernel-counts.sh <eds-e2e binary>
#
# The argument is an `eds-e2e` binary (`cargo build --release --offline
# --manifest-path e2e/Cargo.toml`). For every workload named in
# verify/kernel_counts.tsv the script runs
# `--workload W --seed 7 --seconds 3 --trace 1` and compares each pinned
# metric, as printed, with the pinned value. The counts are per-statement
# means over the traced rounds: they depend on the statements, the rules
# and the strategy, not on the host or on how fast the kernel runs, so a
# kernel change that only saves time leaves every one of them alone — one
# more or one fewer match enumerated moves `rewrite.rejected`. The
# `engine.*` rows pin what the executor emitted and enumerated: a plan
# or a physical choice that changes moves them, a faster loop does not.
#
# Exits non-zero on a failed run, a missing metric or a moved count.
set -eu

if [ $# -ne 1 ]; then
    sed -n '2,5p' "$0" >&2
    exit 2
fi
bin=$1
pins="$(cd "$(dirname "$0")" && pwd)/kernel_counts.tsv"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM

status=0
for workload in $(awk '!/^#/ && NF == 3 && !seen[$1]++ { print $1 }' "$pins"); do
    if ! "$bin" --workload "$workload" --seed 7 --seconds 3 --trace 1 \
        --out "$tmp/out" >"$tmp/log" 2>&1; then
        echo "FAILED RUN: $workload" >&2
        tail -5 "$tmp/log" >&2
        status=1
        continue
    fi
    # Pins first (3 fields, tab-separated), then the run's "name value unit" lines.
    awk -v w="$workload" '
        FNR == NR { if (!/^#/ && NF == 3 && $1 == w) want[$2] = $3; next }
        $1 in want { got[$1] = $2 }
        END {
            for (m in want) {
                if (!(m in got)) { printf "%-14s %-26s pinned %s, not printed\n", w, m, want[m]; bad = 1 }
                else if (got[m] != want[m]) { printf "%-14s %-26s pinned %s, got %s\n", w, m, want[m], got[m]; bad = 1 }
                else printf "%-14s %-26s %s\n", w, m, got[m]
            }
            exit bad
        }' "$pins" "$tmp/log" >"$tmp/cmp" || status=1
    sort "$tmp/cmp"
done

if [ "$status" -eq 0 ]; then
    echo "kernel counts: every pinned value holds"
else
    echo "kernel counts: MOVED or not measured (see above)" >&2
fi
exit $status
