#!/bin/sh
# Alternating parent/change pairs of the end-to-end benchmark — the
# protocol of e2e/README.md "Measuring a later change" as one command.
#
#   verify/e2e-pairs.sh <parent-binary> <change-binary> [pairs=10] [seconds=20]
#
# Both arguments are `eds-e2e` binaries built from the two checkouts
# (`cargo build --release --offline --manifest-path e2e/Cargo.toml`, each
# with its own CARGO_TARGET_DIR). For every workload of BENCHMARK.json the
# script runs `pairs` pairs with `--trace 0`, one fresh seed per pair shared
# by both sides, the order flipped each pair so neither side always runs on
# the warmer or the quieter host. It then prints, per workload and
# end-to-end metric: both medians, both inter-quartile ranges, the pairs
# the change won, the BENCHMARK.json bound and a verdict —
#
#   GAIN        at least 10 pairs, change wins >= 9/10 of them and the
#               medians differ by more than the parent's inter-quartile
#               range (claimable)
#   REGRESSION  the change's median is worse than the parent's by more
#               than the bound
#   ok          neither
#
# The exit status is about plumbing only: non-zero when a run exits
# non-zero, reports failed operations or prints no metrics. Verdicts are
# for the reader; a 1-pair, 3-second run (CI) exercises the script, not
# the code. E2E_PAIRS_SEED fixes the first seed (default: the clock);
# E2E_PAIRS_WORKLOADS="adhoc_cold session_mix" pairs those two only (a
# kernel-only check need not wait for the two workloads that run no
# kernel; a name BENCHMARK.json does not list is exit 2).
set -eu

if [ $# -lt 2 ]; then
    sed -n '2,6p' "$0" >&2
    exit 2
fi
parent=$1
change=$2
pairs=${3:-10}
seconds=${4:-20}
root=$(cd "$(dirname "$0")/.." && pwd)
bench="$root/BENCHMARK.json"
seed0=${E2E_PAIRS_SEED:-$(($(date +%s) % 100000))}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM
: >"$tmp/samples"

# "name" fields of the `workloads` array, in file order, on one line.
declared=$(awk '
    /"workloads"/ { inside = 1; next }
    inside && /^  \]/ { exit }
    inside && /"name"/ { gsub(/[",]/, ""); printf "%s ", $2 }' "$bench")
workloads=${E2E_PAIRS_WORKLOADS:-$declared}
for workload in $workloads; do
    case " $declared" in
    *" $workload "*) ;;
    *)
        echo "E2E_PAIRS_WORKLOADS: no workload '$workload' in BENCHMARK.json (has: $declared)" >&2
        exit 2
        ;;
    esac
done

# One run: `samples` gets "workload side pair metric value" lines.
run() {
    side=$1 bin=$2 workload=$3 pair=$4 seed=$5
    if ! "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" \
        --trace 0 --out "$tmp/out" >"$tmp/log" 2>&1; then
        echo "FAILED RUN: $side $workload seed $seed" >&2
        tail -5 "$tmp/log" >&2
        return 1
    fi
    awk -v w="$workload" -v s="$side" -v p="$pair" '
        /^# .* attempted, [0-9]+ failed/ { failed = $(NF - 1) }
        /^(throughput_qps|lat_p50_us|lat_p99_us|setup_s|peak_rss_mib) / {
            print w, s, p, $1, $2; seen++
        }
        END { exit !(seen == 5 && failed == 0) }' "$tmp/log" >>"$tmp/samples" || {
        echo "BAD RUN (failed operations or missing metrics): $side $workload seed $seed" >&2
        return 1
    }
}

status=0
for workload in $workloads; do
    pair=1
    while [ "$pair" -le "$pairs" ]; do
        seed=$((seed0 + pair))
        if [ $((pair % 2)) -eq 1 ]; then
            run parent "$parent" "$workload" "$pair" "$seed" || status=1
            run change "$change" "$workload" "$pair" "$seed" || status=1
        else
            run change "$change" "$workload" "$pair" "$seed" || status=1
            run parent "$parent" "$workload" "$pair" "$seed" || status=1
        fi
        printf '%s pair %d/%d (seed %d) done\n' "$workload" "$pair" "$pairs" "$seed" >&2
        pair=$((pair + 1))
    done
done

# Bounds and directions: the `end_to_end` entries are the only ones of
# BENCHMARK.json that carry a "bound".
awk '
    /"name"/   { gsub(/[",]/, ""); name = $2 }
    /"better"/ { gsub(/[",]/, ""); better = $2 }
    /"bound"/  { gsub(/[",]/, ""); print "bound", name, better, $2 }' "$bench" >"$tmp/bounds"

awk -v pairs="$pairs" -v seconds="$seconds" '
    function sorted(side, n,    i, j, t) {
        for (i = 1; i <= n; i++) v[i] = val[side, i]
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
    }
    function quantile(n, q,    h, lo) {
        h = (n - 1) * q + 1; lo = int(h)
        return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
    }
    $1 == "bound" { order[++nm] = $2; better[$2] = $3; bound[$2] = $4; next }
    { if (!($1 in seen)) { seen[$1] = 1; workloads[++nw] = $1 }
      sample[$1, $4, $2, $3] = $5 }
    END {
        printf "%d pairs x %d s per side; median [q1 .. q3]; change vs parent: + is better\n", pairs, seconds
        for (wi = 1; wi <= nw; wi++) {
            w = workloads[wi]; printf "\n%s\n", w
            for (mi = 1; mi <= nm; mi++) {
                m = order[mi]; n = 0; wins = 0
                for (p = 1; p <= pairs; p++) {
                    if (!((w, m, "parent", p) in sample) || !((w, m, "change", p) in sample)) continue
                    n++; a = sample[w, m, "parent", p]; b = sample[w, m, "change", p]
                    val["parent", n] = a; val["change", n] = b
                    if (better[m] == "higher" ? b > a : b < a) wins++
                }
                if (n == 0) { printf "  %-16s no complete pair\n", m; continue }
                sorted("parent", n); pm = quantile(n, 0.5); p1 = quantile(n, 0.25); p3 = quantile(n, 0.75)
                sorted("change", n); cm = quantile(n, 0.5); c1 = quantile(n, 0.25); c3 = quantile(n, 0.75)
                worse = better[m] == "higher" ? (pm - cm) / pm : (cm - pm) / pm
                verdict = "ok"
                if (worse > bound[m]) verdict = "REGRESSION"
                else if (n >= 10 && worse < 0 && wins * 10 >= n * 9 && (cm > pm ? cm - pm : pm - cm) > p3 - p1) verdict = "GAIN"
                printf "  %-16s parent %12.4f [%12.4f .. %12.4f]  change %12.4f [%12.4f .. %12.4f]  %+7.1f%%  wins %d/%d  bound %g%%  %s\n", \
                    m, pm, p1, p3, cm, c1, c3, -100 * worse, wins, n, 100 * bound[m], verdict
            }
        }
    }' "$tmp/bounds" "$tmp/samples"

exit $status
