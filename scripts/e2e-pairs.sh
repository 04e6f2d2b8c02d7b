#!/bin/sh
# Paired, interleaved benchmark runs of HEAD against a parent revision.
#
# usage: scripts/e2e-pairs.sh <parent-rev> [--pairs N] [--seconds S] [--seed N]
#                             [--aligned] [--trace]
#
# Each side is checked out in its own git worktree and its standalone `e2e`
# package is built into its own target directory: two checkouts that share
# one CARGO_TARGET_DIR can silently run each other's engine. Then, for each
# of N pairs (default 10) and each workload in BENCHMARK.json, BENCHMARK.json's
# command runs once per side for S seconds (default 4) at workload seed N
# (default 1; pick another for a held-out run), the side that goes first
# alternating from pair to pair. `--aligned` builds both sides with
# every function aligned to 64 bytes, so code layout shifts between the two
# builds do not show up as host-time differences. `--trace` runs both sides
# traced (`--trace 1`) instead of untraced, so the runs also carry
# BENCHMARK.json's per-layer metrics.
#
# Prints, per workload x end-to-end metric: the median and interquartile
# range of each side, HEAD/parent, the pairs HEAD won, "inside" or
# "OUTSIDE" the metric's bound (HEAD worse than the parent's median by more
# than the bound is outside), and a verdict:
#   gain / loss  one side won at least 9 of every 10 pairs (ties count for
#                neither) and the medians differ by more than the parent's
#                interquartile range;
#   unresolved   otherwise, if the parent's interquartile range is wider
#                than the bound (relative to its median);
#   flat         otherwise.
# With `--trace` the table holds every per-layer metric instead, with the
# same columns (no bound, so no "unresolved"): a traced run reports no
# end-to-end metric. Under the table, each side's lowest and highest 1-min
# load average (/proc/loadavg), read just before each of its runs: a
# verdict from a set whose load swung is worth repeating. Every metric of
# every run is kept as raw "<pair> <side> <workload> <metric> <value>"
# lines in target/e2e-pairs/results.txt (the load as metric
# host.loadavg_1m), which the next run overwrites; the last line printed
# is that path. A run that fails prints its report header
# (`== <workload> ...: N failed ==`, on stdout) and the tail of its stderr
# (where a worker panic lands), and keeps both streams whole as
# target/e2e-pairs/failed/<pair>-<side>-<workload>.{out,err}, a directory
# the next run clears with results.txt. Exits 1 if any run failed.
set -eu

usage() {
    echo "usage: $0 <parent-rev> [--pairs N] [--seconds S] [--seed N] [--aligned] [--trace]" >&2
    exit 2
}

[ $# -ge 1 ] || usage
parent=$1
shift
pairs=10
seconds=4
seed=1
aligned=
trace=0
while [ $# -gt 0 ]; do
    case $1 in
        --trace) trace=1; shift ;;
        --pairs) [ $# -ge 2 ] || usage; pairs=$2; shift 2 ;;
        --seconds) [ $# -ge 2 ] || usage; seconds=$2; shift 2 ;;
        --seed) [ $# -ge 2 ] || usage; seed=$2; shift 2 ;;
        --aligned) aligned=1; shift ;;
        *) usage ;;
    esac
done

repo=$(git rev-parse --show-toplevel)
cd "$repo"
git rev-parse --verify --quiet "$parent^{commit}" >/dev/null || {
    echo "$0: not a revision: $parent" >&2
    exit 2
}
bench=$repo/BENCHMARK.json
workloads=$(jq -r '.workloads[].name' "$bench")
metrics=$(jq -r '.end_to_end[] | "\(.name) \(.better) \(.bound)"' "$bench")
results=$repo/target/e2e-pairs/results.txt
failed_dir=$repo/target/e2e-pairs/failed
mkdir -p "${results%/*}"

work=$(mktemp -d "${TMPDIR:-/tmp}/e2e-pairs.XXXXXX")
cleanup() {
    for side in parent head; do
        [ -d "$work/$side/src" ] && git worktree remove --force "$work/$side/src"
    done
    rm -rf "$work"
}
trap cleanup EXIT INT TERM

rustflags=${RUSTFLAGS:-}
[ -z "$aligned" ] || rustflags="$rustflags -C llvm-args=-align-all-functions=6"

# Builds one side: a detached worktree at the revision and a target
# directory of its own.
build() {
    side=$1
    rev=$2
    mkdir -p "$work/$side"
    git worktree add --detach --quiet "$work/$side/src" "$rev"
    echo "building $side ($(git rev-parse --short "$rev"))" >&2
    (cd "$work/$side/src" &&
        CARGO_TARGET_DIR=$work/$side/target RUSTFLAGS=$rustflags \
            cargo build --release --quiet --offline \
            --manifest-path crates/bench/src/bin/e2e/Cargo.toml)
}

# Runs BENCHMARK.json's command on one side for one workload and appends
# "<pair> <side> <workload> <metric> <value>" lines to $results, the first
# of them the host's 1-min load average just before the run.
run() {
    pair=$1
    side=$2
    workload=$3
    out=$work/$side/run.out
    read -r load _ </proc/loadavg
    echo "$pair $side $workload host.loadavg_1m $load" >>"$results"
    # The command is a JSON list of plain words (no spaces inside one).
    cmd=$(jq -r '.command | join(" ")' "$bench")
    if ! (cd "$work/$side/src" &&
        CARGO_TARGET_DIR=$work/$side/target RUSTFLAGS=$rustflags \
            $cmd --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" \
            >"$out" 2>"$work/$side/run.err"); then
        kept=$failed_dir/$pair-$side-$workload
        mkdir -p "$failed_dir"
        cp "$out" "$kept.out"
        cp "$work/$side/run.err" "$kept.err"
        echo "$side $workload (pair $pair) failed, kept as $kept.{out,err}:" >&2
        grep '^== .* failed ==$' "$out" >&2 || true
        tail -5 "$work/$side/run.err" >&2
        failed=1
        return
    fi
    tail -n 1 "$out" | jq -r --arg p "$pair" --arg s "$side" --arg w "$workload" \
        '.metrics | to_entries[] | "\($p) \($s) \($w) \(.key) \(.value.value)"' \
        >>"$results"
}

build parent "$parent"
build head HEAD
failed=
: >"$results"
rm -rf "$failed_dir"
i=1
while [ "$i" -le "$pairs" ]; do
    for workload in $workloads; do
        if [ $((i % 2)) -eq 1 ]; then
            run "$i" parent "$workload"
            run "$i" head "$workload"
        else
            run "$i" head "$workload"
            run "$i" parent "$workload"
        fi
    done
    echo "pair $i of $pairs done" >&2
    i=$((i + 1))
done

# Prints one row per workload for a metric: both sides' median and IQR,
# the ratio, pairs won, the bound check ("-" for no bound) and the verdict.
summarise() {
    metric=$1
    better=$2
    bound=$3
    for workload in $workloads; do
        awk -v w="$workload" -v m="$metric" -v better="$better" -v bound="$bound" '
            function sort(a, n,    i, j, t) {
                for (i = 2; i <= n; i++)
                    for (j = i; j > 1 && a[j - 1] > a[j]; j--) {
                        t = a[j]; a[j] = a[j - 1]; a[j - 1] = t
                    }
            }
            # Linear interpolation between closest ranks.
            function q(a, n, p,    h, lo) {
                h = 1 + (n - 1) * p
                lo = int(h)
                return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
            }
            function abs(x) { return x < 0 ? -x : x }
            $3 == w && $4 == m { v[$2, $1] = $5; seen[$1] = 1 }
            END {
                n = 0; won = 0; lost = 0; np = 0; nh = 0
                for (p in seen) {
                    if (!(("parent", p) in v) || !(("head", p) in v)) continue
                    n++
                    pv[++np] = v["parent", p]
                    hv[++nh] = v["head", p]
                    if (better == "lower" ? hv[nh] < pv[np] : hv[nh] > pv[np]) won++
                    if (better == "lower" ? hv[nh] > pv[np] : hv[nh] < pv[np]) lost++
                }
                if (n == 0) { printf "%-17s %-34s no complete pair\n", w, m; exit }
                sort(pv, n); sort(hv, n)
                pm = q(pv, n, 0.5); hm = q(hv, n, 0.5)
                piqr = q(pv, n, 0.75) - q(pv, n, 0.25)
                ratio = pm == 0 ? (hm == 0 ? 1 : 0) : hm / pm
                worse = better == "lower" ? ratio - 1 : 1 - ratio
                apart = abs(hm - pm) > piqr
                if (won >= 0.9 * n && apart) verdict = "gain"
                else if (lost >= 0.9 * n && apart) verdict = "loss"
                else if (bound != "-" && piqr > bound * abs(pm)) verdict = "unresolved"
                else verdict = "flat"
                check = bound == "-" ? "-" : (worse > bound ? "OUTSIDE " : "inside ") bound
                printf "%-17s %-34s %12.6g %10.4g %12.6g %10.4g %7.4f %3d/%-2d  %-13s %s\n",
                    w, m, pm, piqr, hm, q(hv, n, 0.75) - q(hv, n, 0.25), ratio, won, n,
                    check, verdict
            }
        ' "$results"
    done
}

header() {
    printf '%-17s %-34s %12s %10s %12s %10s %7s %6s  %-13s %s\n' \
        workload metric parent iqr head iqr ratio won bound verdict
}

header
if [ "$trace" = 0 ]; then
    echo "$metrics" | while read -r metric better bound; do
        summarise "$metric" "$better" "$bound"
    done
else
    # A traced run reports no end-to-end metric (those come from
    # untraced runs), only the per-layer ones.
    jq -r '.per_layer[] | "\(.name) \(.better)"' "$bench" | while read -r metric better; do
        summarise "$metric" "$better" -
    done
fi
awk '$4 == "host.loadavg_1m" {
        if (!($2 in lo) || $5 < lo[$2]) lo[$2] = $5
        if (!($2 in hi) || $5 > hi[$2]) hi[$2] = $5
    }
    END {
        printf "1-min load before a run: parent %s-%s, head %s-%s\n",
            lo["parent"], hi["parent"], lo["head"], hi["head"]
    }' "$results"
echo "raw results: $results"
[ -z "$failed" ] || {
    echo "failed runs: $failed_dir" >&2
    exit 1
}
