#!/bin/sh
# Paired, interleaved benchmark runs of HEAD against a parent revision.
#
# usage: scripts/e2e-pairs.sh <parent-rev> [--pairs N] [--seconds S] [--aligned]
#
# Each side is checked out in its own git worktree and its standalone `e2e`
# package is built into its own target directory: two checkouts that share
# one CARGO_TARGET_DIR can silently run each other's engine. Then, for each
# of N pairs (default 10) and each workload in BENCHMARK.json, BENCHMARK.json's
# command runs once per side for S seconds (default 4), the side that goes
# first alternating from pair to pair. `--aligned` builds both sides with
# every function aligned to 64 bytes, so code layout shifts between the two
# builds do not show up as host-time differences.
#
# Prints, per workload x end-to-end metric: the median and interquartile
# range of each side, HEAD/parent, the pairs HEAD won, and "inside" or
# "OUTSIDE" the metric's bound (HEAD worse than the parent's median by more
# than the bound is outside). Exits 1 if any run failed.
set -eu

usage() {
    echo "usage: $0 <parent-rev> [--pairs N] [--seconds S] [--aligned]" >&2
    exit 2
}

[ $# -ge 1 ] || usage
parent=$1
shift
pairs=10
seconds=4
aligned=
while [ $# -gt 0 ]; do
    case $1 in
        --pairs) [ $# -ge 2 ] || usage; pairs=$2; shift 2 ;;
        --seconds) [ $# -ge 2 ] || usage; seconds=$2; shift 2 ;;
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
# "<pair> <side> <workload> <metric> <value>" lines to the results file.
run() {
    pair=$1
    side=$2
    workload=$3
    out=$work/$side/run.out
    # The command is a JSON list of plain words (no spaces inside one).
    cmd=$(jq -r '.command | join(" ")' "$bench")
    if ! (cd "$work/$side/src" &&
        CARGO_TARGET_DIR=$work/$side/target RUSTFLAGS=$rustflags \
            $cmd --workload "$workload" --seed 1 --seconds "$seconds" --trace 0 \
            >"$out" 2>"$work/$side/run.err"); then
        echo "$side $workload (pair $pair) failed:" >&2
        tail -5 "$work/$side/run.err" >&2
        failed=1
        return
    fi
    tail -n 1 "$out" | jq -r --arg p "$pair" --arg s "$side" --arg w "$workload" \
        '.metrics | to_entries[] | "\($p) \($s) \($w) \(.key) \(.value.value)"' \
        >>"$work/results"
}

build parent "$parent"
build head HEAD
failed=
: >"$work/results"
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

printf '%-17s %-34s %12s %10s %12s %10s %7s %6s  %s\n' \
    workload metric parent iqr head iqr ratio won bound
echo "$metrics" | while read -r metric better bound; do
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
            $3 == w && $4 == m { v[$2, $1] = $5; seen[$1] = 1 }
            END {
                n = 0; won = 0; np = 0; nh = 0
                for (p in seen) {
                    if (!(("parent", p) in v) || !(("head", p) in v)) continue
                    n++
                    pv[++np] = v["parent", p]
                    hv[++nh] = v["head", p]
                    if (better == "lower" ? hv[nh] < pv[np] : hv[nh] > pv[np]) won++
                }
                if (n == 0) { printf "%-17s %-34s no complete pair\n", w, m; exit }
                sort(pv, n); sort(hv, n)
                pm = q(pv, n, 0.5); hm = q(hv, n, 0.5)
                ratio = pm == 0 ? (hm == 0 ? 1 : 0) : hm / pm
                worse = better == "lower" ? ratio - 1 : 1 - ratio
                printf "%-17s %-34s %12.6g %10.4g %12.6g %10.4g %7.4f %3d/%-2d  %s\n",
                    w, m, pm, q(pv, n, 0.75) - q(pv, n, 0.25),
                    hm, q(hv, n, 0.75) - q(hv, n, 0.25), ratio, won, n,
                    (worse > bound ? "OUTSIDE " : "inside ") bound
            }
        ' "$work/results"
    done
done
[ -z "$failed" ]
