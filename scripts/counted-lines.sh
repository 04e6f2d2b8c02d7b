#!/bin/sh
# Counted lines per crate: the size measure ROADMAP.md and every PR quote.
# A line counts when it is not blank, not a `//` comment, and comes before
# the file's first `#[cfg(test)]`.
#
# usage: scripts/counted-lines.sh [dir ...]    (default: the list below)
set -eu
cd "$(dirname "$0")/.."
[ $# -gt 0 ] || set -- crates/engine/src crates/xpp/src crates/wcdma/src \
    crates/ofdm/src crates/dsp/src crates/core/src crates/bench/benches \
    crates/bench/src/bin/e2e
for dir in "$@"; do
    find "$dir" -name '*.rs' -not -path '*/target/*' -exec awk '
        FNR == 1 { counting = 1 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
        counting && !/^[[:space:]]*(\/\/|$)/ { n++ }
        END { print n + 0 }
    ' {} + | awk -v dir="$dir" '{ n += $1 } END { printf "%6d  %s\n", n, dir }'
done
