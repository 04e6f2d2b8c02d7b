#!/bin/sh
# Counted lines per crate: the size measure ROADMAP.md and every PR quote.
# A line counts when it is not blank, not a `//` comment, and comes before
# the file's test module: the first `#[cfg(test)]` whose next non-blank line
# opens a `mod`. A `#[cfg(test)]` on a single item (a test-only method, say)
# counts as a line like any other, and counting goes on after it.
#
# usage: scripts/counted-lines.sh [dir ...]    (default: the list below)
set -eu
cd "$(dirname "$0")/.."
[ $# -gt 0 ] || set -- crates/engine/src crates/xpp/src crates/wcdma/src \
    crates/ofdm/src crates/dsp/src crates/core/src crates/bench/benches \
    crates/bench/src/bin/e2e
for dir in "$@"; do
    find "$dir" -name '*.rs' -not -path '*/target/*' -exec awk '
        FNR == 1 { counting = 1; held = 0 }
        !counting || /^[[:space:]]*$/ { next }
        held {
            held = 0
            if (/^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]/) { counting = 0; next }
            n++
        }
        /^[[:space:]]*#\[cfg\(test\)\]/ { held = 1; next }
        !/^[[:space:]]*\/\// { n++ }
        END { print n + 0 }
    ' {} + | awk -v dir="$dir" '{ n += $1 } END { printf "%6d  %s\n", n, dir }'
done
