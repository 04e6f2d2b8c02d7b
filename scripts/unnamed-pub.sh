#!/bin/sh
# Public items that nothing outside their crate names.
#
# rustc's dead_code lint cannot see an unused `pub` item, so this script
# looks for them by name. For each product crate it prints every `pub` item
# (function, method, type, trait, const or static) declared in the crate's
# non-test source that
#   - no file outside the crate's `src` names: another crate's source, any
#     crate's `tests`, the root package's `src`, `tests` and `examples`, the
#     benches and the frozen `e2e` package, or a doc example (a fenced block
#     in a `///` or `//!` comment, which rustdoc compiles as another crate);
#   - and no `pub` signature of its own crate names (a public field, a
#     public function's parameters or return type), since narrowing such a
#     type would break that signature.
# A mention in a plain comment is not a caller, nor is a `pub use`
# re-export. Non-test source is what comes before a file's test module (the
# first `#[cfg(test)]` whose next non-blank line opens a `mod`), as
# scripts/counted-lines.sh counts it.
#
# Names are matched as whole words, so a method with a common name (`new`,
# `len`) is always "named" somewhere: the script finds a floor, and rustc
# finds the rest once an item is narrowed to `pub(crate)`.
#
# Prints one `file:line: name` line per unnamed item and exits 1 if it
# printed any (CI fails on that); prints nothing and exits 0 otherwise.
#
# usage: scripts/unnamed-pub.sh
set -eu
cd "$(dirname "$0")/.."
crates="dsp wcdma ofdm core xpp engine"
work=$(mktemp -d "${TMPDIR:-/tmp}/unnamed-pub.XXXXXX")
trap 'rm -rf "$work"' EXIT INT TERM

# Every Rust file of the workspace outside build output.
find crates src tests examples -name '*.rs' -not -path '*/target/*' | sort >"$work/files"

# Code lines of the given files: no plain comment and no `pub use`, plus
# the code inside doc-comment fences.
code_lines() {
    xargs awk '
        /^[[:space:]]*\/\/[\/!][[:space:]]*```/ { fence = !fence; next }
        /^[[:space:]]*\/\/[\/!]/ { if (fence) print; next }
        /^[[:space:]]*\/\// { next }
        /^[[:space:]]*pub(\([a-z]+\))?[[:space:]]+use[[:space:]]/ { next }
        { print }
    '
}

# Doc-example lines only.
doc_lines() {
    xargs awk '
        /^[[:space:]]*\/\/[\/!][[:space:]]*```/ { fence = !fence; next }
        fence && /^[[:space:]]*\/\/[\/!]/ { print }
    '
}

# Non-test source of the given files, as "file:line:text" lines.
non_test() {
    xargs awk '
        FNR == 1 { counting = 1; held = 0 }
        !counting { next }
        held && !/^[[:space:]]*$/ {
            held = 0
            if (/^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]/) { counting = 0; next }
        }
        /^[[:space:]]*#\[cfg\(test\)\]/ { held = 1 }
        { print FILENAME ":" FNR ":" $0 }
    '
}

item='pub[[:space:]]+((const|unsafe)[[:space:]]+)?(fn|struct|enum|trait|type|const|static)[[:space:]]+'
found=0
for crate in $crates; do
    src=crates/$crate/src/
    grep -v "^$src" "$work/files" | code_lines >"$work/callers"
    grep "^$src" "$work/files" | doc_lines >>"$work/callers"
    grep "^$src" "$work/files" | non_test >"$work/source"
    # The crate's own public signatures, each joined onto one line up to
    # its `{` or `;` (or a field's `,`), with the declared name cut out.
    sed 's/^[^:]*:[0-9]*://' "$work/source" | awk '
        !sig && /^[[:space:]]*pub[[:space:]]/ && !/^[[:space:]]*pub[[:space:]]+(use|mod)[[:space:]]/ { sig = 1; text = "" }
        sig {
            text = text " " $0
            if (/[{;]|,[[:space:]]*$/) {
                sub(/pub[[:space:]]+((const|unsafe)[[:space:]]+)?(fn|struct|enum|trait|type|const|static)[[:space:]]+[A-Za-z0-9_]+/, "", text)
                sub(/pub[[:space:]]+[a-z0-9_]+[[:space:]]*:/, "", text)
                print text
                sig = 0
            }
        }
    ' >"$work/signatures"
    grep -E "^[^:]*:[0-9]*:[[:space:]]*$item" "$work/source" >"$work/items" || true
    while IFS= read -r line; do
        name=$(echo "$line" | sed -E "s/^[^:]*:[0-9]*:[[:space:]]*$item([A-Za-z0-9_]+).*/\\4/")
        grep -qw -- "$name" "$work/callers" && continue
        grep -qw -- "$name" "$work/signatures" && continue
        echo "$line" | sed -E 's/^([^:]*:[0-9]*):.*/\1: /' | tr -d '\n'
        echo "$name"
        found=1
    done <"$work/items"
done
[ "$found" = 0 ]
