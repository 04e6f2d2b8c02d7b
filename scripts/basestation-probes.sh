#!/bin/sh
# The basestation example's bad-input probes: each must be rejected with a
# typed argument error and exit status 2, never a panic or an abort.
#
# usage: scripts/basestation-probes.sh    (builds the example in release)
set -eu
cd "$(dirname "$0")/.."
cargo build --release --quiet --example basestation
bin=target/release/examples/basestation
err=target/basestation-probe.err
failed=0
while read -r probe; do
    # $probe is split on purpose: each line is one argument list.
    # shellcheck disable=SC2086
    if "$bin" $probe >/dev/null 2>"$err"; then status=0; else status=$?; fi
    if [ "$status" -ne 2 ] || grep -q panicked "$err"; then
        echo "FAIL basestation $probe: exit $status" >&2
        cat "$err" >&2
        failed=1
    else
        echo "ok   basestation $probe: $(head -n 1 "$err")"
    fi
done <<'EOF'
--shards 0
banana
--arrival-rate 0
--sessions 18446744073709551615
--shards 4611686018427387904
--arrays-per-shard 4611686018427387904
--shards 16384
EOF
exit "$failed"
