#!/bin/sh
# Fails if Rust code under crates/, src/, tests/ or examples/ uses a
# stand-in API that has an in-tree replacement. The manifests still declare
# the stand-ins (benchmark/standins/) until they go; this keeps code from
# drifting back onto them meanwhile:
#
#   the `bytes` crate    -> kmsg_telemetry::bytes
#   `crossbeam`          -> the component crate's own queue (queue.rs);
#                           nothing else of it is in use
#
#   tools/standin_guard.sh [repo-root]
#
# A `bytes::` path not preceded by a word character or `::` is the crate's:
# inside a grouped import, write `kmsg_telemetry::bytes::` in full. A
# `SegQueue` anywhere counts as `crossbeam`, grouped imports included.
set -u

cd "${1:-$(dirname "$0")/..}" || exit 2

status=0
check() {
    hits=$(grep -rnP --include='*.rs' "$2" crates src tests examples)
    found=$?
    if [ "$found" -gt 1 ]; then
        echo "standin_guard: grep failed" >&2
        exit 2
    fi
    if [ -n "$hits" ]; then
        echo "$hits"
        echo "standin_guard: $1" >&2
        status=1
    fi
}

check "use kmsg_telemetry::bytes, not the bytes crate" \
    '(?<![\w:])bytes::|\bextern\s+crate\s+bytes\b|\buse\s+bytes\s*(;|as\b)'
check "use the component crate's queue, not crossbeam" \
    '\bcrossbeam\b|\bSegQueue\b'
[ "$status" -eq 0 ] && echo "standin_guard: no Rust file names the bytes crate or crossbeam"
exit "$status"
