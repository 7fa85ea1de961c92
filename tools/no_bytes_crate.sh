#!/bin/sh
# Fails if Rust code under crates/, src/, tests/ or examples/ names the
# `bytes` crate. Shared buffers are `kmsg_telemetry::bytes`; the manifests
# still declare `bytes` (the benchmark's stand-in) until the stand-ins go,
# and this keeps code from drifting back onto it meanwhile.
#
#   tools/no_bytes_crate.sh [repo-root]
#
# A `bytes::` path not preceded by a word character or `::` is the crate's:
# inside a grouped import, write `kmsg_telemetry::bytes::` in full.
set -u

cd "${1:-$(dirname "$0")/..}" || exit 2

hits=$(grep -rnP --include='*.rs' \
    '(?<![\w:])bytes::|\bextern\s+crate\s+bytes\b|\buse\s+bytes\s*(;|as\b)' \
    crates src tests examples)
status=$?
if [ "$status" -gt 1 ]; then
    echo "no_bytes_crate: grep failed" >&2
    exit 2
fi
if [ -n "$hits" ]; then
    echo "$hits"
    echo "no_bytes_crate: use kmsg_telemetry::bytes, not the bytes crate" >&2
    exit 1
fi
echo "no_bytes_crate: no Rust file names the bytes crate"
