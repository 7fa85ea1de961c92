#!/bin/sh
# Same-behaviour referee: runs the deterministic kmsg-bench binaries of two
# builds and compares what they write, byte for byte.
#
#   tools/referee.sh <parent-target-dir> <change-target-dir> [work-dir \
#       [parent-kmsg-benchmark change-kmsg-benchmark]]
#
# Each target dir is a CARGO_TARGET_DIR holding release/{chaos,reroute,
# cc_compare,timing_probe,fuzz} (cargo build --release --workspace). The
# binaries write into their working directory, so each side runs in its own
# directory under work-dir (default: a fresh directory under $TMPDIR) —
# nothing else is written. Given the two sides' kmsg-benchmark binaries
# (benchmark/target/release/kmsg-benchmark of each checkout) as well, every
# benchmark workload's simulated figures and per-repetition fingerprints
# are two more artifacts (+15 s): benchmark.sim holds only what is
# simulated, so a change that moves nothing but the engine's event count
# differs in benchmark.fingerprints alone. Prints one verdict line per
# artifact, and the first differing line where one differs; exits non-zero
# on any difference.
set -u

if [ $# -lt 2 ] || [ $# -eq 4 ] || [ $# -gt 5 ]; then
    echo "usage: $0 <parent-target-dir> <change-target-dir> [work-dir" \
        "[parent-kmsg-benchmark change-kmsg-benchmark]]" >&2
    exit 2
fi
parent_bin=$(cd "$1/release" && pwd) || exit 2
change_bin=$(cd "$2/release" && pwd) || exit 2
work=${3:-${TMPDIR:-/tmp}/referee.$$}
if [ $# -eq 5 ]; then
    parent_bench=$(cd "$(dirname "$4")" && pwd)/$(basename "$4") || exit 2
    change_bench=$(cd "$(dirname "$5")" && pwd)/$(basename "$5") || exit 2
fi
mkdir -p "$work/parent" "$work/change" || exit 2
work=$(cd "$work" && pwd) || exit 2

# run <side> <bin-dir> [kmsg-benchmark]: every binary in <work>/<side>;
# output kept per binary.
run() {
    cd "$work/$1" || exit 2
    for cmd in "chaos" "reroute" "cc_compare" "timing_probe --quick" \
        "fuzz --selftest --seeds 0..200 --overlay-seeds 0..12"; do
        name=${cmd%% *}
        # $cmd is split into the binary's arguments on purpose.
        # shellcheck disable=SC2086
        if ! "$2"/$cmd >"$name.out" 2>"$name.err"; then
            echo "FAILED    $1: $cmd (see $work/$1/$name.err)"
            failed=1
        fi
    done
    # The fuzz summary without its wall-clock figures.
    sed 's/ in [0-9.]*s / /' fuzz.out >fuzz.summary
    [ -n "${3:-}" ] || return 0
    if ! "$3" --workload all --quick --trace 0 --seed 1 >benchmark.out 2>benchmark.err; then
        echo "FAILED    $1: kmsg-benchmark (see $work/$1/benchmark.err)"
        failed=1
    fi
    # One line per workload, then its repetitions' fingerprint column.
    sed -n -e 's/^== \([^ ]*\) ==.*/\1/p' \
        -e 's/^  [a-z].* fingerprint \([0-9a-f]*\)$/  \1/p' \
        benchmark.out >benchmark.fingerprints
    # What is simulated, host time left out: per workload, each repetition's
    # msgs/failed/verified/sim columns, then the JSON line's attempted and
    # failed counts and simulated figures. The fingerprint also hashes the
    # engine's event count; this does not.
    while IFS= read -r line; do
        case $line in
        "== "*) echo "$line" | sed 's/^== \([^ ]*\) ==.*/\1/' ;;
        "  warm-up "* | "  timed "*)
            echo "$line" | sed -e 's/  setup .*  sim / sim /' -e 's/  fingerprint .*//' \
                -e 's/^  \([a-z0-9 -]*[a-z0-9]\)  *msgs/  \1: msgs/' -e 's/\([^ ]\)  */\1 /g' ;;
        "{"*)
            echo "$line" | grep -oE -e '"(attempted|failed)": [0-9]+' \
                -e '"(sim_[A-Za-z0-9_]+|wire_bytes_per_payload_byte)": \{"value": [^,}]+' |
                sed -e 's/{"value": //' -e 's/^/  /' ;;
        esac
    done <benchmark.out >benchmark.sim
}

failed=0
run parent "$parent_bin" "${parent_bench:-}"
run change "$change_bin" "${change_bench:-}"

cd "$work" || exit 2
for f in chaos.json chaos.jsonl reroute.json reroute.jsonl BENCH_reroute.json \
    BENCH_cc.json telemetry.json telemetry.jsonl fuzz.summary \
    ${parent_bench:+benchmark.sim benchmark.fingerprints}; do
    if [ ! -f "parent/$f" ] || [ ! -f "change/$f" ]; then
        echo "MISSING   $f"
        failed=1
    elif cmp -s "parent/$f" "change/$f"; then
        echo "identical $f"
    else
        echo "DIFFERS   $f"
        line=$(cmp "parent/$f" "change/$f" | sed -n 's/.* line \([0-9]*\)$/\1/p')
        if [ -n "$line" ]; then
            echo "  first differing line: $line"
            echo "  parent: $(sed -n "${line}p" "parent/$f" | cut -c1-400)"
            echo "  change: $(sed -n "${line}p" "change/$f" | cut -c1-400)"
        fi
        failed=1
    fi
done
grep -h "oracle-clean" change/fuzz.summary
exit "$failed"
