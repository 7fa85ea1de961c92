#!/bin/sh
# Line ledger: non-test lines under crates/*/src, per crate and in total
# (each file counted up to its first `#[cfg(test)]`), then every line of
# Rust outside benchmark/ and build output (tests included), then the lines
# of each prose document a builder reads before touching code, and their
# total.
#
#   tools/loc.sh [repo-root]
#
# Information only: it prints figures and never fails on them.
set -u

cd "${1:-$(dirname "$0")/..}" || exit 2

# non_test <dir>...: lines of every .rs under the dirs up to each file's
# first `#[cfg(test)]`.
non_test() {
    find "$@" -name '*.rs' -print0 | xargs -0 awk '
        FNR == 1 { skip = 0 }
        /#\[cfg\(test\)\]/ { skip = 1 }
        !skip { n++ }
        END { print n + 0 }'
}

for src in crates/*/src; do
    crate=${src#crates/}
    printf '%-12s %6d\n' "${crate%/src}" "$(non_test "$src")"
done
printf '%-12s %6d  non-test lines under crates/*/src\n' total "$(non_test crates/*/src)"
all=$(find . \( -path ./benchmark -o -path ./target -o -path ./.git \) -prune -o \
    -name '*.rs' -print0 | xargs -0 cat | wc -l)
printf '%-12s %6d  lines of Rust outside benchmark/\n' all "$all"

prose=0
for doc in EXPERIMENTS.md DESIGN.md ROADMAP.md benchmark/README.md TESTING.md \
    .claude/skills/verify/SKILL.md; do
    n=$(cat "$doc" 2>/dev/null | wc -l)
    prose=$((prose + n))
    printf '%-32s %6d\n' "$doc" "$n"
done
printf '%-32s %6d  lines of prose\n' prose "$prose"
