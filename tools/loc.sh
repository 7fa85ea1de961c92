#!/bin/sh
# Line ledger: non-test lines under crates/*/src, per crate and in total
# (each file counted up to its first `#[cfg(test)]`), and beside them the
# test lines (every line of Rust under crates/<c>/ minus the non-test
# figure); then every line of Rust outside benchmark/ and build output
# (tests included), then the lines of each prose document a builder reads
# before touching code, and their total.
#
# Each Rust figure is given twice: `raw` counts the files as committed, and
# `rustfmt` counts a copy of them run through rustfmt with its default
# settings (made under $TMPDIR and removed afterwards), so a count measures
# code rather than layout: packing argument lists onto fewer lines moves
# `raw` but not `rustfmt`. Without rustfmt on the PATH that column reads `-`.
#
#   tools/loc.sh [repo-root]
#
# Information only: it prints figures and never fails on them.
set -u

cd "${1:-$(dirname "$0")/..}" || exit 2

# rust_files: every .rs outside benchmark/ and build output, NUL-separated.
rust_files() {
    find . \( -path ./benchmark -o -path ./target -o -path ./.git \) -prune -o \
        -name '*.rs' -print0
}

# The rustfmt-normalised copy, if rustfmt is there. rustfmt formats each
# file and the out-of-line modules it declares; a file it cannot parse is
# counted as it stands.
norm=
if command -v rustfmt >/dev/null 2>&1 &&
    norm=$(mktemp -d "${TMPDIR:-/tmp}/loc.XXXXXX"); then
    trap 'rm -rf "$norm"' EXIT
    trap 'exit 1' HUP INT TERM
    rust_files | xargs -0 sh -c 'for f; do mkdir -p "$0/${f%/*}" && cp "$f" "$0/$f"; done' "$norm"
    (cd "$norm" && find . -name '*.rs' -print0 |
        xargs -0 rustfmt --edition 2021 >/dev/null 2>&1) || true
fi

# non_test <dir>...: lines of every .rs under the dirs up to each file's
# first `#[cfg(test)]`.
non_test() {
    find "$@" -name '*.rs' -print0 | xargs -0 awk '
        FNR == 1 { skip = 0 }
        /#\[cfg\(test\)\]/ { skip = 1 }
        !skip { n++ }
        END { print n + 0 }'
}

# test_lines <crate dir>...: every line of every .rs under the crates,
# minus their non-test lines.
test_lines() {
    all=$(find "$@" -name '*.rs' -print0 | xargs -0 cat | wc -l)
    for crate; do
        shift
        set -- "$@" "$crate/src"
    done
    echo $((all - $(non_test "$@")))
}

# both <command> <arg>...: the command's figure in this tree, then in the
# rustfmt copy (`-` without one).
both() {
    raw=$("$@")
    if [ -n "$norm" ]; then fmt=$(cd "$norm" && "$@"); else fmt=-; fi
    printf '%6s %8s' "$raw" "$fmt"
}

all_lines() {
    rust_files | xargs -0 cat | wc -l
}

# Counted in full before anything is printed, so a reader that stops
# early (`| head`) cannot leave the copy behind.
rust=$(
    printf '%-12s %6s %8s %6s %8s\n' '' raw rustfmt test rustfmt
    for src in crates/*/src; do
        crate=${src%/src}
        printf '%-12s %s %s\n' "${crate#crates/}" "$(both non_test "$src")" \
            "$(both test_lines "$crate")"
    done
    printf '%-12s %s %s  non-test and test lines under crates/\n' total \
        "$(both non_test crates/*/src)" "$(both test_lines crates/*)"
    printf '%-12s %s  lines of Rust outside benchmark/\n' all "$(both all_lines)"
)
[ -z "$norm" ] || rm -rf "$norm"
printf '%s\n' "$rust"

prose=0
for doc in EXPERIMENTS.md DESIGN.md ROADMAP.md benchmark/README.md TESTING.md \
    .claude/skills/verify/SKILL.md; do
    n=$(cat "$doc" 2>/dev/null | wc -l)
    prose=$((prose + n))
    printf '%-32s %6d\n' "$doc" "$n"
done
printf '%-32s %6d  lines of prose\n' prose "$prose"
