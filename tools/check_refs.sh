#!/bin/sh
# Fails on a doc reference that names nothing, or nothing in particular.
# Three forms are checked, wherever they are written in a Markdown file or
# in a `//` comment of a Rust file:
#
#   DESIGN.md §N       DESIGN.md must have a `## N.` heading;
#   ROADMAP item N     ROADMAP.md must have a numbered item `N. ` under
#                      `## Open items`;
#   <path>.rs::<name>  the one .rs file under crates/, src/, tests/,
#                      examples/ or benchmark/src whose path ends in
#                      <path>.rs must define <name>: a line that starts
#                      with the item (fn, struct, enum, trait, type, const,
#                      static, mod, union or macro_rules!), after any
#                      indent, `pub(...)` and qualifiers. A bare file name
#                      that more than one file has (lib.rs, main.rs, ...)
#                      must be written with enough of its path to name one.
#
# CHANGES.md is history and ISSUE.md a request that names the items it
# asks to delete, so neither is checked; `file.rs::name` is the
# placeholder the docs use for the form itself.
#
#   tools/check_refs.sh [repo-root]
set -u

cd "${1:-$(dirname "$0")/..}" || exit 2

sources="crates src tests examples benchmark/src"

# Every reference as "<file>:<line>: <reference>": the whole line of a
# Markdown file, the text after the first `//` of a Rust line.
refs=$( {
    find . \( -name target -o -name .git \) -prune -o -name '*.md' \
        ! -path ./CHANGES.md ! -path ./ISSUE.md -print
    # shellcheck disable=SC2086
    find $sources -name target -prune -o -name '*.rs' -print
} | sort | while read -r file; do
    awk -v rust="${file%.rs}" -v file="$file" '
        {
            text = $0
            if (rust != file) {
                at = index(text, "//")
                if (at == 0) next
                text = substr(text, at)
            }
            while (match(text, /DESIGN\.md §[0-9]+|ROADMAP item [0-9]+|([A-Za-z0-9_-]+\/)*[A-Za-z0-9_]+\.rs::[A-Za-z0-9_]+/)) {
                print file ":" FNR ": " substr(text, RSTART, RLENGTH)
                text = substr(text, RSTART + RLENGTH)
            }
        }' "$file"
done )

# The numbers of ROADMAP.md's open items, one a line.
open_items=$(awk '/^## / { open = ($0 == "## Open items") }
    open && /^[0-9]+\. / { sub(/\..*/, ""); print }' ROADMAP.md)

# The start of an item's line, up to its name.
item='^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?((const|async|unsafe|extern "[^"]*")[[:space:]]+)*(fn|struct|enum|trait|type|const|static([[:space:]]+mut)?|mod|union)'

failed=0
checked=0
while read -r where ref; do
    [ -n "$ref" ] || continue
    case $ref in
    file.rs::name) continue ;;
    "DESIGN.md §"*)
        n=${ref#"DESIGN.md §"}
        grep -q "^## $n\. " DESIGN.md && { checked=$((checked + 1)); continue; }
        echo "${where} $ref: DESIGN.md has no \"## $n.\" heading"
        ;;
    "ROADMAP item "*)
        n=${ref#"ROADMAP item "}
        echo "$open_items" | grep -qx "$n" && { checked=$((checked + 1)); continue; }
        echo "${where} $ref: ROADMAP.md has no open item $n"
        ;;
    *)
        path=${ref%%::*}
        name=${ref#*::}
        # shellcheck disable=SC2086
        files=$(find $sources -name target -prune -o -name "${path##*/}" -print |
            grep -E "(^|/)$path\$")
        count=$(printf '%s' "$files" | grep -c .)
        if [ "$count" -eq 1 ] && grep -qE "$item[[:space:]]+$name\b|^[[:space:]]*macro_rules![[:space:]]*$name\b" "$files"
        then
            checked=$((checked + 1))
            continue
        fi
        case $count in
        0) echo "${where} $ref: no $path under $sources" ;;
        1) echo "${where} $ref: $files defines no $name" ;;
        *) echo "${where} $ref: $count files end in $path; write more of its path" ;;
        esac
        ;;
    esac
    failed=$((failed + 1))
done <<EOF
$refs
EOF

if [ "$failed" -gt 0 ]; then
    echo "check_refs: $failed reference(s) do not resolve" >&2
    exit 1
fi
echo "check_refs: $checked reference(s), all resolve"
