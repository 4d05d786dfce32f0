#!/usr/bin/env bash
# Net line count of a change, over its `.rs` and `.sh` files.
#
#     bash scripts/loc.sh <base-rev> [<head-rev>]
#     bash scripts/loc.sh --self-test
#
# Prints the lines the change from <base-rev> to <head-rev> (default
# HEAD) adds and removes, and their net, in three classes:
#
# * non-test code;
# * non-test comments: lines that hold only a comment (`//`, `///`,
#   `//!` in Rust, `#` but not the `#!` line in shell);
# * test code: every line of a file under a `tests/` directory, and
#   every line at or after a file's first `#[cfg(test)]`, comments
#   included.
#
# Blank lines count in no class. A removed line is classed by where it
# stood in <base-rev>, an added one by where it stands in <head-rev>. A
# renamed file counts as deleted and added. `--self-test` classes the
# fixed diff scripts/tests/loc.diff and compares the table with
# scripts/tests/loc.out.
set -euo pipefail
cd "$(dirname "$0")/.."

# The table of a `git diff` whose hunks hold whole files, so that each
# side's first `#[cfg(test)]` is seen before the lines after it.
CLASSIFY='
/^diff --git / { path = $4; sub(/^b\//, "", path); hunk = 0; next }
/^@@ / { hunk = 1; test["-"] = test["+"] = path ~ /(^|\/)tests\//; next }
!hunk || /^\\/ { next }
{
    side = substr($0, 1, 1); t = substr($0, 2); sub(/^[ \t]+/, "", t)
    if (t ~ /^#\[cfg\(test\)\]/) { if (side != "+") test["-"] = 1; if (side != "-") test["+"] = 1 }
    if (side == " " || t == "") next
    if (test[side]) c = "test"
    else if (path ~ /\.rs$/ && t ~ /^\/\// || path ~ /\.sh$/ && t ~ /^#/ && t !~ /^#!/) c = "comment"
    else c = "code"
    n[c, side]++
}
function row(name, c) { printf "%-18s %8d %8d %+8d\n", name, n[c, "+"], n[c, "-"], n[c, "+"] - n[c, "-"] }
END {
    printf "%-18s %8s %8s %8s\n", "class", "added", "removed", "net"
    row("non-test code", "code"); row("non-test comments", "comment"); row("test code", "test")
}'

case "${1:-}" in
    --self-test)
        awk "$CLASSIFY" scripts/tests/loc.diff | diff -u scripts/tests/loc.out -
        echo "loc.sh self-test passed"
        ;;
    "" | -*)
        echo "usage: bash scripts/loc.sh <base-rev> [<head-rev>] | --self-test" >&2
        exit 2
        ;;
    *)
        git diff --no-renames --no-color --no-ext-diff --unified=100000000 "$1" "${2:-HEAD}" \
            -- '*.rs' '*.sh' | awk "$CLASSIFY"
        ;;
esac
