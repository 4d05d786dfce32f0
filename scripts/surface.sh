#!/usr/bin/env bash
# Public functions and constants that only tests use.
#
#     bash scripts/surface.sh
#     bash scripts/surface.sh --self-test
#
# Lists each `pub fn`, `pub const` and `pub static` in the non-test
# code of crates/*/src, src/, examples/ and perfbench/src that nothing
# in that code calls or reads and that scripts/surface.allow does not
# name. A file's non-test code is its lines before its first
# `#[cfg(test)]`, as in loc.sh.
#
# A function counts as called when that code names it as a call or a
# path: `<name>(`, `<name>::<` or `::<name>`, outside a `fn <name>`
# definition. A bare word is not a call, so a module, field or local
# of the same name does not keep a function alive. Code in a doc
# example (a ``` block of `///` or `//!` comments) counts, since it
# shows how the function is meant to be used; other comments do not.
# Names are matched as text, not resolved by type, so a function
# shares the callers of every other function of its name.
#
# A constant or static counts as read when its name appears as a word
# anywhere in that code outside its own definition, with the same
# rules for comments and doc examples.
#
# Each line of scripts/surface.allow is `<path> <name> <reason>`; `#`
# starts a comment line. An entry without a reason, or one that names
# no unused `pub` item (it is gone or now has a user), is reported
# too, so the list stays exact.
#
# Prints one line per finding and exits 1 if there is any.
# `--self-test` runs the check over the fixed tree scripts/tests/surface
# and compares its findings with scripts/tests/surface.out.
set -euo pipefail
cd "$(dirname "$0")/.."

SCAN='
FNR == 1 { live = 1; fence = 0 }
FILENAME == allow {
    if ($0 ~ /^[ \t]*(#|$)/) next
    if (NF < 3) { print allow ":" FNR ": " $1 " " $2 ": the entry gives no reason"; next }
    entry[$1 " " $2] = FNR
    next
}
/^[ \t]*#\[cfg\(test\)\]/ { live = 0 }
!live { next }
{
    line = $0
    if (match(line, /^[ \t]*pub (const |async |unsafe )*fn [A-Za-z_][A-Za-z0-9_]*/)) {
        name = substr(line, RSTART, RLENGTH)
        sub(/.*fn /, "", name)
        n++
        where[n] = FILENAME ":" FNR
        key[n] = FILENAME " " name
        fname[n] = name
    }
    if (match(line, /^[ \t]*pub (const|static( mut)?) [A-Za-z_][A-Za-z0-9_]*[ \t]*:/)) {
        name = substr(line, RSTART, RLENGTH)
        sub(/[ \t]*:$/, "", name)
        sub(/.* /, "", name)
        n++
        where[n] = FILENAME ":" FNR
        key[n] = FILENAME " " name
        fname[n] = name
        konst[n] = 1
        line = substr(line, RSTART + RLENGTH)
    }
    if (line ~ /^[ \t]*\/\/[\/!][ \t]*```/) { fence = !fence; next }
    if (fence) sub(/^[ \t]*\/\/[\/!]/, "", line)
    sub(/\/\/.*/, "", line)
    gsub(/(^|[^A-Za-z0-9_])fn [A-Za-z_][A-Za-z0-9_]*/, " ", line)
    rest = line
    while (match(rest, /[A-Za-z_][A-Za-z0-9_]*(\(|::<)/)) {
        name = substr(rest, RSTART, RLENGTH)
        sub(/(\(|::<)$/, "", name)
        called[name] = 1
        rest = substr(rest, RSTART + RLENGTH)
    }
    rest = line
    while (match(rest, /::[A-Za-z_][A-Za-z0-9_]*/)) {
        called[substr(rest, RSTART + 2, RLENGTH - 2)] = 1
        rest = substr(rest, RSTART + RLENGTH)
    }
    rest = line
    while (match(rest, /[A-Za-z_][A-Za-z0-9_]*/)) {
        word[substr(rest, RSTART, RLENGTH)] = 1
        rest = substr(rest, RSTART + RLENGTH)
    }
}
END {
    for (i = 1; i <= n; i++) {
        if (konst[i] ? (fname[i] in word) : (fname[i] in called)) continue
        if (key[i] in entry) needed[key[i]] = 1
        else print where[i] " " fname[i]
    }
    for (k in entry) if (!(k in needed)) print allow ":" entry[k] ": " k ": no unused pub item by that name"
}'

# Prints the findings for the tree at $1 against its allow-list $2
# (relative to $1), sorted. Status 1 if there are any, 2 if the scan
# itself fails.
scan() {
    local found
    found=$(
        cd "$1"
        shopt -s globstar nullglob
        awk -v allow="$2" "$SCAN" "$2" crates/*/src/**/*.rs src/**/*.rs examples/**/*.rs \
            perfbench/src/**/*.rs | LC_ALL=C sort
    ) || return 2
    [ -z "$found" ] || { echo "$found"; return 1; }
}

case "${1:-}" in
    --self-test)
        status=0
        found=$(scan scripts/tests/surface surface.allow) || status=$?
        printf '%s\n' "$found" | diff -u scripts/tests/surface.out -
        [ "$status" = 1 ] || { echo "surface.sh self-test: exit $status, expected 1" >&2; exit 1; }
        echo "surface.sh self-test passed"
        ;;
    "")
        status=0
        scan . scripts/surface.allow || status=$?
        case "$status" in
            0) echo "surface.sh: every unused pub item is on scripts/surface.allow" ;;
            1) echo "surface.sh: delete each item above, or allow it with a reason" >&2 ;;
        esac
        exit "$status"
        ;;
    *)
        echo "usage: bash scripts/surface.sh [--self-test]" >&2
        exit 2
        ;;
esac
