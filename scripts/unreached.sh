#!/usr/bin/env bash
# Prints, one per line, the library functions that nothing shipped links.
#
# Callers are every non-test binary and example of the workspace, every
# integration-test binary and the perfbench binary. The unit-test harness of a
# lib or a bin is not a caller, so a function that only its own crate's unit
# tests call counts as unreached. Everything is built in debug, where the
# linker drops the sections nothing calls and little is inlined away.
#
# A function counts as defined where its own crate's rlib has a symbol for it:
# a generic function shows up only where its crate instantiates it, and trait
# impls and closures are left out.
#
# Run from anywhere in the repository: scripts/unreached.sh
# CI diffs the output against scripts/unreached.txt.
set -euo pipefail
cd "$(dirname "$0")/.."
export LC_ALL=C
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

cargo build --quiet --bins --examples --tests --message-format=json > "$tmp/workspace.json"
cargo build --quiet --offline --locked --manifest-path perfbench/Cargo.toml \
    --message-format=json > "$tmp/perfbench.json"

# Text symbols, demangled, without their addresses.
functions() { nm -C --defined-only "$@" 2>/dev/null | sed -nE 's/^[0-9a-f]+ [TtWw] //p'; }

jq -r 'select(.reason == "compiler-artifact" and (.target.name | startswith("ptrng_"))
        and .target.kind == ["lib"] and (.profile.test | not))
    | .filenames[] | select(endswith(".rlib"))' "$tmp/workspace.json" |
    while read -r rlib; do
        crate=$(basename "$rlib" | sed -E 's/^lib(ptrng_[a-z]+)-.*/\1/')
        functions "$rlib" | grep "^$crate::" | grep -v -e '::tests::' -e '{{closure}}' || true
    done | sort -u > "$tmp/defined"

jq -r 'select(.reason == "compiler-artifact" and .executable != null
        and ((.target.kind | index("test")) or (.profile.test | not)))
    | .executable' "$tmp/workspace.json" "$tmp/perfbench.json" |
    while read -r caller; do functions "$caller"; done |
    grep '^ptrng_' | sort -u > "$tmp/linked"

comm -23 "$tmp/defined" "$tmp/linked"
