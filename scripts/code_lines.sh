#!/usr/bin/env bash
# Count code-only lines of Rust sources: non-blank lines that do not start
# with `//` (after indentation), up to the first `#[cfg(test)]` at column 0
# of each file (the test module). An indented `#[cfg(test)]` gates a single
# item and is counted like any other line; `fixtures/indented_cfg_test.rs`
# pins the rule. This is the count CHANGES.md reports when a change claims
# fewer lines.
#
# Usage: scripts/code_lines.sh [path...]   (default: crates)
# Prints one "<lines> <file>" row per .rs file under each path, sorted by
# file name, then "<total> total".
set -euo pipefail

[ $# -eq 0 ] && set -- crates

find "$@" -name '*.rs' -type f -print0 | sort -z | xargs -0 awk '
    FNR == 1 { if (file != "") printf "%6d %s\n", n, file; file = FILENAME; n = 0; done = 0 }
    done { next }
    /^#\[cfg\(test\)\]/ { done = 1; next }
    /^[[:space:]]*$/ { next }
    /^[[:space:]]*\/\// { next }
    { n++; total++ }
    END { if (file != "") printf "%6d %s\n", n, file; printf "%6d total\n", total }
'
