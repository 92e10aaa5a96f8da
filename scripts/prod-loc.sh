#!/bin/sh
# Counts production lines of Rust: for every `*.rs` under `src/` and
# `crates/*/src` (vendored shims under `crates/shims/` excluded), the lines
# before the file's first top-level `#[cfg(test)]`.
#
# Usage: scripts/prod-loc.sh [repo-root]    (default: the current directory)
set -eu
cd "${1:-.}"
find src crates/*/src -name '*.rs' -not -path 'crates/shims/*' -print0 |
    xargs -0 awk '
        FNR == 1 { counting = 1 }
        /^#\[cfg\(test\)\]/ { counting = 0 }
        counting { n++ }
        END { print n + 0 }
    ' | awk '{ total += $1 } END { print total }'
