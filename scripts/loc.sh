#!/usr/bin/env sh
# Non-test line count of the workspace crates: for every `.rs` file under
# `crates/*/src`, the lines before the `#[cfg(test)]` that precedes its
# `mod tests` (the whole file when it has none). `cpu_tests.rs` is the
# 8051 core's out-of-line test module and counts as test code. Prints one
# `count path` line per file, largest first, then the total. A report,
# not a gate.
#
# Usage: scripts/loc.sh
set -eu

cd "$(dirname "$0")/.."

find crates/*/src -name '*.rs' | sort | while read -r f; do
    case "$f" in
        */cpu_tests.rs) n=0 ;;
        *) n=$(awk '
                /^[[:space:]]*#\[cfg\(test\)\]/ { cfg = NR }
                /^[[:space:]]*mod tests[[:space:]]*[{;]/ && cfg { print cfg - 1; found = 1; exit }
                /^[[:space:]]*$/ { cfg = 0 }
                END { if (!found) print NR }
            ' "$f") ;;
    esac
    echo "$n $f"
done | sort -k1,1nr -k2 | awk '{ print; total += $1 } END { print total " total" }'
