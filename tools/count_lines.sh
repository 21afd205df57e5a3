#!/usr/bin/env bash
# Non-test Rust lines per crate:
#
#   tools/count_lines.sh
#
# Counts every `.rs` file under `crates/` outside `tests/` directories,
# up to (not including) the file's first `#[cfg(test)]` line. Blank
# lines and comments count; unit-test modules at the end of a file do
# not. Prints one `<crate> <lines>` row per crate, then the total.

set -euo pipefail

cd "$(dirname "$0")/.."

total=0
for dir in crates/*/; do
    crate=$(basename "$dir")
    lines=0
    while IFS= read -r -d '' file; do
        n=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
        lines=$((lines + n))
    done < <(find "$dir" -name '*.rs' -not -path '*/tests/*' -print0)
    printf '%-10s %6d\n' "$crate" "$lines"
    total=$((total + lines))
done
printf '%-10s %6d\n' total "$total"
