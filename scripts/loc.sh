#!/usr/bin/env bash
# Prints, per crate, the total and the non-test line counts of crates/*/src,
# then the workspace sum. Non-test lines are the lines above each file's
# first `#[cfg(test)]`; a file without one counts whole. Binaries under
# src/bin count toward their crate and are also listed on their own.
#
# Usage: scripts/loc.sh [repo-root]   (default: the checkout this script is in)
set -euo pipefail

root=${1:-"$(dirname "$0")/.."}
cd "$root"

# Prints "<total> <non-test>" summed over the .rs files under "$1".
count() {
    find "$1" -name '*.rs' -print0 | sort -z | xargs -0 -r awk '
        FNR == 1 { cut = 0 }
        !cut && /^[[:space:]]*#\[cfg\(test\)\]/ { cut = 1 }
        { total++; if (!cut) kept++ }
        END { printf "%d %d\n", total, kept }'
}

printf '%-24s %8s %9s\n' path total non-test
sum_total=0
sum_kept=0
for src in crates/*/src; do
    read -r total kept < <(count "$src")
    printf '%-24s %8d %9d\n' "$src" "$total" "$kept"
    sum_total=$((sum_total + total))
    sum_kept=$((sum_kept + kept))
    if [ -d "$src/bin" ]; then
        read -r total kept < <(count "$src/bin")
        printf '%-24s %8d %9d\n' "  $src/bin" "$total" "$kept"
    fi
done
printf '%-24s %8d %9d\n' "crates/*/src" "$sum_total" "$sum_kept"
