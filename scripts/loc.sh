#!/usr/bin/env bash
# Prints, per crate, the total and the non-test line counts of crates/*/src,
# then the workspace sum. Non-test lines are the lines above each file's
# first `#[cfg(test)]` that is followed by a `mod` line (the test module);
# a `#[cfg(test)]` on anything else (say, a `use`) does not cut, and a file
# without a test module counts whole. Binaries under src/bin count toward
# their crate and are also listed on their own.
#
# Usage: scripts/loc.sh [repo-root]   (default: the checkout this script is in)
#        scripts/loc.sh --self-test   (checks the counting rule on a fixture)
set -euo pipefail

# Prints "<total> <non-test>" summed over the .rs files under "$1".
count() {
    find "$1" -name '*.rs' -print0 | sort -z | xargs -0 -r awk '
        function flush() { if (held) { kept++; held = 0 } }
        FNR == 1 { flush(); cut = 0 }
        { total++ }
        cut { next }
        held {
            held = 0
            if ($0 ~ /^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?mod[[:space:]]/) { cut = 1; next }
            kept++
        }
        /^[[:space:]]*#\[cfg\(test\)\]/ { held = 1; next }
        { kept++ }
        END { flush(); printf "%d %d\n", total, kept }'
}

if [ "${1:-}" = "--self-test" ]; then
    fixture=$(mktemp -d)
    trap 'rm -rf "$fixture"' EXIT
    # A gated `use` above the code must not cut; the test module must.
    printf '%s\n' '#[cfg(test)]' 'use std::fmt;' 'pub fn a() {}' \
        '#[cfg(test)]' 'mod tests {' '    #[test]' '    fn t() {}' '}' > "$fixture/a.rs"
    # A file without a test module counts whole, a trailing gate included.
    printf '%s\n' 'pub fn b() {}' '#[cfg(test)]' > "$fixture/b.rs"
    # A `pub(crate) mod` test module cuts too.
    printf '%s\n' 'pub fn c() {}' '#[cfg(test)]' 'pub(crate) mod tests {}' > "$fixture/c.rs"
    got=$(count "$fixture")
    want="13 6"
    if [ "$got" != "$want" ]; then
        echo "loc.sh self-test FAILED: counted '$got', want '$want' (total non-test)" >&2
        exit 1
    fi
    echo "loc.sh self-test passed: $got"
    exit 0
fi

root=${1:-"$(dirname "$0")/.."}
cd "$root"

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
