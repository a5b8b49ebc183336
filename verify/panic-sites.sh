#!/bin/sh
# A ratchet on panic sites in the library crates.
#
#   verify/panic-sites.sh
#
# Counts `.unwrap()`, `.expect(`, `panic!(` and `unreachable!(` in
# crates/{adt,esql,lera,rewrite,core,engine}/src, reading each file only
# up to its first `#[cfg(test)]` (inline test modules do not count).
# Only code that can panic counts: comment lines (doc examples included)
# are skipped, and so is `self.expect(`, the parsers' own fallible
# token check that returns an error. Prints one line per file with a
# site, then the total, and exits 1 when the total exceeds the ceiling
# in verify/panic_sites.txt. Lower the ceiling when a PR removes sites.
set -eu

root="$(cd "$(dirname "$0")/.." && pwd)"
ceiling=$(tr -d ' \n' <"$root/verify/panic_sites.txt")

cd "$root"
total=0
for f in $(find crates/adt/src crates/esql/src crates/lera/src crates/rewrite/src \
    crates/core/src crates/engine/src -name '*.rs' | sort); do
    n=$(awk '/#\[cfg\(test\)\]/ { exit }
        /^[ \t]*\/\// { next }
        {
            line = $0
            gsub(/self\.expect\(/, "", line)
            n += gsub(/\.unwrap\(\)/, "", line)
            n += gsub(/\.expect\(/, "", line)
            n += gsub(/panic!\(/, "", line)
            n += gsub(/unreachable!\(/, "", line)
        }
        END { print n + 0 }' "$f")
    if [ "$n" -gt 0 ]; then
        printf '%5d  %s\n' "$n" "$f"
    fi
    total=$((total + n))
done
printf '%5d  total (ceiling %d, verify/panic_sites.txt)\n' "$total" "$ceiling"
if [ "$total" -gt "$ceiling" ]; then
    echo "panic sites rose above the ceiling: remove the new ones or document why" >&2
    exit 1
fi
