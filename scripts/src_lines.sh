#!/usr/bin/env bash
# Source size: non-blank, non-comment lines of the .cc/.h files under src/
# and under each of its subdirectories. A line counts unless it is blank or
# its first non-blank characters are `//`; this is the rule behind every
# size figure in CHANGES.md and ROADMAP.md.
#
# Usage: scripts/src_lines.sh        (from any directory)
set -euo pipefail

cd "$(dirname "$0")/.."

count() {
  find "$1" -name '*.cc' -o -name '*.h' | sort | xargs cat |
    grep -Ev '^[[:space:]]*(//|$)' | wc -l
}

printf '%-16s %6d\n' src "$(count src)"
for dir in src/*/; do
  dir="${dir%/}"
  printf '%-16s %6d\n' "$dir" "$(count "$dir")"
done
