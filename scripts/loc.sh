#!/usr/bin/env bash
# Non-test line count of a crate's sources: the measure a "less code"
# claim is made in.
#
#   scripts/loc.sh [<crate-src-dir>]     (default: crates/core/src)
#
# Prints, for every .rs file under the directory (sorted by path), the
# lines before the file's first top-level `#[cfg(test)]` (a line that
# starts with it at column 0; the whole file when there is none), then
# the total. Blank and comment lines count: the measure is the source a
# reader must read, tests excluded.
set -euo pipefail
cd "$(dirname "$0")/.."
dir=${1:-crates/core/src}
if [ ! -d "$dir" ]; then
  echo "usage: $0 [<crate-src-dir>]  ($dir is not a directory)" >&2
  exit 2
fi
find "$dir" -name '*.rs' | LC_ALL=C sort | while read -r f; do
  awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { printf "%6d  %s\n", n, FILENAME }' "$f"
done | awk '{ print; total += $1 } END { printf "%6d  total\n", total }'
