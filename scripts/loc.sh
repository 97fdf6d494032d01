#!/usr/bin/env bash
# Non-test line count of crate sources: the measure a "less code" claim
# is made in.
#
#   scripts/loc.sh [<crate-src-dir>...]     (default: crates/core/src)
#
# Prints, for every .rs file under each directory (sorted by path), the
# lines before the file's first top-level `#[cfg(test)]` (a line that
# starts with it at column 0; the whole file when there is none). With
# several directories, each directory's files are followed by its
# `total <dir>` line; the last line is the `total` over all of them.
# Blank and comment lines count: the measure is the source a reader must
# read, tests excluded.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ $# -eq 0 ]; then
  set -- crates/core/src
fi
for dir in "$@"; do
  if [ ! -d "$dir" ]; then
    echo "usage: $0 [<crate-src-dir>...]  ($dir is not a directory)" >&2
    exit 2
  fi
done
for dir in "$@"; do
  find "$dir" -name '*.rs' | LC_ALL=C sort | while read -r f; do
    awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { printf "%6d  %s\n", n, FILENAME }' "$f"
  done
  echo "== $dir"
done | awk -v dirs=$# '
  /^== / { if (dirs > 1) printf "%6d  total %s\n", part, substr($0, 4); part = 0; next }
  { print; part += $1; total += $1 }
  END { printf "%6d  total\n", total }'
