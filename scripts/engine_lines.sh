#!/usr/bin/env bash
# engine_lines.sh — the line counts ROADMAP.md tracks: non-test engine lines
# and test lines, over every .go file of the repository apart from the frozen
# benchmark module (benchmark/) and the trees bench_pairs.sh extracts
# (.bench_build/).
#
#   scripts/engine_lines.sh
#
# Prints two lines, "engine <n>" and "tests <n>".
set -euo pipefail

cd "$(git rev-parse --show-toplevel)"
count() {
  find . -name '*.go' "$@" -not -path './benchmark/*' -not -path './.bench_build/*' -print0 |
    xargs -0 cat | wc -l | tr -d ' '
}
echo "engine $(count -not -name '*_test.go')"
echo "tests $(count -name '*_test.go')"
