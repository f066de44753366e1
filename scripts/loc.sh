#!/bin/sh
# loc: non-test Go lines (wc -l: code, comments and blanks alike) per
# package outside benchmark/, and their total — the figure ROADMAP's code
# diet is tracked by. Lines moved into _test.go files leave this count
# without leaving the repository; CHANGES.md entries say so when they do.
#
# usage: loc.sh [ceiling] — with a ceiling, exit 1 when the total is above
# it: the diet is a ratchet, and growing the tree means moving the number.
set -eu

ceiling=${1:-0}

cd "$(dirname "$0")/.."

find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.*' -exec wc -l {} + |
    awk -v ceiling="$ceiling" '$2 != "total" {
        dir = $2
        sub(/\/[^\/]*$/, "", dir)
        lines[dir] += $1
        total += $1
    }
    END {
        for (d in lines) printf "%7d  %s\n", lines[d], d | "sort -k2"
        close("sort -k2")
        printf "%7d  total\n", total
        if (ceiling > 0 && total > ceiling) {
            printf "loc: %d lines is over the ceiling of %d; shrink the change or raise LOC_CEILING in the Makefile in the same diff\n", total, ceiling
            exit 1
        }
    }'
