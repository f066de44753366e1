#!/bin/sh
# flagdoc-check: the flag tables in docs/RUNBOOK.md against the binaries.
# Builds wedge-cloud, wedge-edge and wedge-client, reads each one's -help,
# and fails when a flag has no table row or a row names a flag the binary
# does not have. A row belongs to a binary when it sits under that
# binary's "## " heading, or under a "### " heading that names the binary
# in backticks (the chaos flags are shared by two of them).
set -eu

cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT INT TERM

status=0
for bin in wedge-cloud wedge-edge wedge-client; do
    go build -o "$WORK/$bin" "./cmd/$bin"
    { "$WORK/$bin" -help 2>&1 || true; } |
        sed -n 's/^  -\([a-z0-9-]*\).*/\1/p' | sort -u >"$WORK/$bin.have"
    awk -v bin="$bin" '
        /^## /  { h2 = $0; h3 = "" }
        /^### / { h3 = $0 }
        /^\| `-/ && (h2 == "## " bin || index(h3, "`" bin "`")) {
            split($0, cell, "`")
            print substr(cell[2], 2)
        }' docs/RUNBOOK.md | sort -u >"$WORK/$bin.doc"
    if [ ! -s "$WORK/$bin.have" ]; then
        echo "flagdoc-check: $bin -help listed no flags"
        status=1
    fi
    for f in $(comm -23 "$WORK/$bin.have" "$WORK/$bin.doc"); do
        echo "flagdoc-check: $bin -$f has no row in docs/RUNBOOK.md"
        status=1
    done
    for f in $(comm -13 "$WORK/$bin.have" "$WORK/$bin.doc"); do
        echo "flagdoc-check: docs/RUNBOOK.md documents $bin -$f, which the binary does not have"
        status=1
    done
done
[ "$status" -eq 0 ] && echo "flagdoc-check: RUNBOOK flag tables match wedge-cloud, wedge-edge, wedge-client"
exit "$status"
