#!/bin/sh
# flagdoc-check: the flag tables in docs/RUNBOOK.md against the binaries.
# Builds wedge-cloud, wedge-edge and wedge-client, reads each one's -help,
# and fails when a flag has no table row, a row names a flag the binary
# does not have, or a row's Default column disagrees with the flag's
# "(default …)" in -help. A flag whose -help shows no default (a zero
# value) needs `0`, `false`, `—` or the flag it falls back to (`-id`). A
# row belongs to a binary when it sits under that binary's "## " heading;
# each binary's table repeats the node flags it shares with the others.
set -eu

cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT INT TERM

status=0
for bin in wedge-cloud wedge-edge wedge-client; do
    go build -o "$WORK/$bin" "./cmd/$bin"
    # name<TAB>default, from the flag package's -help layout: a "  -name"
    # line, then usage lines, the last ending in "(default X)" unless the
    # default is the zero value.
    { "$WORK/$bin" -help 2>&1 || true; } | awk '
        function emit() { if (name != "") print name "\t" def }
        /^  -[a-z0-9-]/ {
            emit()
            name = $1; sub(/^-/, "", name); def = ""
            next
        }
        match($0, /\(default .*\)$/) {
            def = substr($0, RSTART + 9, RLENGTH - 10)
            gsub(/^"|"$/, "", def)
        }
        END { emit() }' >"$WORK/$bin.have"
    awk -v bin="$bin" '
        /^## / { h2 = $0 }
        /^\| `-/ && h2 == "## " bin {
            split($0, cell, "|")
            name = cell[2]; def = cell[3]
            gsub(/[ `]/, "", name); gsub(/`/, "", def); gsub(/^ +| +$/, "", def)
            print substr(name, 2) "\t" def
        }' docs/RUNBOOK.md >"$WORK/$bin.doc"
    cut -f1 "$WORK/$bin.have" | sort -u >"$WORK/$bin.have.names"
    cut -f1 "$WORK/$bin.doc" | sort -u >"$WORK/$bin.doc.names"
    if [ ! -s "$WORK/$bin.have" ]; then
        echo "flagdoc-check: $bin -help listed no flags"
        status=1
    fi
    for f in $(comm -23 "$WORK/$bin.have.names" "$WORK/$bin.doc.names"); do
        echo "flagdoc-check: $bin -$f has no row in docs/RUNBOOK.md"
        status=1
    done
    for f in $(comm -13 "$WORK/$bin.have.names" "$WORK/$bin.doc.names"); do
        echo "flagdoc-check: docs/RUNBOOK.md documents $bin -$f, which the binary does not have"
        status=1
    done
    if ! awk -F '\t' -v bin="$bin" '
        NR == FNR { have[$1] = $2; next }
        !($1 in have) { next }
        have[$1] != "" && $2 != have[$1] {
            printf "flagdoc-check: docs/RUNBOOK.md gives %s -%s the default %s, -help says %s\n", bin, $1, $2, have[$1]
            bad = 1
        }
        have[$1] == "" && $2 != "0" && $2 != "false" && $2 != "—" && $2 !~ /^-/ {
            printf "flagdoc-check: docs/RUNBOOK.md gives %s -%s the default %s, -help shows none (a zero value)\n", bin, $1, $2
            bad = 1
        }
        END { exit bad }' "$WORK/$bin.have" "$WORK/$bin.doc"; then
        status=1
    fi
done
[ "$status" -eq 0 ] && echo "flagdoc-check: RUNBOOK flag tables match wedge-cloud, wedge-edge, wedge-client"
exit "$status"
