#!/bin/sh
# quick-diff: run every experiment at quick scale on a base revision and on
# the working tree, and compare each experiment's table (header and rows;
# wall_seconds is ignored). The virtual-time experiments are deterministic,
# so a change that claims to keep behaviour must print them byte for byte;
# the wall-clock one is listed below and only reported.
#
# usage: quick-diff.sh BASE — exit 1 when a virtual-time table differs or is
# missing on one side. The base is unpacked with git archive into a temp
# dir, which is removed on exit. Needs jq.
set -eu

base=${1:?usage: quick-diff.sh BASE}
wallclock="F5d"

cd "$(dirname "$0")/.."

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT INT TERM
mkdir "$work/base"
git archive "$base" | tar -x -C "$work/base"

# wedge-bench exits 1 when an experiment reports an error, but still writes
# its tables; that is a difference to report, not a reason to stop.
echo "quick-diff: running $base"
(cd "$work/base" && go run ./cmd/wedge-bench -run all -quick -json "$work/base.json" >"$work/base.txt" 2>&1) || true
echo "quick-diff: running the working tree"
go run ./cmd/wedge-bench -run all -quick -json "$work/head.json" >"$work/head.txt" 2>&1 || true
for side in base head; do
    [ -s "$work/$side.json" ] || { echo "quick-diff: no $side report"; cat "$work/$side.txt"; exit 1; }
done

table() { jq -c --arg id "$2" '.results[] | select(.id == $id) | {header, rows}' "$1"; }

ids=$(jq -r '.results[].id' "$work/base.json" "$work/head.json" | awk '!seen[$0]++')
same="" differ="" skipped=""
for id in $ids; do
    case " $wallclock " in
    *" $id "*) skipped="$skipped $id"; continue ;;
    esac
    a=$(table "$work/base.json" "$id")
    b=$(table "$work/head.json" "$id")
    if [ -n "$a" ] && [ "$a" = "$b" ]; then
        same="$same $id"
    else
        differ="$differ $id"
        echo "quick-diff: $id differs"
        echo "  $base: ${a:-missing}"
        echo "  working tree: ${b:-missing}"
    fi
done
for side in base head; do
    jq -r --arg side "$side" '.results[] | select(.errors) | "quick-diff: \($side) \(.id) reported: \(.errors | join("; "))"' "$work/$side.json"
done
echo "quick-diff: identical:$same"
echo "quick-diff: wall-clock, not comparable:$skipped"
if [ -n "$differ" ]; then
    echo "quick-diff: DIFFERENT:$differ"
    exit 1
fi
