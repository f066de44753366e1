#!/usr/bin/env bash
# pairs: the wall-clock evidence for a performance change. Runs the macro
# benchmark (bash benchmark/run.sh) alternately on a base revision and on the
# working tree, N pairs per workload, the base first in odd pairs and second
# in even ones, and prints per end-to-end metric of BENCHMARK.json:
#
#   base and tree medians, each side's interquartile range, the pairs the
#   tree won (k/N), and OK or WORSE against the metric's bound;
#
# then ops_per_s and cpu_us_per_op normalised by each run's ref_verify_us
# (the host's speed during that run) over the median reference of all the
# workload's runs: reported beside the raw numbers, never gated.
#
# usage: pairs.sh BASE [WORKLOADS] [N] [SEEDS] [SECONDS]
#   WORKLOADS  comma-separated (default: every workload of BENCHMARK.json)
#   N          pairs per workload (default 5)
#   SEEDS      first-last or a comma list, one seed per pair (default 1-N)
#   SECONDS    measured seconds per run (default: run_seconds of BENCHMARK.json)
#
# Every result line is kept, tagged with its side and pair, in $PAIRS_OUT
# (default pairs.jsonl in the working tree). The base is unpacked with git
# archive under TMPDIR and removed on exit; each side builds its harness in
# its own checkout. Needs jq. Exit 1 when a metric is worse than its bound
# or a run is not correct.
set -euo pipefail

base=${1:?usage: pairs.sh BASE [WORKLOADS] [N] [SEEDS] [SECONDS]}
cd "$(dirname "$0")/.."
root=$(pwd)
workloads=${2:-$(jq -r '[.workloads[].name] | join(",")' BENCHMARK.json)}
n=${3:-5}
seeds=${4:-1-$n}
secs=${5:-}
out=${PAIRS_OUT:-$root/pairs.jsonl}

case $seeds in
*-*) seedlist=$(seq "${seeds%-*}" "${seeds#*-}" | tr '\n' ' ') ;;
*) seedlist=$(echo "$seeds" | tr ',' ' ') ;;
esac
set -- $seedlist
if [ $# -lt "$n" ]; then
    echo "pairs: $n pairs need $n seeds, got $#: $seedlist" >&2
    exit 2
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT INT TERM
mkdir "$work/base"
git archive "$base" | tar -x -C "$work/base"
: >"$out"

# run SIDE DIR WORKLOAD PAIR SEED: one run; its full result (raw values and
# ref_verify_us included), tagged with side and pair, is appended to $out.
run() {
    local side=$1 dir=$2 wl=$3 pair=$4 seed=$5 res="$work/result.json"
    echo "pairs: $wl pair $pair seed $seed: $side" >&2
    rm -f "$res"
    (cd "$dir" && bash benchmark/run.sh --workload "$wl" --seed "$seed" --trace 0 \
        ${secs:+--seconds "$secs"} --result "$res" >"$work/log" 2>&1) || true
    if ! jq -e .metrics "$res" >/dev/null 2>&1; then
        echo "pairs: $side run of $wl seed $seed wrote no result:" >&2
        tail -n 20 "$work/log" >&2
        echo '{"correct":false,"failed":-1,"metrics":{}}' >"$res"
    fi
    jq -c --arg side "$side" --argjson pair "$pair" --arg wl "$wl" '. + {side: $side, pair: $pair, workload: $wl}' "$res" >>"$out"
}

for wl in $(echo "$workloads" | tr ',' ' '); do
    for pair in $(seq 1 "$n"); do
        seed=$(echo "$seedlist" | cut -d' ' -f"$pair")
        if [ $((pair % 2)) -eq 1 ]; then
            run base "$work/base" "$wl" "$pair" "$seed"
            run tree "$root" "$wl" "$pair" "$seed"
        else
            run tree "$root" "$wl" "$pair" "$seed"
            run base "$work/base" "$wl" "$pair" "$seed"
        fi
    done
done

# One row per (workload, metric, side, pair, value): the end-to-end metrics,
# then the two normalised ones (raw value scaled by the run's reference).
jq -r --slurpfile c BENCHMARK.json '
    ($c[0].end_to_end | map({(.name): .}) | add) as $defs
    | . as $r
    | ($defs | keys[]) as $m
    | select($r.metrics[$m] != null)
    | [$r.workload, $m, $r.side, $r.pair, $r.metrics[$m].value, $defs[$m].better, $defs[$m].bound] | @tsv' "$out" >"$work/rows"
jq -r '
    . as $r | select(.ref_verify_us != null and .ref_verify_us > 0)
    | (["ops_per_s", "cpu_us_per_op"][]) as $m
    | select($r.metrics[$m] != null)
    | [$r.workload, $m, $r.side, $r.pair, ($r.metrics[$m].raw // $r.metrics[$m].value), $r.ref_verify_us] | @tsv' "$out" >"$work/norm"
jq -r '[.workload, .side, .pair, .correct, .failed] | @tsv' "$out" >"$work/runs"

awk -F'\t' -v n="$n" '
function sortv(a, k,    i, j, t) {
    for (i = 2; i <= k; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t }
}
function q(a, k, p,    x, i) {
    if (k == 0) return 0
    x = 1 + (k - 1) * p; i = int(x)
    return i >= k ? a[k] : a[i] + (x - i) * (a[i + 1] - a[i])
}
function stats(key, side,    k, i, a) {
    k = cnt[key, side]
    for (i = 1; i <= k; i++) a[i] = val[key, side, i]
    sortv(a, k)
    med[side] = q(a, k, 0.5); iqr[side] = q(a, k, 0.75) - q(a, k, 0.25)
}
FILENAME ~ /rows$/ {
    key = $1 SUBSEP $2
    if (!(key in seen)) { seen[key] = 1; order[++nk] = key }
    val[key, $3, ++cnt[key, $3]] = $5; bypair[key, $3, $4] = $5
    better[key] = $6; bound[key] = $7
    next
}
FILENAME ~ /norm$/ {
    key = $1 SUBSEP $2
    if (!(key in nseen)) { nseen[key] = 1; norder[++nn] = key }
    nraw[key, $3, $4] = $5; nref[key, $3, $4] = $6
    refs[$1, ++nrefs[$1]] = $6
    next
}
FILENAME ~ /runs$/ {
    if ($4 != "true" || $5 != 0) { bad++; printf "pairs: %s %s pair %s: correct %s, failed %s\n", $1, $2, $3, $4, $5 }
    next
}
END {
    fail = 0
    printf "%-14s %-20s %12s %10s %12s %10s %6s  %s\n", "workload", "metric", "base_med", "base_iqr", "tree_med", "tree_iqr", "wins", "bound"
    for (o = 1; o <= nk; o++) {
        key = order[o]; split(key, kw, SUBSEP)
        stats(key, "base"); bm = med["base"]; bi = iqr["base"]
        stats(key, "tree"); tm = med["tree"]; ti = iqr["tree"]
        wins = 0; pairs = 0
        for (p = 1; p <= n; p++) {
            if (!((key, "base", p) in bypair) || !((key, "tree", p) in bypair)) continue
            pairs++
            b = bypair[key, "base", p]; t = bypair[key, "tree", p]
            if ((better[key] == "lower" && t < b) || (better[key] == "higher" && t > b)) wins++
        }
        worse = better[key] == "lower" ? tm - bm : bm - tm
        verdict = (bm != 0 && worse > bound[key] * (bm < 0 ? -bm : bm)) ? "WORSE" : "OK"
        if (verdict == "WORSE") fail = 1
        printf "%-14s %-20s %12.4g %10.4g %12.4g %10.4g %3d/%-2d  %s (%.0f%%)\n", kw[1], kw[2], bm, bi, tm, ti, wins, pairs, verdict, bound[key] * 100
    }
    if (nn > 0) {
        printf "\nnormalised by ref_verify_us (reported, not gated)\n"
        printf "%-14s %-20s %12s %10s %12s %10s %6s\n", "workload", "metric", "base_med", "base_iqr", "tree_med", "tree_iqr", "wins"
    }
    for (o = 1; o <= nn; o++) {
        key = norder[o]; split(key, kw, SUBSEP)
        k = nrefs[kw[1]]; delete r
        for (i = 1; i <= k; i++) r[i] = refs[kw[1], i]
        sortv(r, k); mref = q(r, k, 0.5)
        wins = 0; pairs = 0
        for (p = 1; p <= n; p++) {
            for (s = 1; s <= 2; s++) {
                side = s == 1 ? "base" : "tree"
                if (!((key, side, p) in nraw)) continue
                scale = kw[2] == "ops_per_s" ? nref[key, side, p] / mref : mref / nref[key, side, p]
                v[side, p] = nraw[key, side, p] * scale
                val["n" key, side, ++cnt["n" key, side]] = v[side, p]
            }
            if (((key, "base", p) in nraw) && ((key, "tree", p) in nraw)) {
                pairs++
                if ((kw[2] == "ops_per_s" && v["tree", p] > v["base", p]) || (kw[2] == "cpu_us_per_op" && v["tree", p] < v["base", p])) wins++
            }
        }
        stats("n" key, "base"); bm = med["base"]; bi = iqr["base"]
        stats("n" key, "tree"); tm = med["tree"]; ti = iqr["tree"]
        printf "%-14s %-20s %12.4g %10.4g %12.4g %10.4g %3d/%-2d\n", kw[1], kw[2] "~", bm, bi, tm, ti, wins, pairs
    }
    if (bad) fail = 1
    exit fail
}' "$work/rows" "$work/norm" "$work/runs"
