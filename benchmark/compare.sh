#!/usr/bin/env bash
# Compare two revisions on the benchmark.
#
#   benchmark/compare.sh <base-rev> <head-rev> [pairs] [seconds]
#
# Exports both revisions with `git archive` into a temporary directory
# outside the repository, puts the head revision's benchmark/ into both
# trees (both sides are measured by identical benchmark code), builds
# each once, then runs `pairs` (default 10, at least 10) alternating
# base/head pairs per workload, pair i on seed i, base first on odd
# pairs. For every workload x end-to-end metric it prints each side's
# median and quartiles, the head's win rate over the pairs (ties count
# for neither) and a verdict:
#
#   improved    head wins >= 90% of pairs and the medians differ by more
#               than the base's own quartile spread
#   no worse    head median within the metric's bound of the base median,
#               and the base spread is within the bound
#   unresolved  the spread is wider than the bound, and not every head
#               run beats every base run
#   worse       head median worse than the base median by more than the
#               bound
#
# Needs git, cargo (offline) and python3. Leaves nothing behind.
set -euo pipefail

if [[ $# -lt 2 ]]; then
    sed -n '2,25p' "$0" >&2
    exit 2
fi
base_rev=$1
head_rev=$2
pairs=${3:-10}
repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
seconds=${4:-$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$repo/BENCHMARK.json")}
if (( pairs < 10 )); then
    echo "compare.sh: need at least 10 pairs, got $pairs" >&2
    exit 2
fi

tmp=$(mktemp -d "${TMPDIR:-/tmp}/rvcap-compare.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

for side in base head; do
    rev=${side}_rev
    mkdir -p "$tmp/$side"
    git -C "$repo" archive "${!rev}" | tar -x -C "$tmp/$side"
done
rm -rf "$tmp/base/benchmark" "$tmp/base/BENCHMARK.json"
cp -R "$tmp/head/benchmark" "$tmp/base/benchmark"
cp "$tmp/head/BENCHMARK.json" "$tmp/base/BENCHMARK.json"
for side in base head; do
    echo "building $side..." >&2
    CARGO_TARGET_DIR="$tmp/$side/target" cargo build --release --offline --quiet \
        --manifest-path "$tmp/$side/benchmark/Cargo.toml"
done

workloads=$(python3 -c 'import json,sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$tmp/head/BENCHMARK.json")
results="$tmp/results.jsonl"
run_side() { # side workload seed
    local line
    line=$(cd "$tmp/$1" && ./target/release/rvcap-benchmark \
        --workload "$2" --seed "$3" --seconds "$seconds" --trace 0 | tail -n 1)
    printf '{"side":"%s","workload":"%s","seed":%s,"result":%s}\n' "$1" "$2" "$3" "$line" >>"$results"
}
for w in $workloads; do
    for ((i = 1; i <= pairs; i++)); do
        echo "$w pair $i/$pairs" >&2
        if (( i % 2 )); then
            run_side base "$w" "$i"
            run_side head "$w" "$i"
        else
            run_side head "$w" "$i"
            run_side base "$w" "$i"
        fi
    done
done

python3 - "$tmp/head/BENCHMARK.json" "$results" "$base_rev" "$head_rev" <<'EOF'
import json, statistics, sys

spec = json.load(open(sys.argv[1]))
runs = [json.loads(l) for l in open(sys.argv[2])]
print(f"base {sys.argv[3]}  head {sys.argv[4]}")
print(f"{'workload':<16} {'metric':<20} {'base median [q1, q3]':>34} {'head median [q1, q3]':>34} {'win':>5}  verdict")
for w in spec["workloads"]:
    for m in spec["end_to_end"]:
        name, bound, higher = m["name"], m["bound"], m["better"] == "higher"
        side = {s: {r["seed"]: r["result"]["metrics"][name]["value"]
                    for r in runs if r["side"] == s and r["workload"] == w["name"]}
                for s in ("base", "head")}
        seeds = sorted(side["base"].keys() & side["head"].keys())
        b = [side["base"][s] for s in seeds]
        h = [side["head"][s] for s in seeds]
        better = lambda x, y: x > y if higher else x < y
        wins = sum(better(side["head"][s], side["base"][s]) for s in seeds)
        bq, hq = statistics.quantiles(b, n=4), statistics.quantiles(h, n=4)
        bm, hm = statistics.median(b), statistics.median(h)
        spread = (bq[2] - bq[0]) / abs(bm) if bm else 0.0
        worse_by = ((bm - hm) if higher else (hm - bm)) / abs(bm) if bm else 0.0
        if wins >= 0.9 * len(seeds) and better(hm, bm) and abs(hm - bm) > bq[2] - bq[0]:
            verdict = "improved"
        elif spread > bound and not all(better(x, y) for x in h for y in b):
            verdict = f"unresolved (spread {spread:.1%} > bound {bound:.1%})"
        elif worse_by > bound:
            verdict = f"worse by {worse_by:.1%} (bound {bound:.1%})"
        else:
            verdict = "no worse"
        fmt = lambda med, q: f"{med:.6g} [{q[0]:.6g}, {q[2]:.6g}]"
        print(f"{w['name']:<16} {name:<20} {fmt(bm, bq):>34} {fmt(hm, hq):>34} "
              f"{wins:>2}/{len(seeds):<2}  {verdict}")
EOF
