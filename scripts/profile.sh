#!/usr/bin/env bash
# Per-rig host-performance profiling helper.
#
# Usage:
#   scripts/profile.sh [rig] [mode]
#
#   rig   hostbench rig name (default: rvcap_paper). Run
#         `hostbench --help` rigs: rvcap_paper, rvcap_deep,
#         hwicap_paper, hwicap_small, hwicap_multi_rp, sd_staging.
#   mode  scheduler for the timed row: naive or active_set
#         (default: active_set).
#
# Always prints the built-in per-component tick-cost attribution
# (`hostbench --profile`, the table behind BENCH_hostbench_profile.md).
# When `perf` is on PATH, additionally records a cycles profile of the
# *unprofiled* run (so the attribution clock reads don't pollute the
# samples) and prints the top of `perf report`; pass
# PERF_FLAMEGRAPH=1 with `flamegraph` installed to emit an SVG.
set -euo pipefail
cd "$(dirname "$0")/.."

rig="${1:-rvcap_paper}"
mode="${2:-active_set}"

cargo build --release -q -p rvcap-bench --bin hostbench
bin="$PWD/target/release/hostbench"

echo "== tick-cost attribution: $rig ($mode + profiled active_set pass) =="
# Write bench artifacts to a scratch dir so a filtered profiling run
# never clobbers the committed BENCH_* records.
scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT
(cd "$scratch" && RVCAP_RESULTS_DIR="$scratch" "$bin" --rig "$rig" --mode "$mode" --profile)

if command -v perf >/dev/null 2>&1; then
    echo
    echo "== perf record ($rig, $mode, unprofiled binary) =="
    perf record -g -o "$scratch/perf.data" \
        -- "$bin" --rig "$rig" --mode "$mode" >/dev/null
    perf report -i "$scratch/perf.data" --stdio --percent-limit 1 | head -40
    if [ "${PERF_FLAMEGRAPH:-0}" = "1" ] && command -v flamegraph >/dev/null 2>&1; then
        flamegraph --perfdata "$scratch/perf.data" -o "profile-$rig.svg"
        echo "wrote profile-$rig.svg"
    fi
else
    echo
    echo "(perf not found: skipping sampling profile — the attribution"
    echo " table above is the portable fallback)"
fi
