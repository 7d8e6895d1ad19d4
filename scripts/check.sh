#!/usr/bin/env bash
# Full local gate: build, tests, lints, formatting. Everything runs
# offline — the workspace has no registry dependencies (see DESIGN.md
# §5), so this works in the sandboxed build environment as-is.
set -euo pipefail
cd "$(dirname "$0")/.."

# `--workspace` builds every crate's binaries too (the rvcap-bench
# harness bins), not only the root package's library.
echo "== cargo build --release --workspace =="
cargo build --release --workspace

# The examples check themselves (golden-output and bare-metal asserts)
# and write no files when run without flags; run each once.
echo "== examples (release, self-checking) =="
for example in quickstart adaptive_filters hwicap_vs_rvcap multi_rp bare_metal; do
    echo "-- $example"
    cargo run --release -q --example "$example" > /dev/null
done

# RVCAP_STRICT=1 attaches the bus sanitizer to every SoC the tests
# build: any stream-framing, burst, pairing or decouple violation on
# any channel fails the MMIO-cleanliness asserts. `--workspace` runs
# every crate's unit and integration tests, not just the root
# package's (the root manifest sets no `default-members`).
echo "== RVCAP_STRICT=1 cargo test --workspace -q =="
RVCAP_STRICT=1 cargo test --workspace -q

# Scheduler parity sweep: the suites that pin both schedules (naive,
# active_set) to bit-identical cycle counts, FIFO contents and
# sanitizer verdicts — including randomized backpressure / TLAST /
# decouple-gate toggles over the DMA→ICAP datapath.
echo "== scheduler parity sweep (naive vs active_set, bit-identical) =="
RVCAP_STRICT=1 cargo test -q -p rvcap-sim --test scheduler_equivalence
RVCAP_STRICT=1 cargo test -q -p rvcap-axi --test datapath_parity

# Replay parity: checkpoint → restore into a fresh rig → continue must
# be bit-identical to the uninterrupted run — same cycles, component
# state, MMIO audits, sanitizer verdicts — under both schedulers.
# This is the proof obligation behind hostbench warm-boot forking. On
# a failure the harness bisects the first divergent cycle and writes
# target/replay-divergence-report.txt, which CI uploads as an artifact.
echo "== replay parity (checkpoint/restore/continue, both schedules) =="
RVCAP_STRICT=1 cargo test -q -p rvcap-repro --test replay_parity
RVCAP_STRICT=1 cargo test -q -p rvcap-sim --test replay_props

# Repository benchmark self-test: builds the standalone benchmark
# workspace against the current kernel API and checks every workload
# under the bus sanitizer, so an API change that breaks the benchmark
# fails here rather than at measurement time.
echo "== benchmark self-test (RVCAP_STRICT=1) =="
(cd benchmark && RVCAP_STRICT=1 cargo test --release --offline)

# Lints, formatting and docs run before the host-performance gate: its
# baseline gate depends on the host's clock state, and `set -e` would
# otherwise skip them whenever it fails.
echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo fmt --check =="
cargo fmt --all -- --check

# API docs must build without warnings: a renamed or deleted item then
# cannot leave a dangling intra-doc link behind.
echo "== cargo doc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Host-performance gate: the full median-of-3 grid per rig ×
# scheduler, written to target/BENCH_hostbench.json (plus
# target/BENCH_hostbench_summary.md with the active_set-vs-naive
# speedups) so the gate never rewrites the committed artifacts.
# Warm-boot forking (each rig boots once; every scheduler × sample
# forks from the post-boot checkpoint) makes the robust median
# affordable here. Two gates, both on the active_set rows: a generous
# pinned cycles/sec floor per rig (~5x under measured — a broken
# scheduler, not a slow host), and a relative gate against the
# committed BENCH_hostbench.json baseline in the repository root (>20%
# drop after normalizing by the rig's naive ratio, to cancel host-speed
# differences; each rig's naive and active_set samples interleave).
# --profile adds one profiled active_set pass per rig *after* its
# timed rows (attribution never perturbs the measured medians) and
# writes target/BENCH_hostbench_profile.md for the CI job summary.
# Regenerating the committed artifacts is the same command without
# --out, run from the repository root.
echo "== hostbench (host-perf floors + baseline, median of 3) =="
cargo run --release -q -p rvcap-bench --bin hostbench -- --profile --out target/BENCH_hostbench.json

echo "All checks passed."
