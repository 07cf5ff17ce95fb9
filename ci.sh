#!/usr/bin/env bash
# CI gate: build, tests, formatting, lints. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release
cargo test -q
# Shim unit tests in release too: thread-timing tests can pass in debug and
# fail once release builds fold their busy-work away.
cargo test --release -q -p xpu-shim --lib
cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings

# Fault-matrix smoke stage: the chaos crate's plan/injector/scenario and
# property tests, plus the seeded crash-recovery e2e whose replay assertion
# (same seed ⇒ byte-identical event log) gates determinism.
cargo test -q -p molecule-chaos
cargo test -q --test chaos_recovery

# Bench JSON summaries land at the repo root so plotting scripts and the
# gates below read the same committed artifacts.
export MOLECULE_BENCH_DIR="$PWD"

# Scheduling smoke stage: the sched crate's unit + property tests, the
# PU-death failover e2e, and a fig_sched run that must export
# BENCH_sched.json with nothing shed or lost at the low-load points.
cargo test -q -p molecule-sched
cargo test -q --test sched_failover
cargo run --release -q -p molecule-bench --bin fig_sched
test -f BENCH_sched.json
jq -e '[.rows[] | select(.[1].value <= 160)] | length > 0 and all(.[4].value == 0 and .[7].value == 0)' \
    BENCH_sched.json >/dev/null

# Data-plane smoke stage: the transport-equivalence property tests plus a
# fig_comm run. Gates: the adaptive data plane never loses to the best
# pinned transport at any payload size, and the shared-segment descriptor
# path buys >=2x on 64 KiB+ cross-PU payloads.
cargo test -q -p xpu-shim --test transport_equivalence
cargo run --release -q -p molecule-bench --bin fig_comm
test -f BENCH_comm.json
jq -e '[.rows[]] | length > 0 and all(.[4].value <= .[5].value)' BENCH_comm.json >/dev/null
jq -e '[.rows[] | select(.[0].value >= 65536)] | length > 0 and all(.[6].value >= 2)' \
    BENCH_comm.json >/dev/null

# Shared-state smoke stage: the state crate's unit + model-based property
# tests, the stateful workloads, and a fig_state run. Gates: at 8
# co-located sandboxes the shared-weights fleet costs at most half the
# copy-per-instance baseline's memory, and the shared-region shuffle beats
# the inline-copy baseline by >=2x at 64 KiB partitions.
cargo test -q -p molecule-state
cargo test -q -p workloads stateful
cargo run --release -q -p molecule-bench --bin fig_state
test -f BENCH_state.json
jq -e '[.rows[] | select(.[0].value == 8)] | length > 0 and all(.[6].value <= 0.5)' \
    BENCH_state.json >/dev/null
test -f BENCH_state_shuffle.json
jq -e '[.rows[] | select(.[0].value >= 65536)] | length > 0 and all(.[6].value >= 2)' \
    BENCH_state_shuffle.json >/dev/null

# Rack smoke stage: the rack crate's ring property + stack e2e tests and a
# fig_rack run. Gates: zero lost requests at every point of the scaling
# sweep, the 16-node rack sustains >= 10x the single node's best point, and
# descriptor-eligible cross-node DAG edges elide their payload bytes from
# the fabric hand-off.
cargo test -q -p molecule-rack
cargo run --release -q -p molecule-bench --bin fig_rack
test -f BENCH_rack.json
jq -e '[.rows[]] | length > 0 and all(.[7].value == 0)' BENCH_rack.json >/dev/null
jq -e '([.rows[] | select(.[0].value == 16 and .[11].raw == "yes") | .[1].value] | max)
       >= 10 * ([.rows[] | select(.[0].value == 1 and .[11].raw == "yes") | .[1].value] | max)' \
    BENCH_rack.json >/dev/null
test -f BENCH_rack_edges.json
jq -e '[.rows[] | select(.[0].value >= 16384)] | length > 0 and all(.[2].value > 0)' \
    BENCH_rack_edges.json >/dev/null

# Tenancy smoke stage: the tenancy crate's SFQ/token-bucket unit + property
# tests, the cross-tenant denial e2e in sched, and a fig_tenancy run (one
# tenant floods at 10x the machine's drain capacity). Gates: every victim
# row keeps loss at 0 and p99 within 1.2x of its unloaded baseline, and the
# antagonist is rate-denied and held to its weight share (+10pp) of
# delivered service.
cargo test -q -p molecule-tenancy
cargo test -q -p molecule-sched tenant
cargo run --release -q -p molecule-bench --bin fig_tenancy
test -f BENCH_tenancy.json
jq -e '[.rows[] | select(.[1].raw == "victim")] | length == 3
       and all(.[5].value == 0 and .[9].value <= 1.2)' BENCH_tenancy.json >/dev/null
jq -e '[.rows[] | select(.[1].raw == "antagonist")] | length == 1
       and all(.[6].value > 0 and .[12].value <= 0.35)' BENCH_tenancy.json >/dev/null

# Engine hot-path stage: every hetsim unit and integration test (the
# event-core property tests against a BinaryHeap reference model, the
# coroutine-vs-thread-backend differential test, the teardown test and the
# coroutine allocation and stack-reuse pins among them), the cross-process
# timer-storm determinism probe, and a fig_engine run. The binary itself
# asserts the allocation budget (<=1 heap allocation per 100 events,
# steady state, under a counting global allocator) and that the legacy
# emulation fires the byte-identical event order. Gates below: the
# overhauled core beats the legacy baseline_eps (first row) by >=5x, the
# probe rows agree on one fire-order checksum, and the process-switch rows
# (selected by config string, ns/event column by header name) cost <=1 us
# per yield_now each, with 256 processes at most 2x the cost of one.
cargo test -q -p hetsim
cargo test -q --test determinism engine_timer_storm
cargo run --release -q -p molecule-bench --bin fig_engine
test -f BENCH_engine.json
jq -e '(.rows[1][3].value) >= 5 * (.rows[0][3].value) and (.rows[1][4].value >= 5)' \
    BENCH_engine.json >/dev/null
jq -e '(.header | index("ns/event")) as $c
       | [.rows[] | select(.[0].raw | startswith("yield_now, "))] as $y
       | ($y | length == 3)
         and ($y | all(.[$c].value <= 1000))
         and ([$y[] | select(.[0].raw == "yield_now, 256 processes") | .[$c].value][0]
              <= 2 * [$y[] | select(.[0].raw == "yield_now, 1 process") | .[$c].value][0])' \
    BENCH_engine.json >/dev/null
test -f BENCH_engine_probe.json
jq -e '[.rows[][3].raw] | length == 3 and (unique | length == 1)' \
    BENCH_engine_probe.json >/dev/null

# High-density stage: the flat resident-structure property suite (BTreeMap
# reference models), the probe-round allocation pin, the 10k-sandbox
# reclaim stress regression, and a fig_density run sweeping 100 -> 10k
# resident sandboxes. Gates: per-sandbox PSS at 10k stays <= 0.25x the
# copy-per-instance baseline, offloaded I/O p99 stays within 1.2x of its
# 100-sandbox point at every density, and no offload request is lost.
cargo test -q -p molecule-core --test density_props
cargo test -q -p molecule-core --test health_alloc
cargo test -q -p xpu-shim --test reclaim_stress
cargo run --release -q -p molecule-bench --bin fig_density
test -f BENCH_density.json
jq -e '[.rows[] | select(.[0].value == 10000)] | length > 0 and all(.[3].value <= 0.25)' \
    BENCH_density.json >/dev/null
jq -e '[.rows[]] | length > 0 and all(.[6].value <= 1.2)' BENCH_density.json >/dev/null
jq -e '[.rows[]] | length > 0 and all(.[7].value == 0)' BENCH_density.json >/dev/null

# Schedule-exploration stage: simcheck drives every scenario through its
# budgeted interleaving sweep (each suite asserts >=200 distinct schedules)
# with invariant oracles on every step. A violation fails the stage and the
# harness prints a SIMCHECK_REPLAY=<blob> line for deterministic local
# reproduction (see TESTING.md).
cargo test -q -p molecule-simcheck

# Flake detector: the tier-1 suite plus the density suites twice under
# different host-thread counts. Virtual time must be immune to host
# parallelism — any diff between the two outcome lists is a real
# nondeterminism bug, not a flake to retry.
flake_outcomes() {
    # Wall-clock times differ run to run; the pass/fail ledger must not.
    {
        RUST_TEST_THREADS="$1" cargo test -q 2>&1 || true
        RUST_TEST_THREADS="$1" cargo test -q -p molecule-core --test density_props 2>&1 || true
        RUST_TEST_THREADS="$1" cargo test -q -p molecule-core --test health_alloc 2>&1 || true
        RUST_TEST_THREADS="$1" cargo test -q -p xpu-shim --test reclaim_stress 2>&1 || true
        RUST_TEST_THREADS="$1" cargo test -q -p molecule-simcheck --test proxy_offload 2>&1 || true
    } \
        | grep -E '^(test result:|failures:)' \
        | sed 's/; finished in .*//' | sort
}
flake_outcomes 1 > /tmp/ci-flake-t1.txt
flake_outcomes 8 > /tmp/ci-flake-t8.txt
diff -u /tmp/ci-flake-t1.txt /tmp/ci-flake-t8.txt
