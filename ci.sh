#!/usr/bin/env bash
# Local CI: formatting, lints, full test suite, and a smoke run of the
# two tuner-driven table generators. Mirrors what a hosted pipeline
# would run; keep it green before every commit.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (deny warnings) =="
# Broken and private intra-doc links render as dead text; keep the
# generated docs clean.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== cargo test =="
cargo test --workspace -q

echo "== incremental-engine parity under debug assertions =="
# Debug builds re-derive the full schedule/report after every
# apply_move/undo and assert bit-exact equality; this run makes sure
# that paranoid path executes in CI even if the suite above ever moves
# to --release.
cargo test -q -p fm-core -- delta:: anneal
cargo test -q --test proptests incremental

echo "== flat-engine parity under debug assertions =="
# Debug builds assert every flat evaluation (interned PEs, SoA folds,
# scratch arenas) bit-identical to the reference path; the proptest
# drives random graphs/mappings/moves through flat, delta, and
# reference simultaneously, and the alloc test proves the steady state
# never touches the heap.
cargo test -q -p fm-core -- flat::
cargo test -q --test proptests flat_delta_and_reference
cargo test -q --test alloc_regression

echo "== flat- and incremental-engine parity in release =="
# The same parity checks where the optimiser runs: these tests compare
# the flat, anneal and session engines against the reference path
# explicitly (off-grid and negative-time verdicts included), so they
# hold bit parity in release builds too, not only under
# debug_assertions.
cargo test --release -q -p fm-core -- flat:: delta::
cargo test --release -q --test proptests -- flat_delta_and_reference incremental flat_verdicts
# The session engine's edits where the optimiser runs: each per-PE
# index against fresh sweeps after every edit (delta::, above), every
# undo restoring graph and machine exactly, and a refused batch leaving
# a session as it found it.
cargo test --release -q -p fm-core -- mutate::
cargo test --release -q -p fm-serve --lib -- session::
# The annealer where the optimiser runs: its backends agree bit for bit
# under every objective (deferred and eager tile sweeps alike), and the
# tuner's refinement stays seed-deterministic and reports its outcome.
cargo test --release -q -p fm-core -- search::
cargo test --release -q -p fm-autotune -- refine
# The session engine where the optimiser runs: the byte audits (warm
# state per node per candidate, bytes allocated per revision), the
# session proptests against cold tunes, and the warm tuner's parity
# tests.
cargo test --release -q --test alloc_regression
cargo test --release -q -p fm-serve --test session_proptests
cargo test --release -q -p fm-autotune -- warm

echo "== table smoke runs (--quick) =="
cargo run --release -q -p fm-bench --bin table_e4_fft_search -- --quick >/dev/null
cargo run --release -q -p fm-bench --bin table_e8_default_mapper -- --quick >/dev/null
cargo run --release -q -p fm-bench --bin table_e14_anneal -- --quick --no-json >/dev/null
cargo run --release -q -p fm-bench --bin table_e15_serve -- --quick --no-json >/dev/null

echo "== fleet-faults: sharded-search chaos suite + E16 smoke =="
# The chaos suite runs real shard servers behind deterministic
# fault-injection proxies and checks the fleet winner stays
# bit-identical to a single-machine tune; release mode keeps the
# in-test tuning work fast.
cargo test --release -q -p fm-serve --test fleet_faults
cargo run --release -q -p fm-bench --bin table_e16_fleet -- --quick --no-json >/dev/null

echo "== E17 smoke: streaming + weighted beats blocking on a scripted straggler =="
# 2-shard topology, shard 0 scripted slow: the binary itself asserts
# winner parity, parts_merged > 0, zero discarded parts, and the
# speedup bar, exiting non-zero on any violation.
cargo run --release -q -p fm-bench --bin table_e17_stream -- --quick --no-json >/dev/null

echo "== session-smoke: open → edits → warm tune, parity vs cold =="
# End-to-end session lifecycle over real TCP (open → 3 edit batches →
# warm SessionTune after each, winner checked bit-for-bit against a
# cold client-side tune), plus typed NoSuchSession, idle eviction, and
# concurrent disjoint sessions. Then the E18 quick run: the binary
# asserts per-row parity and the warm-vs-cold speedup bar, and must
# emit its BENCH_e18.json rows (written to a scratch dir so a smoke
# run never clobbers full-run numbers).
cargo test --release -q -p fm-serve --test session_integration
e18_dir="$(mktemp -d)"
cargo run --release -q -p fm-bench --bin table_e18_session -- --quick --json "$e18_dir/BENCH_e18.json" >/dev/null
[ -s "$e18_dir/BENCH_e18.json" ] || { echo "session-smoke: E18 emitted no JSON"; exit 1; }
rm -rf "$e18_dir"

echo "== wire-smoke: protocol negotiation + E19 quick run =="
# Negotiation matrix over real TCP: new client falls back to JSON
# against an old server, old (JSON-only) client is served by a new
# server, pipelined replies complete out of order, and dedup-batched
# admission collapses duplicate tunes — winners checked bit-for-bit
# throughout. Then the E19 quick run: blocking JSON vs. pipelined
# binary sweep plus the four-arm dedup trace, with winner parity and
# the dedup collapse asserted by the binary itself.
cargo test --release -q -p fm-serve --test protocol_negotiation
# The serving basics over real TCP: deadlines (one cancellation rule
# on every connection), saturation, drain, and both framings.
cargo test --release -q -p fm-serve --test serve_integration
# The codec's own properties in release, where the optimiser could
# expose what debug builds hide: round trips and adversarial frames
# (wire_proptests), and the direct writers/readers byte- and
# acceptance-identical to the tree path on every variant, truncation
# and byte flip (wire_differential).
cargo test --release -q -p fm-serve --test wire_proptests --test wire_differential
e19_dir="$(mktemp -d)"
cargo run --release -q -p fm-bench --bin table_e19_wire -- --quick --json "$e19_dir/BENCH_e19.json" >/dev/null
[ -s "$e19_dir/BENCH_e19.json" ] || { echo "wire-smoke: E19 emitted no JSON"; exit 1; }
rm -rf "$e19_dir"

echo "== costmodel-smoke: backend parity proptests + E20 quick run =="
# Parity first: cold tune, warm tune, and delta repair must agree under
# every cost backend, and the default (analytic) backend must stay
# bit-identical to the historical FigureOfMerit scoring — plus the
# hand-computed roofline fixtures for one FFT and one stencil mapping.
# Then the E20 quick run: the binary runs the sweep twice and exits
# non-zero if winner determinism breaks, if an analytic row flips, or
# if no backend changes any winner.
cargo test --release -q --test costmodel_backends
e20_dir="$(mktemp -d)"
cargo run --release -q -p fm-bench --bin table_e20_costmodels -- --quick --json "$e20_dir/BENCH_e20.json" >/dev/null
[ -s "$e20_dir/BENCH_e20.json" ] || { echo "costmodel-smoke: E20 emitted no JSON"; exit 1; }
rm -rf "$e20_dir"

echo "== churn-smoke: elastic membership chaos + E21 quick run =="
# Membership chaos first: wire join/leave reshaping a live roster, the
# throughput-cliff suffix re-dispatch, departure mid-tune, the seeded
# churn proptest, and — explicitly — a coordinator restarted against a
# deliberately corrupted weight ledger falling back to cold weights.
# Then the E21 quick run: the binary asserts winner parity in both
# arms, a fired cliff detector, persisted weights after the mid-suite
# restart, zero discarded sealed parts, and the adaptive-vs-static
# wall-clock bar, exiting non-zero on any violation.
cargo test --release -q -p fm-serve --test fleet_faults -- \
    membership_join_and_leave corrupt_ledger_falls_back \
    persisted_weights_survive throughput_cliff departed_shard seeded_churn
cargo run --release -q -p fm-bench --bin table_e21_churn -- --quick --no-json >/dev/null

echo "== evalperf-smoke: flat-engine parity + E22 quick run =="
# The E22 binary gates on bit parity before timing anything: every
# candidate's score bits and the winner index must match between the
# flat engine and the reference path, and its counting global
# allocator asserts zero steady-state allocations. The quick run
# exercises all of that end to end and must emit its BENCH_e22.json
# rows (scratch dir so a smoke run never clobbers full-run numbers).
e22_dir="$(mktemp -d)"
cargo run --release -q -p fm-bench --bin table_e22_evalperf -- --quick --json "$e22_dir/BENCH_e22.json" >/dev/null
[ -s "$e22_dir/BENCH_e22.json" ] || { echo "evalperf-smoke: E22 emitted no JSON"; exit 1; }
rm -rf "$e22_dir"

echo "== e2e benchmark package: build + unit tests =="
# The benchmark is its own Cargo workspace on top of fm-serve's public
# API; building and testing it here makes an API change that breaks it
# fail locally instead of at benchmark time.
cargo test --release --offline -q --manifest-path benchmark/Cargo.toml

echo "== e2e benchmark smoke: every workload answers correctly =="
# One short run of each workload end to end: its servers up, every
# reply checked against its reference answer and Stats reconciled with
# the client's counts. A served tune path that breaks reply parity
# fails here, not first at benchmark time.
for workload in tune session rpc fleet; do
    last="$(cargo run --release --offline -q --manifest-path benchmark/Cargo.toml -- \
        --workload "$workload" --seconds 1 --trace 0 | tail -n 1)"
    case "$last" in
        '{"correct": true, '*'"failed": 0, '*) ;;
        *) echo "bench-smoke: $workload: $last"; exit 1 ;;
    esac
done

echo "== serve-smoke: daemon + example over the wire =="
# Launch the real daemon on an ephemeral port, run the example against
# it (FM_SERVE_SHUTDOWN=1 makes the example request the drain), and
# check both sides exit cleanly.
cargo build --release -q -p fm-serve --bin fm-serve
serve_log="$(mktemp)"
./target/release/fm-serve --addr 127.0.0.1:0 >"$serve_log" &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true; rm -f "$serve_log"' EXIT
serve_addr=""
for _ in $(seq 1 50); do
    serve_addr="$(sed -n 's/^fm-serve listening on //p' "$serve_log")"
    [ -n "$serve_addr" ] && break
    sleep 0.1
done
[ -n "$serve_addr" ] || { echo "serve-smoke: daemon never reported its address"; exit 1; }
FM_SERVE_ADDR="$serve_addr" FM_SERVE_SHUTDOWN=1 \
    cargo run --release -q --example mapping_service >/dev/null
wait "$serve_pid" || { echo "serve-smoke: daemon exited non-zero"; exit 1; }
trap - EXIT
rm -f "$serve_log"

echo "ci: all green"
