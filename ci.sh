#!/usr/bin/env bash
# Local CI: formatting, lints, full test suite, release parity and
# serving suites, a quick run of every experiment table with its gate,
# and a short run of each end-to-end benchmark workload. Mirrors what a
# hosted pipeline would run; keep it green before every commit.
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
# Column-wise affine resolution against the per-node path (random
# expressions on random 1-3-D domains, and every per-node fallback),
# and the annealer's backends on a PE-dense wavefront, where the
# same-PE ripple and occupancy skips fire.
cargo test --release -q -p fm-core -- mapping::tests::columnwise \
    search::tests::anneal_backends_agree_on_a_pe_dense_wavefront
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

echo "== fleet-faults: sharded-search chaos suite =="
# The chaos suite runs real shard servers behind deterministic
# fault-injection proxies and checks the fleet winner stays
# bit-identical to a single-machine tune; release mode keeps the
# in-test tuning work fast.
cargo test --release -q -p fm-serve --test fleet_faults

echo "== session-smoke: open → edits → warm tune, parity vs cold =="
# End-to-end session lifecycle over real TCP (open → 3 edit batches →
# warm SessionTune after each, winner checked bit-for-bit against a
# cold client-side tune), plus typed NoSuchSession, idle eviction, and
# concurrent disjoint sessions.
cargo test --release -q -p fm-serve --test session_integration

echo "== wire-smoke: protocol negotiation and codec properties =="
# Negotiation matrix over real TCP: new client falls back to JSON
# against an old server, old (JSON-only) client is served by a new
# server, pipelined replies complete out of order, and dedup-batched
# admission collapses duplicate tunes — winners checked bit-for-bit
# throughout.
cargo test --release -q -p fm-serve --test protocol_negotiation
# The serving basics over real TCP: deadlines (one cancellation rule
# on every connection), saturation, drain, and both framings.
cargo test --release -q -p fm-serve --test serve_integration
# The codec's own properties in release, where the optimiser could
# expose what debug builds hide: round trips and adversarial frames
# (wire_proptests), and the direct writers/readers byte- and
# acceptance-identical to the tree path on every variant, truncation
# and byte flip, on random scalars and on random key and variant names
# (wire_differential).
cargo test --release -q -p fm-serve --test wire_proptests --test wire_differential
# The vendored codec's own direct-versus-tree tests, in release, where
# the optimiser transforms the typed reads and the one-byte varint path.
cargo test --release -q -p serde -p serde_json

echo "== costmodel-smoke: backend parity proptests =="
# Cold tune, warm tune, and delta repair must agree under every cost
# backend, and the default (analytic) backend must stay bit-identical
# to the historical FigureOfMerit scoring — plus the hand-computed
# roofline fixtures for one FFT and one stencil mapping.
cargo test --release -q --test costmodel_backends

echo "== churn-smoke: elastic membership chaos =="
# Membership chaos first: wire join/leave reshaping a live roster, the
# throughput-cliff suffix re-dispatch, departure mid-tune, the seeded
# churn proptest, and — explicitly — a coordinator restarted against a
# deliberately corrupted weight ledger falling back to cold weights.
cargo test --release -q -p fm-serve --test fleet_faults -- \
    membership_join_and_leave corrupt_ledger_falls_back \
    persisted_weights_survive throughput_cliff departed_shard seeded_churn

echo "== experiment tables: every table and its gate (--quick) =="
# Every experiment at its smoke size, in release, where the wall-clock
# bars mean something. `table` exits non-zero when a gate fails: E6's
# greedy bound, parity and the speedup bars of E17–E19 and E21, E18's
# growth check, E20's determinism and winner flips, and E22's
# zero-allocation steady state (see each module's `gate`). The run
# happens in a scratch dir, so every row type goes through the JSON
# writer without a smoke run clobbering the committed full-run rows.
cargo build --release -q -p fm-bench --bin table
json_dir="$(mktemp -d)"
table_bin="$PWD/target/release/table"
(cd "$json_dir" && "$table_bin" all --quick >/dev/null)
for n in $(seq 14 22); do
    [ -s "$json_dir/BENCH_e$n.json" ] || { echo "tables: E$n wrote no JSON"; exit 1; }
done
rm -rf "$json_dir"

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

echo "== serve-smoke: daemon + example over the wire, then a fleet =="
# Launch the real daemon on an ephemeral port, run the example against
# it (FM_SERVE_SHUTDOWN=1 makes the example request the drain), and
# check both sides exit cleanly. Then the same through a coordinator
# started with `--fleet` over two shards: the example's uncached tune
# (8 FFT candidates) is fleet-eligible, so the coordinator's exit
# summary must count both members and the one fleet tune, as the solo
# daemon's must count the example's tune and evaluate.
cargo build --release -q -p fm-serve --bin fm-serve
smoke_dir="$(mktemp -d)"
smoke_pids=()
trap 'kill "${smoke_pids[@]}" 2>/dev/null || true; rm -rf "$smoke_dir"' EXIT
# serve NAME [FLAGS...]: start a daemon logging to $smoke_dir/NAME.log
# and set $serve_pid and $serve_addr.
serve() {
    local log="$smoke_dir/$1.log"
    shift
    ./target/release/fm-serve --addr 127.0.0.1:0 "$@" >"$log" &
    serve_pid=$!
    smoke_pids+=("$serve_pid")
    for _ in $(seq 1 50); do
        serve_addr="$(sed -n 's/^fm-serve listening on \([^ ]*\).*/\1/p' "$log")"
        [ -n "$serve_addr" ] && return 0
        sleep 0.1
    done
    echo "serve-smoke: $log never reported its address"
    exit 1
}
serve solo
FM_SERVE_ADDR="$serve_addr" FM_SERVE_SHUTDOWN=1 \
    cargo run --release -q --example mapping_service >/dev/null
wait "$serve_pid" || { echo "serve-smoke: daemon exited non-zero"; exit 1; }
# The example sends one tune and one evaluate; the exit summary renders
# them from the daemon's Stats counters.
grep -q ' 2 requests (1 tune / 0 shard / 1 evaluate / 0 simulate)' "$smoke_dir/solo.log" || {
    echo "serve-smoke: the daemon did not count 1 tune and 1 evaluate:"
    cat "$smoke_dir/solo.log"
    exit 1
}
serve shard-a
shard_a="$serve_addr"
serve shard-b
serve coordinator --fleet "$shard_a,$serve_addr"
FM_SERVE_ADDR="$serve_addr" FM_SERVE_UNCACHED=1 FM_SERVE_SHUTDOWN=1 \
    cargo run --release -q --example mapping_service >/dev/null
wait "$serve_pid" || { echo "fleet-smoke: coordinator exited non-zero"; exit 1; }
grep -q ', 2 members (.*), 1 tunes,' "$smoke_dir/coordinator.log" || {
    echo "fleet-smoke: the coordinator did not count 2 members and 1 tune:"
    cat "$smoke_dir/coordinator.log"
    exit 1
}
kill "${smoke_pids[@]}" 2>/dev/null || true
wait 2>/dev/null || true
trap - EXIT
rm -rf "$smoke_dir"

echo "ci: all green"
