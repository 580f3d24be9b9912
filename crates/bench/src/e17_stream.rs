//! **E17 — streaming shard replies + latency-weighted partitioning**
//! (`fm-serve --fleet --stream-every K --weighted on`).
//!
//! The fleet's tail-latency fix, measured: a 2-shard topology where
//! shard 0 is a *scripted straggler* (the server's deterministic
//! `straggle_ms_per_candidate` hook slows its per-candidate compute;
//! the slowdown applies identically on the blocking and streaming
//! paths, so the protocols race on even terms). The same sequence of
//! tunes runs through the classic blocking fleet path
//! (`stream_every = None`, equal split) and through streaming +
//! weighted partitioning. Blocking pays the straggler's full range on
//! *every* tune; streaming banks the straggler's finished prefix as
//! sealed `TuneShardPart` frames, hedges only the unfinished suffix,
//! and — because part arrival times feed the per-shard EWMA throughput
//! tracker that persists across requests — every tune after the first
//! hands the straggler a proportionally tiny range to begin with.
//!
//! The invariant is unchanged and checked per tune: bit-identical
//! winner to a single-machine `Tuner::tune`, and zero streamed-prefix
//! candidates discarded. The speedup is the headline; the parity bit
//! is the contract.

use std::time::Duration;

use fm_core::machine::MachineConfig;
use fm_serve::metrics::FleetStatsReply;
use fm_serve::server::{ServerConfig, ServerHandle};
use serde::{Deserialize, Serialize};

use crate::serving::{coordinator, direct_winner, drive, quantile_ms, start, wide};
use crate::table;

/// One protocol's view of the straggler topology.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    /// Protocol (`blocking` / `streaming+weighted`).
    pub scenario: String,
    /// Tunes issued sequentially (all completed).
    pub tunes: u64,
    /// Wall-clock for the whole tune sequence, milliseconds.
    pub total_wall_ms: f64,
    /// Median per-tune latency, milliseconds.
    pub p50_ms: f64,
    /// Maximum per-tune latency, milliseconds.
    pub max_ms: f64,
    /// Verified streamed parts merged into range ledgers.
    pub parts_merged: u64,
    /// Streamed parts discarded by validation — the acceptance
    /// criterion demands exactly zero.
    pub parts_discarded: u64,
    /// Retries/hedges that dispatched only an unfinished suffix.
    pub suffix_redispatches: u64,
    /// Candidates banked from attempts that later died mid-stream.
    pub prefix_candidates_saved: u64,
    /// Hedged duplicate attempts launched.
    pub hedges: u64,
    /// This row's speedup over the blocking row (blocking = 1.0).
    pub speedup_vs_blocking: f64,
    /// Did every tune return the bit-identical single-machine winner?
    pub winner_bit_identical: bool,
}

fn row(scenario: &str, lat: &[f64], wall_ms: f64, fleet: &FleetStatsReply, ok: bool) -> Row {
    Row {
        scenario: scenario.to_string(),
        tunes: lat.len() as u64,
        total_wall_ms: wall_ms,
        p50_ms: quantile_ms(lat, 0.50),
        max_ms: lat.last().copied().unwrap_or(0.0),
        parts_merged: fleet.parts_merged,
        parts_discarded: fleet.parts_discarded,
        suffix_redispatches: fleet.suffix_redispatches,
        prefix_candidates_saved: fleet.prefix_candidates_saved,
        hedges: fleet.hedges,
        speedup_vs_blocking: 1.0,
        winner_bit_identical: ok,
    }
}

/// Run both protocols over the scripted-straggler topology. `quick`
/// shrinks the tune count and the straggle factor, not the shape.
pub fn run(quick: bool) -> Vec<Row> {
    let tunes = if quick { 3 } else { 8 };
    let straggle_ms = if quick { 10 } else { 15 };
    let ncand = 48;
    let graph = wide("e17-wide", 20);
    let machine = MachineConfig::linear(8);
    let expected = direct_winner(&graph, &machine, ncand);

    let mut rows = Vec::new();
    for (scenario, streaming) in [("blocking", false), ("streaming+weighted", true)] {
        // Shard 0 is the scripted straggler; shard 1 is healthy. The
        // straggle hook slows *compute*, identically for both protocols.
        let shards: Vec<ServerHandle> = [Some(straggle_ms), None]
            .into_iter()
            .map(|straggle| {
                start(ServerConfig {
                    straggle_ms_per_candidate: straggle,
                    ..ServerConfig::default()
                })
            })
            .collect();
        let addrs = shards.iter().map(|s| s.local_addr().to_string()).collect();
        let mut fleet = crate::serving::fleet(addrs, Duration::from_secs(5));
        fleet.hedge_after = Some(Duration::from_millis(250));
        fleet.stream_every = streaming.then_some(4);
        fleet.weighted = streaming;
        let coord = coordinator(fleet);
        let (lat, wall, ok) = drive(
            coord.local_addr(),
            &graph,
            &machine,
            ncand,
            tunes,
            &expected,
        );
        let stats = coord.shutdown_and_join();
        rows.push(row(
            scenario,
            &lat,
            wall,
            stats.fleet.as_ref().expect("coordinator exports fleet"),
            ok,
        ));
        for s in shards {
            s.shutdown_and_join();
        }
    }

    let blocking_wall = rows[0].total_wall_ms;
    for r in &mut rows {
        r.speedup_vs_blocking = blocking_wall / r.total_wall_ms.max(1e-9);
    }
    rows
}

/// Render.
pub fn print(rows: &[Row]) -> String {
    let mut out = String::from(
        "E17 — streaming shard replies + latency-weighted partitioning (scripted straggler)\n\n",
    );
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scenario.clone(),
                r.tunes.to_string(),
                table::f(r.total_wall_ms),
                table::f(r.p50_ms),
                table::f(r.max_ms),
                r.parts_merged.to_string(),
                r.parts_discarded.to_string(),
                r.suffix_redispatches.to_string(),
                r.hedges.to_string(),
                format!("{:.2}x", r.speedup_vs_blocking),
                if r.winner_bit_identical { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    out.push_str(&table::render(
        &[
            "scenario",
            "tunes",
            "total ms",
            "p50 ms",
            "max ms",
            "parts",
            "discard",
            "suffix",
            "hedge",
            "speedup",
            "bit-identical",
        ],
        &table_rows,
    ));
    out.push_str(
        "\nblocking re-pays the straggler's whole range every tune; streaming banks\n\
         its finished prefix and the EWMA-weighted split stops assigning it one.\n\
         the winner is bit-identical to a single-machine tune in every row.\n",
    );
    out
}

/// E17's acceptance gate, one line per violated condition: every
/// row's winner is bit-identical and no streamed part was discarded;
/// the streaming row merged parts and beats blocking by 1.5× (1.2×
/// for a `quick` run; short runs are noisier).
pub fn gate(rows: &[Row], quick: bool) -> Vec<String> {
    let mut failures = Vec::new();
    for r in rows {
        if !r.winner_bit_identical {
            failures.push(format!(
                "{}: winner diverged from single-machine tune",
                r.scenario
            ));
        }
        if r.parts_discarded != 0 {
            failures.push(format!(
                "{}: {} streamed parts discarded (must be 0)",
                r.scenario, r.parts_discarded
            ));
        }
    }
    let Some(streaming) = rows.iter().find(|r| r.scenario == "streaming+weighted") else {
        failures.push("missing streaming+weighted row".to_string());
        return failures;
    };
    if streaming.parts_merged == 0 {
        failures.push("streaming+weighted: no parts merged".to_string());
    }
    let bar = if quick { 1.2 } else { 1.5 };
    if streaming.speedup_vs_blocking < bar {
        failures.push(format!(
            "streaming+weighted: speedup {:.2}x under the {bar}x bar",
            streaming.speedup_vs_blocking
        ));
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_streams_saves_and_keeps_winner_parity() {
        let rows = run(true);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.winner_bit_identical, "{}: winner diverged", r.scenario);
            assert_eq!(r.parts_discarded, 0, "{}: discarded parts", r.scenario);
            assert!(r.p50_ms <= r.max_ms, "{}", r.scenario);
        }
        let blocking = &rows[0];
        let streaming = &rows[1];
        assert_eq!(blocking.parts_merged, 0, "blocking path must not stream");
        assert!(
            streaming.parts_merged > 0,
            "streaming path produced no parts"
        );
    }

    fn passing() -> Vec<Row> {
        let row = |scenario: &str, parts_merged, speedup_vs_blocking| Row {
            scenario: scenario.into(),
            tunes: 8,
            total_wall_ms: 700.0,
            p50_ms: 65.0,
            max_ms: 280.0,
            parts_merged,
            parts_discarded: 0,
            suffix_redispatches: 1,
            prefix_candidates_saved: 0,
            hedges: 1,
            speedup_vs_blocking,
            winner_bit_identical: true,
        };
        vec![row("blocking", 0, 1.0), row("streaming+weighted", 40, 1.6)]
    }

    /// The gate's failures for `passing()` rows after `break_it`.
    fn failures(quick: bool, break_it: impl FnOnce(&mut Vec<Row>)) -> String {
        let mut rows = passing();
        break_it(&mut rows);
        gate(&rows, quick).join("\n")
    }

    #[test]
    fn gate_passes_good_rows_and_names_each_violation() {
        assert_eq!(failures(false, |_| {}), "");
        assert!(failures(false, |r| r[0].winner_bit_identical = false)
            .contains("blocking: winner diverged"));
        assert!(failures(false, |r| r[1].parts_discarded = 2)
            .contains("streaming+weighted: 2 streamed parts discarded"));
        assert!(failures(false, |r| r[1].parts_merged = 0).contains("no parts merged"));
        assert!(failures(false, |r| r.truncate(1)).contains("missing streaming+weighted row"));
    }

    #[test]
    fn gate_holds_the_speedup_bar_and_relaxes_it_for_quick_runs() {
        let slow = |r: &mut Vec<Row>| r[1].speedup_vs_blocking = 1.3;
        assert!(failures(false, slow).contains("speedup 1.30x under the 1.5x bar"));
        assert_eq!(failures(true, slow), "");
        let slower = |r: &mut Vec<Row>| r[1].speedup_vs_blocking = 1.1;
        assert!(failures(true, slower).contains("speedup 1.10x under the 1.2x bar"));
    }
}
