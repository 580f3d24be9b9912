//! **E21 — elastic fleet under churn** (`fm-serve --fleet
//! --fleet-ledger … --cliff-fraction …` + wire `ShardJoin`/`ShardLeave`).
//!
//! The adaptive fleet's three robustness legs, raced against a static
//! fleet on the same scripted misfortune: shard B's throughput
//! collapses mid-stream on every connection (a deterministic
//! `ThroughputCliff` fault proxy — healthy connection, crawling
//! watermark). The **static** arm keeps its founding roster and has
//! cliff detection disabled: every tune re-pays B's collapse. The
//! **adaptive** arm (same shards, same faults) lets the cliff detector
//! re-dispatch B's unfinished suffix, then *retires* B over the wire
//! (`ShardLeave`), *admits* a healthy replacement (`ShardJoin`), and —
//! mid-suite — the coordinator is killed and restarted against its
//! weight ledger, so the second life starts with persisted EWMA
//! weights instead of a cold uniform split.
//!
//! The invariant is unchanged and checked per tune in both arms:
//! bit-identical winner to a single-machine `Tuner::tune`, and zero
//! discarded sealed parts. The wall-clock gap is the headline; the
//! parity bit is the contract.

use std::time::Duration;

use fm_core::machine::MachineConfig;
use fm_serve::client::Client;
use fm_serve::fault::{FaultAction, FaultPlan, FaultProxy};
use fm_serve::fleet::FleetConfig;
use fm_serve::metrics::FleetStatsReply;
use fm_serve::server::{ServerConfig, ServerHandle};
use serde::{Deserialize, Serialize};

use crate::serving::{coordinator, direct_winner, quantile_ms, start, timed_tune, wide};
use crate::table;

/// One arm's view of the churn schedule.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    /// Arm (`static` / `adaptive`).
    pub scenario: String,
    /// Tunes issued sequentially (all completed).
    pub tunes: u64,
    /// Sum of per-tune latencies, milliseconds (excludes the scripted
    /// coordinator restart itself — the race is about serving time).
    pub total_wall_ms: f64,
    /// Median per-tune latency, milliseconds.
    pub p50_ms: f64,
    /// Maximum per-tune latency, milliseconds.
    pub max_ms: f64,
    /// Suffix re-dispatches fired by the throughput-cliff detector.
    pub cliff_redispatches: u64,
    /// Suffix re-dispatches fired by mid-range shard departure.
    pub departed_redispatches: u64,
    /// Effective wire admissions across both coordinator lives.
    pub joins: u64,
    /// Effective wire retirements across both coordinator lives.
    pub leaves: u64,
    /// Final membership epoch of the churned (first) life.
    pub membership_epoch: u64,
    /// Sealed parts discarded — the acceptance criterion demands zero.
    pub parts_discarded: u64,
    /// Every member's weight source right after the mid-suite restart
    /// (`persisted` proves the ledger worked; `n/a` for the static arm,
    /// which never restarts).
    pub weight_source_after_restart: String,
    /// This arm's speedup over the static arm (static = 1.0).
    pub speedup_vs_static: f64,
    /// Did every tune return the bit-identical single-machine winner?
    pub winner_bit_identical: bool,
}

fn base_fleet(addrs: Vec<String>) -> FleetConfig {
    let mut f = crate::serving::fleet(addrs, Duration::from_secs(10));
    // No hedging in either arm: the race isolates the elastic
    // machinery (cliff detector, membership, ledger) from the
    // pre-existing straggler hedge.
    f.hedge_after = None;
    f.stream_every = Some(4);
    f
}

/// Race the static and adaptive arms over the scripted churn. `quick`
/// shrinks the tune count and the collapse factor, not the shape.
pub fn run(quick: bool) -> Vec<Row> {
    let tunes = if quick { 4 } else { 6 };
    // Per-part stall = stream_every × this; it must comfortably exceed
    // `cliff_stall` (60 ms) or the detector's stall window never fills
    // between part arrivals.
    let ms_per_candidate = if quick { 40 } else { 50 };
    let restart_after = 2; // adaptive arm: restart before this tune index
    let ncand = 48;
    let graph = wide("e21-wide", 20);
    let machine = MachineConfig::linear(8);
    let expected = direct_winner(&graph, &machine, ncand);
    let cliff_plan = || {
        FaultPlan::script(vec![
            FaultAction::ThroughputCliff {
                after_frame: 1,
                ms_per_candidate,
            };
            32
        ])
    };

    let mut rows = Vec::new();
    for adaptive in [false, true] {
        // Fresh topology per arm: healthy shard A, shard B collapsing
        // behind its proxy on every connection, and (for the adaptive
        // arm) a healthy replacement C waiting outside the roster.
        let shards: Vec<ServerHandle> = (0..3).map(|_| start(ServerConfig::default())).collect();
        let proxy = FaultProxy::start(shards[1].local_addr(), cliff_plan()).expect("proxy");
        let healthy = shards[0].local_addr().to_string();
        let collapsed = proxy.local_addr().to_string();
        let replacement = shards[2].local_addr().to_string();
        let ledger = std::env::temp_dir().join(format!(
            "fm-e21-ledger-{}-{}.json",
            std::process::id(),
            adaptive
        ));
        let _ = std::fs::remove_file(&ledger);

        let mut fleet = base_fleet(vec![healthy.clone(), collapsed.clone()]);
        if adaptive {
            fleet.cliff_fraction = 0.5;
            fleet.cliff_stall = Duration::from_millis(60);
            fleet.weight_ledger = Some(ledger.clone());
        } else {
            fleet.cliff_fraction = 0.0;
        }
        let mut coord = coordinator(fleet);
        let mut client = Client::connect(coord.local_addr()).expect("connect");

        let mut lat = Vec::with_capacity(tunes);
        let mut identical = true;
        let mut churned_epoch = 0;
        let mut joins = 0;
        let mut leaves = 0;
        let mut weight_source_after_restart = "n/a".to_string();
        let mut first_life: Option<FleetStatsReply> = None;
        for round in 0..tunes {
            if adaptive && round == 1 {
                // The scripted churn: retire the collapsed shard over
                // the wire, admit the healthy replacement.
                assert!(client.shard_leave(&collapsed).expect("leave").changed);
                assert!(client.shard_join(&replacement).expect("join").changed);
            }
            if adaptive && round == restart_after {
                // Kill the coordinator mid-suite and restart it against
                // the ledger, with the post-churn roster. The second
                // life must come up *weighted*, not cold.
                let stats = coord.shutdown_and_join();
                let fleet_stats = stats.fleet.expect("fleet stats");
                churned_epoch = fleet_stats.membership_epoch;
                joins += fleet_stats.joins;
                leaves += fleet_stats.leaves;
                first_life = Some(fleet_stats);
                let mut fleet = base_fleet(vec![healthy.clone(), replacement.clone()]);
                fleet.cliff_fraction = 0.5;
                fleet.cliff_stall = Duration::from_millis(60);
                fleet.weight_ledger = Some(ledger.clone());
                coord = coordinator(fleet);
                client = Client::connect(coord.local_addr()).expect("reconnect");
                let reborn = coord.stats().fleet.expect("fleet stats");
                let mut sources: Vec<&str> = reborn
                    .shards
                    .iter()
                    .map(|s| s.weight_source.as_str())
                    .collect();
                sources.dedup();
                weight_source_after_restart = sources.join("+");
            }
            let (ms, parity) = timed_tune(&mut client, &graph, &machine, ncand, &expected);
            lat.push(ms);
            identical &= parity;
        }

        let stats = coord.shutdown_and_join();
        let last_life = stats.fleet.expect("fleet stats");
        joins += last_life.joins;
        leaves += last_life.leaves;
        if churned_epoch == 0 {
            churned_epoch = last_life.membership_epoch;
        }
        let total: f64 = lat.iter().sum();
        let mut sorted = lat.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let sum_u64 =
            |f: fn(&FleetStatsReply) -> u64| f(&last_life) + first_life.as_ref().map_or(0, f);
        rows.push(Row {
            scenario: if adaptive { "adaptive" } else { "static" }.to_string(),
            tunes: tunes as u64,
            total_wall_ms: total,
            p50_ms: quantile_ms(&sorted, 0.50),
            max_ms: sorted.last().copied().unwrap_or(0.0),
            cliff_redispatches: sum_u64(|f| f.cliff_redispatches),
            departed_redispatches: sum_u64(|f| f.departed_redispatches),
            joins,
            leaves,
            membership_epoch: churned_epoch,
            parts_discarded: sum_u64(|f| f.parts_discarded),
            weight_source_after_restart,
            speedup_vs_static: 1.0,
            winner_bit_identical: identical,
        });

        let _ = std::fs::remove_file(&ledger);
        proxy.stop();
        for s in shards {
            s.shutdown_and_join();
        }
    }

    let static_wall = rows[0].total_wall_ms;
    for r in &mut rows {
        r.speedup_vs_static = static_wall / r.total_wall_ms.max(1e-9);
    }
    rows
}

/// Render.
pub fn print(rows: &[Row]) -> String {
    let mut out = String::from(
        "E21 — elastic fleet under churn (throughput cliff + join/leave + ledger restart)\n\n",
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
                r.cliff_redispatches.to_string(),
                r.departed_redispatches.to_string(),
                format!("{}/{}", r.joins, r.leaves),
                r.parts_discarded.to_string(),
                r.weight_source_after_restart.clone(),
                format!("{:.2}x", r.speedup_vs_static),
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
            "cliff",
            "departed",
            "join/leave",
            "discard",
            "restart weights",
            "speedup",
            "bit-identical",
        ],
        &table_rows,
    ));
    out.push_str(
        "\nthe static roster re-pays shard B's throughput collapse on every tune; the\n\
         adaptive fleet re-dispatches the stalled suffix, retires B over the wire,\n\
         admits a healthy replacement, and restarts mid-suite from its weight ledger.\n\
         the winner is bit-identical to a single-machine tune in every row.\n",
    );
    out
}

/// E21's acceptance gate, one line per violated condition: every
/// row's winner is bit-identical and no sealed part was discarded; in
/// the adaptive row the cliff detector fired, membership churned, the
/// restarted coordinator came back with persisted weights, and the arm
/// beat the static roster by 1.3× (1.1× for a `quick` run; short runs
/// are noisier).
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
                "{}: {} sealed parts discarded (must be 0)",
                r.scenario, r.parts_discarded
            ));
        }
    }
    let Some(adaptive) = rows.iter().find(|r| r.scenario == "adaptive") else {
        failures.push("missing adaptive row".to_string());
        return failures;
    };
    if adaptive.cliff_redispatches == 0 {
        failures.push("adaptive: cliff detector never fired".to_string());
    }
    if adaptive.joins == 0 || adaptive.leaves == 0 {
        failures.push("adaptive: membership never churned".to_string());
    }
    if adaptive.weight_source_after_restart != "persisted" {
        failures.push(format!(
            "adaptive: restarted coordinator weights were {:?}, not persisted",
            adaptive.weight_source_after_restart
        ));
    }
    let bar = if quick { 1.1 } else { 1.3 };
    if adaptive.speedup_vs_static < bar {
        failures.push(format!(
            "adaptive: speedup {:.2}x under the {bar}x bar",
            adaptive.speedup_vs_static
        ));
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_adapts_and_keeps_winner_parity() {
        let rows = run(true);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.winner_bit_identical, "{}: winner diverged", r.scenario);
            assert_eq!(r.parts_discarded, 0, "{}: discarded parts", r.scenario);
            assert!(r.p50_ms <= r.max_ms, "{}", r.scenario);
        }
        let stat = &rows[0];
        let adaptive = &rows[1];
        assert_eq!(stat.cliff_redispatches, 0, "static arm has no detector");
        assert_eq!(stat.joins + stat.leaves, 0, "static roster never churns");
        assert!(adaptive.cliff_redispatches >= 1, "cliff never fired");
        assert_eq!(adaptive.joins, 1);
        assert_eq!(adaptive.leaves, 1);
        assert_eq!(adaptive.membership_epoch, 3, "leave + join bump twice");
        assert_eq!(
            adaptive.weight_source_after_restart, "persisted",
            "the reborn coordinator should start from the ledger"
        );
    }

    fn passing() -> Vec<Row> {
        let row = |scenario: &str, churn: u64, weights: &str, speedup_vs_static| Row {
            scenario: scenario.into(),
            tunes: 6,
            total_wall_ms: 900.0,
            p50_ms: 90.0,
            max_ms: 300.0,
            cliff_redispatches: churn,
            departed_redispatches: 0,
            joins: churn,
            leaves: churn,
            membership_epoch: 1 + 2 * churn,
            parts_discarded: 0,
            weight_source_after_restart: weights.into(),
            speedup_vs_static,
            winner_bit_identical: true,
        };
        vec![
            row("static", 0, "n/a", 1.0),
            row("adaptive", 1, "persisted", 2.4),
        ]
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
            .contains("static: winner diverged"));
        assert!(failures(false, |r| r[1].parts_discarded = 1)
            .contains("adaptive: 1 sealed parts discarded"));
        assert!(
            failures(false, |r| r[1].cliff_redispatches = 0).contains("cliff detector never fired")
        );
        assert!(failures(false, |r| r[1].leaves = 0).contains("membership never churned"));
        assert!(
            failures(false, |r| r[1].weight_source_after_restart = "cold".into())
                .contains("weights were \"cold\", not persisted")
        );
        assert!(failures(false, |r| r.truncate(1)).contains("missing adaptive row"));
    }

    #[test]
    fn gate_holds_the_speedup_bar_and_relaxes_it_for_quick_runs() {
        let slow = |r: &mut Vec<Row>| r[1].speedup_vs_static = 1.2;
        assert!(failures(false, slow).contains("speedup 1.20x under the 1.3x bar"));
        assert_eq!(failures(true, slow), "");
        let slower = |r: &mut Vec<Row>| r[1].speedup_vs_static = 1.05;
        assert!(failures(true, slower).contains("speedup 1.05x under the 1.1x bar"));
    }
}
