//! **E16 — fault-tolerant fleet tuning** (`fm-serve --fleet`).
//!
//! The fleet's pitch is determinism under partial failure: a
//! coordinator partitions each tune across backend shards and merges
//! by `(score, index)`, so the winner is bit-identical to one machine
//! sweeping the whole candidate list — even while shards drop, stall,
//! truncate, corrupt, or die outright. This experiment runs the same
//! tune workload through four topologies — local only, a healthy
//! 3-shard fleet, the same fleet behind deterministic fault-injection
//! proxies, and a fleet whose every shard is dead — and reports
//! latency quantiles next to the recovery counters (retries, hedges,
//! reassignments, discarded replies, local fallbacks). Every row
//! asserts the winner matched the single-machine reference, bit for
//! bit.

use std::time::Duration;

use fm_core::machine::MachineConfig;
use fm_serve::fault::{FaultPlan, FaultProxy};
use fm_serve::fleet::FleetConfig;
use fm_serve::metrics::FleetStatsReply;
use fm_serve::server::{ServerConfig, ServerHandle};
use serde::{Deserialize, Serialize};

use crate::serving::{coordinator, direct_winner, drive, quantile_ms, start, wide};
use crate::table;

/// One topology's view of the run: latency quantiles plus the fleet's
/// recovery counters, with the determinism check made explicit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    /// Topology (`local` / `fleet` / `fleet+faults` / `fleet-outage`).
    pub scenario: String,
    /// Tunes issued (all completed).
    pub tunes: u64,
    /// Completed tunes per second.
    pub throughput_rps: f64,
    /// Median tune latency, milliseconds.
    pub p50_ms: f64,
    /// 95th percentile tune latency, milliseconds.
    pub p95_ms: f64,
    /// Maximum tune latency, milliseconds.
    pub max_ms: f64,
    /// Retry waves after failed attempts.
    pub retries: u64,
    /// Hedged duplicate requests launched.
    pub hedges: u64,
    /// Sub-ranges served by a non-first-choice shard.
    pub reassignments: u64,
    /// Replies discarded by validation (corrupt + stale + incomplete).
    pub discarded: u64,
    /// Sub-ranges that fell back to coordinator-local evaluation.
    pub local_fallback_ranges: u64,
    /// Did every tune return the bit-identical single-machine winner?
    pub winner_bit_identical: bool,
}

/// The fleet under test: the bench-time timeouts plus a 60 ms hedge
/// and a breaker that cools down inside one run.
fn fleet_config(shards: Vec<String>) -> FleetConfig {
    let mut f = crate::serving::fleet(shards, Duration::from_secs(3));
    f.hedge_after = Some(Duration::from_millis(60));
    f.breaker_cooldown = Duration::from_millis(400);
    f
}

/// An address that refuses connects (bound once, then released).
fn dead_addr() -> String {
    let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    probe.local_addr().unwrap().to_string()
}

fn row(
    scenario: &str,
    lat: &[f64],
    wall_ms: f64,
    fleet: Option<&FleetStatsReply>,
    ok: bool,
) -> Row {
    Row {
        scenario: scenario.to_string(),
        tunes: lat.len() as u64,
        throughput_rps: lat.len() as f64 * 1e3 / wall_ms.max(1e-6),
        p50_ms: quantile_ms(lat, 0.50),
        p95_ms: quantile_ms(lat, 0.95),
        max_ms: lat.last().copied().unwrap_or(0.0),
        retries: fleet.map_or(0, |f| f.retries),
        hedges: fleet.map_or(0, |f| f.hedges),
        reassignments: fleet.map_or(0, |f| f.reassignments),
        discarded: fleet.map_or(0, |f| {
            f.corrupt_discarded + f.stale_discarded + f.incomplete_discarded
        }),
        local_fallback_ranges: fleet.map_or(0, |f| f.local_fallback_ranges),
        winner_bit_identical: ok,
    }
}

/// Run all four topologies. `quick` shrinks the tune count, not the
/// workload shape or the fault mix.
pub fn run(quick: bool) -> Vec<Row> {
    let tunes = if quick { 3 } else { 12 };
    let ncand = 40;
    let graph = wide("e16-wide", 20);
    let machine = MachineConfig::linear(8);
    let expected = direct_winner(&graph, &machine, ncand);
    // Drive one topology through its front server, shut that down, and
    // read the row off the latencies and (for a coordinator) the fleet
    // counters.
    let measure = |scenario: &str, front: ServerHandle| -> Row {
        let (lat, wall_ms, ok) = drive(
            front.local_addr(),
            &graph,
            &machine,
            ncand,
            tunes,
            &expected,
        );
        let stats = front.shutdown_and_join();
        row(scenario, &lat, wall_ms, stats.fleet.as_ref(), ok)
    };
    let start_shards =
        || -> Vec<ServerHandle> { (0..3).map(|_| start(ServerConfig::default())).collect() };

    // Local baseline: one server, no fleet.
    let mut rows = vec![measure("local", start(ServerConfig::default()))];

    // Healthy 3-shard fleet.
    let shards = start_shards();
    let addrs = shards.iter().map(|s| s.local_addr().to_string()).collect();
    rows.push(measure("fleet", coordinator(fleet_config(addrs))));
    for s in shards {
        s.shutdown_and_join();
    }

    // Same fleet, every shard behind a seeded fault-injection proxy
    // (drops, delays, truncations, corruptions, mid-reply disconnects
    // — deterministic per seed, clean once the schedule is spent).
    let shards = start_shards();
    let proxies: Vec<FaultProxy> = shards
        .iter()
        .enumerate()
        .map(|(i, s)| {
            FaultProxy::start(s.local_addr(), FaultPlan::seeded(0xE16 + i as u64, 4))
                .expect("proxy")
        })
        .collect();
    let addrs = proxies.iter().map(|p| p.local_addr().to_string()).collect();
    rows.push(measure("fleet+faults", coordinator(fleet_config(addrs))));
    for p in proxies {
        p.stop();
    }
    for s in shards {
        s.shutdown_and_join();
    }

    // Full outage: every shard address refuses connects; the
    // coordinator must degrade to pure-local search, same winner.
    let dead = vec![dead_addr(), dead_addr(), dead_addr()];
    rows.push(measure("fleet-outage", coordinator(fleet_config(dead))));
    rows
}

/// Render.
pub fn print(rows: &[Row]) -> String {
    let mut out =
        String::from("E16 — fault-tolerant fleet tuning (winner parity under injected faults)\n\n");
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scenario.clone(),
                r.tunes.to_string(),
                table::f(r.throughput_rps),
                table::f(r.p50_ms),
                table::f(r.p95_ms),
                table::f(r.max_ms),
                r.retries.to_string(),
                r.hedges.to_string(),
                r.reassignments.to_string(),
                r.discarded.to_string(),
                r.local_fallback_ranges.to_string(),
                if r.winner_bit_identical { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    out.push_str(&table::render(
        &[
            "scenario",
            "tunes",
            "tune/s",
            "p50 ms",
            "p95 ms",
            "max ms",
            "retry",
            "hedge",
            "reassign",
            "discard",
            "local",
            "bit-identical",
        ],
        &table_rows,
    ));
    out.push_str(
        "\nevery topology — healthy, faulted, and fully dead — must return the\n\
         single-machine winner bit for bit; the counters show what it cost.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_keeps_every_winner_bit_identical() {
        let rows = run(true);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.winner_bit_identical, "{}: winner diverged", r.scenario);
            assert!(r.tunes > 0 && r.throughput_rps > 0.0, "{}", r.scenario);
            assert!(
                r.p50_ms <= r.p95_ms && r.p95_ms <= r.max_ms,
                "{}",
                r.scenario
            );
        }
        let outage = rows.iter().find(|r| r.scenario == "fleet-outage").unwrap();
        assert!(
            outage.local_fallback_ranges >= 1,
            "outage must have fallen back locally"
        );
    }
}
