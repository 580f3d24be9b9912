//! **E15 — serving throughput and tail latency** (`fm-serve`).
//!
//! The daemon's pitch is that one resident server amortises the tuner
//! pool and cache across many callers *without* melting down under
//! load: bounded admission, explicit `Busy` backpressure, and metrics
//! that stay readable while saturated. This experiment stands up an
//! in-process server on an ephemeral port, drives it with a
//! multi-threaded closed-loop client fleet issuing a mixed
//! Tune/Evaluate workload (retrying on `Busy`), and reports sustained
//! throughput plus client-observed p50/p95/p99 tail latency per
//! endpoint. The server's own `Stats` counters are fetched at the end
//! and must reconcile *exactly* with the client-side counts — nothing
//! lost, nothing double-counted.

use std::time::Instant;

use fm_core::machine::MachineConfig;
use fm_core::mapping::Mapping;
use fm_serve::client::{Client, ClientError};
use fm_serve::protocol::EvaluateRequest;
use fm_serve::server::ServerConfig;
use serde::{Deserialize, Serialize};

use crate::serving::{quantile_ms, start, tune_request, wide};
use crate::table;

/// One endpoint's view of the load run: client-side counts and tail
/// latency next to the server's own counters for the same endpoint.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    /// Endpoint name (`tune` / `evaluate` / `all`).
    pub endpoint: String,
    /// Requests completed successfully (client view).
    pub requests: u64,
    /// `Busy` refusals absorbed by retry (client view).
    pub busy_retries: u64,
    /// Completed requests per second over the load phase.
    pub throughput_rps: f64,
    /// Client-observed median latency, milliseconds.
    pub p50_ms: f64,
    /// Client-observed 95th percentile latency, milliseconds.
    pub p95_ms: f64,
    /// Client-observed 99th percentile latency, milliseconds.
    pub p99_ms: f64,
    /// Client-observed maximum latency, milliseconds.
    pub max_ms: f64,
    /// The server's `received` counter for this endpoint (includes
    /// `Busy` refusals — every send the clients made).
    pub server_received: u64,
    /// The server's `completed` counter for this endpoint.
    pub server_completed: u64,
}

struct ThreadOutcome {
    tune_lat_ms: Vec<f64>,
    eval_lat_ms: Vec<f64>,
    busy_tune: u64,
    busy_eval: u64,
}

/// Drive the server and measure. `quick` shrinks the fleet and the
/// per-thread request count, not the workload shape.
pub fn run(quick: bool) -> Vec<Row> {
    let threads = if quick { 2 } else { 6 };
    let per_thread = if quick { 24 } else { 200 };

    let graph = wide("e15-wide", 24);
    let machine = MachineConfig::linear(8);
    let handle = start(ServerConfig::default());
    let addr = handle.local_addr();

    let t0 = Instant::now();
    let joins: Vec<_> = (0..threads)
        .map(|_| {
            let graph = graph.clone();
            let machine = machine.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let resolved = Mapping::serial(&graph).resolve(&graph, &machine).unwrap();
                let mut out = ThreadOutcome {
                    tune_lat_ms: Vec::new(),
                    eval_lat_ms: Vec::new(),
                    busy_tune: 0,
                    busy_eval: 0,
                };
                // 1 tune per 3 evaluates: tunes are the heavy tail,
                // evaluates the high-rate floor — a serving mix, not a
                // batch queue.
                for i in 0..per_thread {
                    let is_tune = i % 4 == 0;
                    loop {
                        let t = Instant::now();
                        let result: Result<(), ClientError> = if is_tune {
                            client
                                .tune(tune_request(&graph, &machine, 24))
                                .map(|r| assert!(r.best.is_some()))
                        } else {
                            client
                                .evaluate(EvaluateRequest {
                                    graph: graph.clone(),
                                    machine: machine.clone(),
                                    mapping: resolved.clone(),
                                    deadline_ms: None,
                                })
                                .map(|r| assert!(r.legal))
                        };
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        match result {
                            Ok(()) => {
                                if is_tune {
                                    out.tune_lat_ms.push(ms);
                                } else {
                                    out.eval_lat_ms.push(ms);
                                }
                                break;
                            }
                            Err(e) if e.is_busy() => {
                                if is_tune {
                                    out.busy_tune += 1;
                                } else {
                                    out.busy_eval += 1;
                                }
                                std::thread::sleep(std::time::Duration::from_millis(2));
                            }
                            Err(other) => panic!("E15 client failed: {other}"),
                        }
                    }
                }
                out
            })
        })
        .collect();

    let mut tune_lat: Vec<f64> = Vec::new();
    let mut eval_lat: Vec<f64> = Vec::new();
    let (mut busy_tune, mut busy_eval) = (0u64, 0u64);
    for j in joins {
        let o = j.join().expect("client thread");
        tune_lat.extend(o.tune_lat_ms);
        eval_lat.extend(o.eval_lat_ms);
        busy_tune += o.busy_tune;
        busy_eval += o.busy_eval;
    }
    let wall = t0.elapsed().as_secs_f64().max(1e-9);

    let stats = handle.shutdown_and_join();

    tune_lat.sort_by(|a, b| a.total_cmp(b));
    eval_lat.sort_by(|a, b| a.total_cmp(b));
    let row = |endpoint: &str, lat: &[f64], busy: u64, received: u64, completed: u64| Row {
        endpoint: endpoint.to_string(),
        requests: lat.len() as u64,
        busy_retries: busy,
        throughput_rps: lat.len() as f64 / wall,
        p50_ms: quantile_ms(lat, 0.50),
        p95_ms: quantile_ms(lat, 0.95),
        p99_ms: quantile_ms(lat, 0.99),
        max_ms: lat.last().copied().unwrap_or(0.0),
        server_received: received,
        server_completed: completed,
    };
    let mut all = [tune_lat.as_slice(), eval_lat.as_slice()].concat();
    all.sort_by(|a, b| a.total_cmp(b));
    vec![
        row(
            "tune",
            &tune_lat,
            busy_tune,
            stats.tune.received,
            stats.tune.completed,
        ),
        row(
            "evaluate",
            &eval_lat,
            busy_eval,
            stats.evaluate.received,
            stats.evaluate.completed,
        ),
        row(
            "all",
            &all,
            busy_tune + busy_eval,
            stats.tune.received + stats.evaluate.received,
            stats.tune.completed + stats.evaluate.completed,
        ),
    ]
}

/// Render.
pub fn print(rows: &[Row]) -> String {
    let mut out =
        String::from("E15 — fm-serve throughput and tail latency (mixed closed-loop load)\n\n");
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.endpoint.clone(),
                r.requests.to_string(),
                r.busy_retries.to_string(),
                table::f(r.throughput_rps),
                table::f(r.p50_ms),
                table::f(r.p95_ms),
                table::f(r.p99_ms),
                table::f(r.max_ms),
                r.server_received.to_string(),
                r.server_completed.to_string(),
            ]
        })
        .collect();
    out.push_str(&table::render(
        &[
            "endpoint", "ok", "busy", "req/s", "p50 ms", "p95 ms", "p99 ms", "max ms", "srv recv",
            "srv done",
        ],
        &table_rows,
    ));
    out.push_str(
        "\nserver counters reconcile with the client fleet exactly:\n\
         recv = ok + busy (every send accounted), done = ok (nothing lost).\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_load_run_reconciles_with_server_stats() {
        let rows = run(true);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            // Exact reconciliation, the experiment's headline claim.
            assert_eq!(
                r.server_completed, r.requests,
                "{}: served != succeeded",
                r.endpoint
            );
            assert_eq!(
                r.server_received,
                r.requests + r.busy_retries,
                "{}: received != sends",
                r.endpoint
            );
            assert!(r.requests > 0, "{}: no traffic", r.endpoint);
            assert!(r.throughput_rps > 0.0);
            // Quantiles are monotone by construction.
            assert!(r.p50_ms <= r.p95_ms && r.p95_ms <= r.p99_ms && r.p99_ms <= r.max_ms);
        }
        // The mix is 1 tune : 3 evaluates.
        assert!(rows[1].requests >= rows[0].requests);
    }
}
