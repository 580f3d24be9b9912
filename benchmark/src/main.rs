//! End-to-end benchmark of `fm-serve`.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload tune --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Starts the servers of one workload in this process with
//! `ServerConfig::default()`, drives them over TCP from one client
//! thread on one binary pipelined connection, checks every answer
//! against a reference computed in-process beforehand, and prints the
//! end-to-end metrics (`--trace 0`) or, after an in-process traced
//! replay of the same seeded ops, the per-layer metrics (`--trace 1`).
//! The last line of standard output is one JSON object; lines before it
//! start with `#`. See `README.md` for the workloads and the layer map.

mod drive;
mod procfs;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use fm_serve::protocol::{encode_request_binary, Request, TuneShardRequest};
use fm_serve::server::ServerConfig;
use fm_workspan::ThreadPool;

use crate::drive::{Phase, Stop};
use crate::stats::{percentile, tail_percentile, MIN_SAMPLES};
use crate::workload::{Inputs, Kind};

/// Set-ups per run; `setup_s` is their median. The first one serves
/// the timed phase.
const SETUP_REPEATS: usize = 5;

/// Idle window of the `workspan.idle_cpu_pct` probe.
const IDLE_WINDOW: Duration = Duration::from_secs(1);

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("latency_p50_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed with `--trace 1` (0 where the workload
/// does not load the layer).
pub const PER_LAYER: [(&str, &str); 54] = [
    ("protocol.req_encode_ms", "ms"),
    ("protocol.req_decode_ms", "ms"),
    ("protocol.reply_encode_ms", "ms"),
    ("protocol.reply_decode_ms", "ms"),
    ("protocol.req_kb", "KiB"),
    ("protocol.reply_kb", "KiB"),
    ("protocol.self_ms", "ms"),
    ("protocol.share_pct", "%"),
    ("server.unattributed_ms", "ms"),
    ("server.ops_per_s", "1/s"),
    ("server.latency_p95_ms", "ms"),
    ("server.inflight_peak", "count"),
    ("server.queue_peak", "count"),
    ("server.busy_rejections", "count"),
    ("server.dedup_batches", "count"),
    ("tuner.search_ms", "ms"),
    ("tuner.refine_ms", "ms"),
    ("tuner.legal_ratio", "ratio"),
    ("tuner.pool_util", "ratio"),
    ("tuner.self_ms", "ms"),
    ("tuner.share_pct", "%"),
    ("flat.context_ms", "ms"),
    ("flat.eval_us", "us"),
    ("flat.self_ms", "ms"),
    ("flat.share_pct", "%"),
    ("delta.anneal_move_us", "us"),
    ("delta.add_ms", "ms"),
    ("delta.remove_ms", "ms"),
    ("delta.retarget_ms", "ms"),
    ("delta.warm_tune_ms", "ms"),
    ("delta.rebuilds", "count"),
    ("delta.self_ms", "ms"),
    ("delta.share_pct", "%"),
    ("session.open_ms", "ms"),
    ("session.apply_ms", "ms"),
    ("session.rehearsal_ms", "ms"),
    ("session.tune_ms", "ms"),
    ("session.self_ms", "ms"),
    ("session.share_pct", "%"),
    ("core.check_us", "us"),
    ("core.evaluate_us", "us"),
    ("core.self_ms", "ms"),
    ("core.share_pct", "%"),
    ("grid.sim_ms", "ms"),
    ("grid.cycles", "count"),
    ("grid.self_ms", "ms"),
    ("grid.share_pct", "%"),
    ("fleet.parts_per_tune", "count"),
    ("fleet.hedges", "count"),
    ("fleet.retries", "count"),
    ("fleet.redispatches", "count"),
    ("fleet.local_fallbacks", "count"),
    ("fleet.shard_req_kb", "KiB"),
    ("workspan.idle_cpu_pct", "%"),
];

struct Args {
    workload: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: fm-e2e-bench --workload tune|session|rpc|fleet [--seed N] [--seconds N] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Kind::Tune,
        seed: 1,
        seconds: 20,
        trace: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Kind::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// Untimed ops after each set-up.
fn warmup_ops(kind: Kind) -> u64 {
    match kind {
        Kind::Tune | Kind::Fleet => 4,
        Kind::Session => 8,
        Kind::Rpc => 32,
    }
}

/// Ops the traced run replays.
fn replay_ops(kind: Kind) -> u64 {
    match kind {
        Kind::Tune | Kind::Fleet => 12,
        Kind::Session => 32,
        Kind::Rpc => 64,
    }
}

/// The checked-out commit, read from `.git` without running git;
/// `unknown` outside a repository.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(name)
        .map(|r| r.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Encoded size of the sub-range requests a coordinator sends for one
/// fleet tune of `req` split into `ranges` equal parts, KiB (computed,
/// not captured: the coordinator's partition is private).
fn shard_req_kb(req: &Request, ranges: usize) -> f64 {
    let Request::Tune(t) = req else {
        return 0.0;
    };
    let n = t.candidates.len();
    let bytes: usize = (0..ranges)
        .map(|r| {
            let (lo, hi) = (n * r / ranges, n * (r + 1) / ranges);
            let shard = Request::TuneShard(TuneShardRequest {
                graph: t.graph.clone(),
                machine: t.machine.clone(),
                fom: t.fom,
                candidates: t.candidates[lo..hi].to_vec(),
                start_index: lo as u64,
                epoch: 1,
                deadline_ms: None,
                stream_every: Some(16),
                cost_model: None,
            });
            encode_request_binary(1, &shard).len()
        })
        .sum();
    bytes as f64 / 1024.0
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run(args: &Args) -> Result<(), String> {
    let kind = args.workload;
    let threads = ServerConfig::default().tuner_threads;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# fm-e2e-bench workload={} seed={} seconds={} trace={} git_rev={} nproc={nproc}",
        kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_rev()
    );

    // Reference answers first, outside set-up and timing.
    let t_ref = Instant::now();
    let inputs = workload::generate(kind, args.seed, &ThreadPool::with_threads(threads));
    println!(
        "# references computed in {:.2} s",
        t_ref.elapsed().as_secs_f64()
    );
    let open = match &inputs {
        Inputs::Session(s) => Some(Request::SessionOpen(s.open.clone())),
        _ => None,
    };
    if let Inputs::Rpc(rpc) = &inputs {
        let labels: Vec<&str> = rpc.pool.iter().map(|p| p.label.as_str()).collect();
        println!("# rpc pool ({} pairs): {}", labels.len(), labels.join(" "));
    }

    // The first set-up serves the timed phase; the others only time
    // set-up, after the memory peak is read, so that leftovers of torn
    // down servers never inflate it.
    let warmup = warmup_ops(kind);
    let timed_setup = |ops: &mut Phase| -> Result<(drive::Live, f64), String> {
        let t0 = Instant::now();
        let (live, warm) = drive::setup(kind, &inputs, open.as_ref(), warmup)?;
        ops.absorb(&warm);
        Ok((live, t0.elapsed().as_secs_f64()))
    };
    let mut ops = Phase::default();
    let (mut live, first) = timed_setup(&mut ops)?;
    let idle_pct = args.trace.then(|| drive::idle_cpu_pct(IDLE_WINDOW));
    let timed = drive::run_phase(
        &mut live,
        &inputs,
        Stop::Time(Duration::from_secs(args.seconds)),
    );
    ops.absorb(&timed);
    let (server_stats, problems) = drive::reconcile(&live)?;
    let rebuilds = live.rebuilds;
    let peak_rss_mb = procfs::peak_rss_mb();
    live.stop();
    let mut setups = vec![first];
    for _ in 1..SETUP_REPEATS {
        let (live, secs) = timed_setup(&mut ops)?;
        live.stop();
        setups.push(secs);
    }
    let setup_s = stats::median(&setups);

    let mut lat = timed.latencies_ms.clone();
    lat.sort_by(f64::total_cmp);
    if lat.is_empty() {
        return Err(format!("no op succeeded ({:?})", timed.transport_error));
    }
    let p50 = percentile(&lat, 50.0);
    let p95 = percentile(&lat, 95.0);
    let ops_per_s = lat.len() as f64 / timed.wall_s;
    let tail = tail_percentile(lat.len()).map_or("none".to_string(), |p| format!("p{p}"));
    println!(
        "# timed phase: {} samples over {:.2} s (warm-up {warmup} ops x {SETUP_REPEATS} set-ups; \
         highest percentile with >= {} samples beyond: {tail}; p95 needs {MIN_SAMPLES})",
        lat.len(),
        timed.wall_s,
        stats::TAIL_SAMPLES,
    );
    println!(
        "# {ops_per_s:.2} ops/s  p50 {p50:.3} ms  p95 {p95:.3} ms  p99 {:.3} ms  max {:.3} ms  \
         setups {setups:.3?} s",
        percentile(&lat, 99.0),
        lat[lat.len() - 1]
    );
    for p in &problems {
        println!("# stats reconciliation: {p}");
    }
    if let Some(e) = &timed.transport_error {
        println!("# transport error: {e}");
    }

    if !args.trace {
        let correct = ops.mismatched == 0 && problems.is_empty();
        let metrics = [
            ("latency_p50_ms", p50),
            (
                "cpu_ms_per_op",
                timed.cpu_s * 1e3 / timed.attempted.max(1) as f64,
            ),
            ("setup_s", setup_s),
            ("peak_rss_mb", peak_rss_mb),
        ];
        let out: Vec<(&str, &str, f64)> = END_TO_END
            .iter()
            .zip(metrics)
            .map(|(&(name, unit), (n, v))| {
                debug_assert_eq!(name, n);
                (name, unit, v)
            })
            .collect();
        println!("{}", json_line(correct, ops.attempted, ops.failed, &out));
        return Ok(());
    }

    // Traced run: replay the same seeded ops in-process with spans.
    let pool = ThreadPool::with_threads(threads);
    let t_replay = Instant::now();
    let (tracer, rep) = trace::replay(&inputs, replay_ops(kind), &pool);
    let replay_s = t_replay.elapsed().as_secs_f64();
    drop(pool);
    let spans_path =
        Path::new(".bench_trace").join(format!("{}-seed{}.tsv", kind.name(), args.seed));
    tracer
        .write_tsv(&spans_path)
        .map_err(|e| format!("write {}: {e}", spans_path.display()))?;
    let split = trace::split(&tracer, &rep, threads);

    let mut m: BTreeMap<String, f64> = split
        .metrics
        .iter()
        .map(|(k, v)| (k.to_string(), *v))
        .collect();
    let layer_sum: f64 = split.self_ms.values().sum();
    for (&layer, &ms) in &split.self_ms {
        m.insert(format!("{layer}.self_ms"), ms);
        m.insert(format!("{layer}.share_pct"), ms / p50 * 100.0);
    }
    let mut set = |name: &str, v: f64| m.insert(name.to_string(), v);
    set("server.unattributed_ms", p50 - layer_sum);
    set("server.ops_per_s", ops_per_s);
    set("server.latency_p95_ms", p95);
    let front = server_stats.last().expect("a topology has a server");
    set("server.inflight_peak", front.inflight_peak as f64);
    set("server.queue_peak", front.queue_peak as f64);
    set("server.busy_rejections", front.busy_rejections as f64);
    set("server.dedup_batches", front.dedup_batches as f64);
    set("delta.rebuilds", (rebuilds + rep.rebuilds) as f64);
    if let Some(f) = &front.fleet {
        let tunes = f.fleet_tunes.max(1) as f64;
        let sends: u64 = f.shards.iter().map(|s| s.sends).sum();
        set("fleet.parts_per_tune", f.parts_merged as f64 / tunes);
        set("fleet.hedges", f.hedges as f64);
        set("fleet.retries", f.retries as f64);
        set(
            "fleet.redispatches",
            (f.suffix_redispatches + f.cliff_redispatches + f.departed_redispatches) as f64,
        );
        set("fleet.local_fallbacks", f.local_fallback_ranges as f64);
        if let Inputs::Tune(t) = &inputs {
            let ranges = ((sends as f64 / tunes).round() as usize).max(1);
            set("fleet.shard_req_kb", shard_req_kb(&t.requests[0], ranges));
        }
    }
    set("workspan.idle_cpu_pct", idle_pct.unwrap_or(0.0));

    println!(
        "# traced split: {} ops replayed in {replay_s:.2} s; replayed op path {:.3} ms/op \
         (untraced p50 {p50:.3} ms; spans in {})",
        rep.ops,
        split.op_wall_ms,
        spans_path.display()
    );
    let spans = tracer.spans_per_op(rep.ops);
    let span_ns = trace::Tracer::span_cost_ns();
    println!(
        "# tracing overhead: {spans:.0} spans/op x {span_ns:.0} ns = {:.1} us/op",
        spans * span_ns / 1e3
    );
    println!(
        "#   {:<22} {:>12} {:>14}",
        "layer", "self ms/op", "share of p50"
    );
    for (&layer, &ms) in &split.self_ms {
        println!("#   {layer:<22} {ms:>12.3} {:>13.1}%", ms / p50 * 100.0);
    }
    let un = p50 - layer_sum;
    println!(
        "#   {:<22} {un:>12.3} {:>13.1}%",
        "server.unattributed",
        un / p50 * 100.0
    );

    let correct = ops.mismatched == 0 && rep.mismatched == 0 && problems.is_empty();
    let out: Vec<(&str, &str, f64)> = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, unit, m.get(name).copied().unwrap_or(0.0)))
        .collect();
    debug_assert!(m.keys().all(|k| PER_LAYER.iter().any(|(n, _)| n == k)));
    println!(
        "{}",
        json_line(
            correct,
            ops.attempted + rep.ops,
            ops.failed + rep.mismatched,
            &out
        )
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly the metrics this program prints.
    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let metric_entries = text.matches("\"unit\":").count();
        assert_eq!(metric_entries, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn json_line_is_the_contract_shape() {
        let line = json_line(true, 3, 0, &[("a_ms", "ms", 1.5), ("b", "count", f64::NAN)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 0, \"unit\": \"count\"}}}"
        );
    }
}
