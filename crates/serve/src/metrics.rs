//! The in-process metrics registry.
//!
//! The `Stats` reply structs are the live counters. The server keeps
//! one [`StatsReply`] under one short lock ([`Metrics`]), beside what
//! the reply derives when it is read: a log₂ latency histogram per
//! endpoint, the dirty-cone total behind `mean_dirty_cone`, and the
//! sums behind each cost backend's means. The fleet keeps its
//! [`FleetStatsReply`], one [`ShardStats`] row per shard record, the
//! same way ([`Membership`](crate::membership::Membership)). Each
//! counter is written where it is declared, as a field of the reply it
//! is read through. An `Evaluate` takes the lock three times (its
//! frame, its admission, its answer), a `Tune` four (its winner's
//! observatory row; five with the cache), a streamed `TuneShard` once
//! more per part.
//!
//! Gauges are not stored. Queue depth, open sessions, fleet members,
//! the membership epoch and each shard's breaker are read from the
//! structure that holds them when the server assembles a snapshot.
//!
//! **Lock rule.** Every metrics lock is a leaf: no code takes another
//! lock while holding one, and a snapshot reads the owners' gauges
//! before it takes the metrics lock.
//!
//! Quantiles are read from the histogram: bucket *b* covers latencies
//! in `[2^b, 2^(b+1))` nanoseconds, so a reported p99 is exact to
//! within 2× — the right fidelity for tail-latency dashboards, at zero
//! per-request allocation.

use std::time::{Duration, Instant};

use fm_core::cost::CostReport;
use fm_costmodel::{CostModelKind, RooflinePoint};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// Number of log₂ latency buckets: covers 1 ns .. ~584 years.
const BUCKETS: usize = 64;

/// The endpoints `Stats` counts, by wire name, in reply order.
const ENDPOINTS: [&str; 10] = [
    "tune",
    "tune_shard",
    "evaluate",
    "simulate",
    "session_open",
    "session_edit",
    "session_tune",
    "session_close",
    "stats",
    "ping",
];

/// `name`'s position in [`ENDPOINTS`], `None` for requests `Stats` does
/// not count per endpoint (`Hello`, membership, `Shutdown`).
fn endpoint_index(name: &str) -> Option<usize> {
    ENDPOINTS.iter().position(|&e| e == name)
}

/// A latency histogram with log₂ buckets.
#[derive(Debug, Clone)]
struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum_ns: u64,
    max_ns: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }
}

impl Histogram {
    /// Record one sample.
    fn record(&mut self, latency: Duration) {
        let ns = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        self.buckets[(63 - ns.max(1).leading_zeros()) as usize] += 1;
        self.count += 1;
        self.sum_ns = self.sum_ns.wrapping_add(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// The latency at quantile `q` (0 < q ≤ 1), in nanoseconds: the
    /// upper edge of the bucket holding the rank-`⌈q·n⌉` sample,
    /// clamped to the observed maximum. 0 when empty.
    fn quantile_ns(&self, q: f64) -> u64 {
        let n = self.count;
        if n == 0 {
            return 0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (b, &slot) in self.buckets.iter().enumerate() {
            seen += slot;
            if seen >= rank {
                let upper = if b >= 63 { u64::MAX } else { (2u64 << b) - 1 };
                return upper.min(self.max_ns);
            }
        }
        self.max_ns
    }

    fn stats(&self) -> LatencyStats {
        let to_us = |ns: u64| ns as f64 / 1e3;
        LatencyStats {
            p50_us: to_us(self.quantile_ns(0.50)),
            p95_us: to_us(self.quantile_ns(0.95)),
            p99_us: to_us(self.quantile_ns(0.99)),
            mean_us: mean(to_us(self.sum_ns), self.count),
            max_us: to_us(self.max_ns),
        }
    }
}

/// `sum / n`, 0 when `n` is 0.
fn mean(sum: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// The server's registry: its `Stats` counters and what the reply
/// derives from, under one leaf lock. Shared by reference across
/// connection and worker threads.
#[derive(Debug)]
pub struct Metrics {
    started: Instant,
    live: Mutex<Live>,
}

/// What [`Metrics`] guards.
#[derive(Debug, Clone)]
struct Live {
    /// The counters. Gauges, latencies and means stay zero here; a
    /// snapshot fills them.
    reply: StatsReply,
    /// Admission-to-reply latency of completed requests, per endpoint
    /// in [`ENDPOINTS`] order.
    latency: [Histogram; ENDPOINTS.len()],
    /// Σ dirty-cone size over applied edits (nodes the incremental
    /// repairer touched); `mean_dirty_cone` is this over
    /// `edits_applied`.
    dirty_cone_total: u64,
    /// Per backend, in [`CostModelKind::ALL`] order: Σ off-chip
    /// operational intensity (ops/bit) and Σ achieved throughput
    /// (ops/ps) of its winners.
    roofline_sums: [[f64; 2]; CostModelKind::ALL.len()],
}

impl Default for Metrics {
    fn default() -> Self {
        // One row per backend, in reporting order; a snapshot lists the
        // ones that have scored a tune.
        let reply = StatsReply {
            cost_models: CostModelKind::ALL
                .iter()
                .map(|k| CostModelStatsReply {
                    model: k.name().to_string(),
                    ..CostModelStatsReply::default()
                })
                .collect(),
            ..StatsReply::default()
        };
        Metrics {
            started: Instant::now(),
            live: Mutex::new(Live {
                reply,
                latency: Default::default(),
                dirty_cone_total: 0,
                roofline_sums: [[0.0; 2]; CostModelKind::ALL.len()],
            }),
        }
    }
}

impl Metrics {
    /// Bump counters: `f` runs on the live reply under the lock, and
    /// takes no other lock.
    pub fn count(&self, f: impl FnOnce(&mut StatsReply)) {
        f(&mut self.live.lock().reply);
    }

    /// Count requests of endpoint `name` answered, one per admission
    /// instant in `accepted`: as failed when `failed`, else completed,
    /// with its admission-to-reply latency.
    pub fn answered(&self, name: &str, failed: bool, accepted: impl IntoIterator<Item = Instant>) {
        let now = Instant::now();
        let i = endpoint_index(name).expect("a counted endpoint");
        let mut live = self.live.lock();
        let Live { reply, latency, .. } = &mut *live;
        let endpoint = reply
            .endpoints_mut()
            .into_iter()
            .nth(i)
            .expect("one per name");
        for at in accepted {
            if failed {
                endpoint.failed += 1;
            } else {
                endpoint.completed += 1;
                latency[i].record(now.saturating_duration_since(at));
            }
        }
    }

    /// Count one applied edit batch of `applied` edits whose repairs
    /// touched `cone` nodes.
    pub fn edited(&self, applied: u64, cone: u64) {
        let mut live = self.live.lock();
        live.reply.sessions.edit_batches += 1;
        live.reply.sessions.edits_applied += applied;
        live.dirty_cone_total += cone;
    }

    /// Record a tune winner, `replies` times (once per reply it is sent
    /// as), in the roofline observatory under `kind`, the backend that
    /// scored it: which roof bound it, and what it cost.
    pub fn observe(
        &self,
        kind: CostModelKind,
        point: &RooflinePoint,
        report: &CostReport,
        replies: usize,
    ) {
        let slot = CostModelKind::ALL.iter().position(|&k| k == kind);
        let slot = slot.expect("every backend has a row");
        let mut live = self.live.lock();
        let Live {
            reply,
            roofline_sums,
            ..
        } = &mut *live;
        let (row, sums) = (&mut reply.cost_models[slot], &mut roofline_sums[slot]);
        for _ in 0..replies {
            row.tunes += 1;
            *match point.bound.as_str() {
                "compute" => &mut row.compute_bound,
                "onchip-bw" => &mut row.onchip_bound,
                _ => &mut row.offchip_bound,
            } += 1;
            sums[0] += point.intensity_offchip;
            sums[1] += point.achieved;
            row.total_energy_fj += report.energy().raw();
            row.total_time_ps += report.time_ps.raw();
        }
    }

    /// The counters as a `Stats` reply for a server with this queue
    /// capacity, with uptime, latencies and means derived. The gauges
    /// (queue depth and peak, open sessions, the fleet section) are the
    /// caller's to fill, read from their owners before this call.
    pub fn snapshot(&self, queue_capacity: usize) -> StatsReply {
        let Live {
            mut reply,
            latency,
            dirty_cone_total,
            roofline_sums,
        } = self.live.lock().clone();
        reply.uptime_ms = self.started.elapsed().as_secs_f64() * 1e3;
        reply.queue_capacity = queue_capacity as u64;
        for (endpoint, h) in reply.endpoints_mut().into_iter().zip(&latency) {
            endpoint.latency = h.stats();
        }
        let sessions = &mut reply.sessions;
        sessions.mean_dirty_cone = mean(dirty_cone_total as f64, sessions.edits_applied);
        for (row, [intensity, achieved]) in reply.cost_models.iter_mut().zip(roofline_sums) {
            row.mean_intensity_offchip = mean(intensity, row.tunes);
            row.mean_achieved_ops_per_ps = mean(achieved, row.tunes);
        }
        reply.cost_models.retain(|row| row.tunes > 0);
        reply
    }
}

/// Wire snapshot of the session subsystem's counters.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SessionStatsReply {
    /// Sessions currently held.
    pub open: u64,
    /// Sessions opened over the server's lifetime.
    pub opened: u64,
    /// Sessions closed by their client.
    pub closed: u64,
    /// Sessions evicted by the idle-TTL sweeper.
    pub evicted: u64,
    /// Typed `NoSuchSession` replies sent.
    pub no_such: u64,
    /// Individual edits applied.
    pub edits_applied: u64,
    /// Edit batches applied.
    pub edit_batches: u64,
    /// Tunes that ran fully warm.
    pub warm_tunes: u64,
    /// Tunes with at least one cold candidate rebuild.
    pub cold_tunes: u64,
    /// Individual candidate cold rebuilds.
    pub cold_rebuilds: u64,
    /// Mean dirty-cone size per applied edit (0.0 before any edit).
    pub mean_dirty_cone: f64,
}

/// Wire snapshot of one cost backend's observatory counters.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CostModelStatsReply {
    /// Backend name (`"analytic"`, `"roofline"`, `"spatial"`).
    pub model: String,
    /// Tunes whose winner was charged under this backend.
    pub tunes: u64,
    /// Winners whose binding roof was the compute ceiling.
    pub compute_bound: u64,
    /// Winners bound by on-chip (NoC) bandwidth.
    pub onchip_bound: u64,
    /// Winners bound by off-chip (memory) bandwidth.
    pub offchip_bound: u64,
    /// Mean off-chip operational intensity of winners (ops/bit).
    pub mean_intensity_offchip: f64,
    /// Mean achieved throughput of winners (ops/ps).
    pub mean_achieved_ops_per_ps: f64,
    /// Total energy across winners (fJ).
    pub total_energy_fj: f64,
    /// Total schedule time across winners (ps).
    pub total_time_ps: f64,
}

/// Wire snapshot of one shard's counters.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ShardStats {
    /// The shard's address, as configured.
    pub addr: String,
    /// Attempts sent (including hedges and breaker probes).
    pub sends: u64,
    /// Verified, complete replies.
    pub successes: u64,
    /// Failed attempts (transport, refusal, discarded reply).
    pub failures: u64,
    /// Closed/HalfOpen → Open breaker transitions.
    pub breaker_opens: u64,
    /// Cliff-detector firings attributed to this shard. Absent on
    /// pre-quarantine servers — decoded as 0.
    #[serde(default)]
    pub cliff_trips: u64,
    /// Breaker state at snapshot time: `"closed"`, `"open"`, or
    /// `"half-open"`.
    pub breaker: String,
    /// Streamed parts merged from this shard.
    pub parts: u64,
    /// EWMA throughput in candidates/second (0.0 = cold).
    pub ewma_cands_per_sec: f64,
    /// Trailing peak of the EWMA (candidates/second). Absent on
    /// pre-elastic servers — decoded as 0.
    #[serde(default)]
    pub peak_cands_per_sec: f64,
    /// Where the current weight came from: `"cold"`, `"persisted"`
    /// (ledger-seeded), or `"measured"`. Absent on pre-elastic servers
    /// — decoded as empty.
    #[serde(default)]
    pub weight_source: String,
    /// Whether the shard is currently out of the live roster. Absent
    /// on pre-elastic servers — decoded as false.
    #[serde(default)]
    pub departed: bool,
}

/// Wire snapshot of the fleet coordinator's counters.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FleetStatsReply {
    /// Per-shard counters, in registration order (live and departed).
    pub shards: Vec<ShardStats>,
    /// Live members of the fleet roster. Absent on pre-elastic servers
    /// — decoded as 0.
    #[serde(default)]
    pub members: u64,
    /// Membership epoch (bumps on every effective join/leave). Absent
    /// on pre-elastic servers — decoded as 0.
    #[serde(default)]
    pub membership_epoch: u64,
    /// Effective `ShardJoin` admissions. Absent on pre-elastic servers
    /// — decoded as 0.
    #[serde(default)]
    pub joins: u64,
    /// Effective `ShardLeave` retirements. Absent on pre-elastic
    /// servers — decoded as 0.
    #[serde(default)]
    pub leaves: u64,
    /// Suffix re-dispatches fired by the throughput-cliff detector.
    /// Absent on pre-elastic servers — decoded as 0.
    #[serde(default)]
    pub cliff_redispatches: u64,
    /// Shards quarantined for repeatedly firing the cliff detector.
    /// Absent on pre-quarantine servers — decoded as 0.
    #[serde(default)]
    pub cliff_quarantines: u64,
    /// Suffix re-dispatches fired by mid-range shard departure. Absent
    /// on pre-elastic servers — decoded as 0.
    #[serde(default)]
    pub departed_redispatches: u64,
    /// Tunes routed through the fleet path.
    pub fleet_tunes: u64,
    /// Retry waves, summed over ranges.
    pub retries: u64,
    /// Hedged duplicate requests launched.
    pub hedges: u64,
    /// Hedges that beat their primary.
    pub hedge_wins: u64,
    /// Replies discarded for checksum mismatch.
    pub corrupt_discarded: u64,
    /// Replies discarded for epoch mismatch.
    pub stale_discarded: u64,
    /// Replies discarded as incomplete.
    pub incomplete_discarded: u64,
    /// Sub-ranges served by a non-first-choice shard.
    pub reassignments: u64,
    /// Sub-ranges evaluated locally after all shard paths failed.
    pub local_fallback_ranges: u64,
    /// Tunes that degraded entirely to local evaluation.
    pub degraded_tunes: u64,
    /// Streamed parts verified and merged.
    pub parts_merged: u64,
    /// Streamed parts discarded (corrupt, stale, or non-contiguous).
    pub parts_discarded: u64,
    /// Re-dispatches that sent only an unfinished suffix.
    pub suffix_redispatches: u64,
    /// Candidates saved from re-evaluation by streamed prefixes.
    pub prefix_candidates_saved: u64,
}

/// Latency summary for one endpoint, in microseconds.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencyStats {
    /// Median.
    pub p50_us: f64,
    /// 95th percentile.
    pub p95_us: f64,
    /// 99th percentile.
    pub p99_us: f64,
    /// Arithmetic mean (exact, from a running sum).
    pub mean_us: f64,
    /// Maximum observed (exact).
    pub max_us: f64,
}

/// Wire snapshot of one endpoint's counters.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EndpointStats {
    /// Requests received.
    pub received: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests answered with `Failed`.
    pub failed: u64,
    /// Admission-to-reply latency of completed requests.
    pub latency: LatencyStats,
}

/// The `Stats` endpoint's reply: a full registry snapshot.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StatsReply {
    /// Milliseconds since the server started.
    pub uptime_ms: f64,
    /// Connections accepted.
    pub connections: u64,
    /// Current admission-queue depth.
    pub queue_depth: u64,
    /// Admission-queue high-water mark.
    pub queue_peak: u64,
    /// Configured admission-queue capacity.
    pub queue_capacity: u64,
    /// Requests refused with `Busy`.
    pub busy_rejections: u64,
    /// Unparseable frames received.
    pub protocol_errors: u64,
    /// Requests that expired before execution.
    pub deadline_expired: u64,
    /// Requests cancelled mid-run.
    pub cancelled: u64,
    /// Tuning-cache hits.
    pub cache_hits: u64,
    /// Tuning-cache misses.
    pub cache_misses: u64,
    /// Tuning-cache stale entries.
    pub cache_stale: u64,
    /// Connections that negotiated the binary pipelined protocol.
    pub binary_connections: u64,
    /// Request frames decoded from JSON text payloads.
    pub json_requests: u64,
    /// Request frames decoded from binary envelopes.
    pub binary_requests: u64,
    /// Peak concurrently in-flight requests on one connection.
    pub inflight_peak: u64,
    /// Dedup batches executed (one search served 2+ identical tunes).
    pub dedup_batches: u64,
    /// Queued `Tune` requests answered from another request's search.
    pub dedup_waiters_served: u64,
    /// Streamed `TuneShardPart` frames emitted (as a fleet backend).
    pub tune_shard_parts: u64,
    /// `Tune` counters.
    pub tune: EndpointStats,
    /// `TuneShard` counters (work done as a fleet backend).
    pub tune_shard: EndpointStats,
    /// `Evaluate` counters.
    pub evaluate: EndpointStats,
    /// `Simulate` counters.
    pub simulate: EndpointStats,
    /// `SessionOpen` counters.
    pub session_open: EndpointStats,
    /// `SessionEdit` counters.
    pub session_edit: EndpointStats,
    /// `SessionTune` counters.
    pub session_tune: EndpointStats,
    /// `SessionClose` counters.
    pub session_close: EndpointStats,
    /// Session-subsystem counters (open sessions, edits, warm vs cold
    /// tunes, mean dirty cone).
    pub sessions: SessionStatsReply,
    /// `Stats` counters.
    pub stats: EndpointStats,
    /// `Ping` counters.
    pub ping: EndpointStats,
    /// Per-cost-backend observatory rows (only backends that have
    /// scored at least one tune). Absent on pre-observatory servers —
    /// decoded as empty.
    #[serde(default)]
    pub cost_models: Vec<CostModelStatsReply>,
    /// Fleet-coordinator counters (`None` unless serving with
    /// `--fleet`).
    pub fleet: Option<FleetStatsReply>,
}

impl StatsReply {
    /// Endpoint `name`'s counters (by wire name); `None` for requests
    /// `Stats` does not count per endpoint.
    pub(crate) fn endpoint_mut(&mut self, name: &str) -> Option<&mut EndpointStats> {
        let i = endpoint_index(name)?;
        self.endpoints_mut().into_iter().nth(i)
    }

    /// Every endpoint's counters, in [`ENDPOINTS`] order.
    fn endpoints_mut(&mut self) -> [&mut EndpointStats; ENDPOINTS.len()] {
        [
            &mut self.tune,
            &mut self.tune_shard,
            &mut self.evaluate,
            &mut self.simulate,
            &mut self.session_open,
            &mut self.session_edit,
            &mut self.session_tune,
            &mut self.session_close,
            &mut self.stats,
            &mut self.ping,
        ]
    }

    /// Total requests received across the work endpoints (tune +
    /// tune_shard + evaluate + simulate).
    pub fn work_received(&self) -> u64 {
        self.tune.received
            + self.tune_shard.received
            + self.evaluate.received
            + self.simulate.received
    }

    /// Cache hit rate over `Tune` requests that consulted the cache.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses + self.cache_stale;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let mut h = Histogram::default();
        for ms in 1..=100u64 {
            h.record(Duration::from_millis(ms));
        }
        assert_eq!(h.count, 100);
        let p50 = h.quantile_ns(0.50);
        let p99 = h.quantile_ns(0.99);
        // Log2 buckets: answers are within 2× of the true quantile and
        // monotone in q.
        assert!((25_000_000..=128_000_000).contains(&p50), "p50 = {p50}");
        assert!(p99 >= 64_000_000, "p99 = {p99}");
        assert!(p50 <= p99);
        // Max is exact.
        assert_eq!(h.quantile_ns(1.0), 100_000_000);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = Histogram::default();
        assert_eq!(h.quantile_ns(0.5), 0);
        let s = h.stats();
        assert_eq!(s.mean_us, 0.0);
        assert_eq!(s.max_us, 0.0);
    }

    #[test]
    fn single_sample_all_quantiles_equal_it() {
        let mut h = Histogram::default();
        h.record(Duration::from_micros(7));
        for q in [0.01, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile_ns(q), 7_000);
        }
    }

    #[test]
    fn snapshot_serializes_and_round_trips() {
        let m = Metrics::default();
        m.count(|s| s.endpoint_mut("tune").unwrap().received += 3);
        let five_ms_ago = Instant::now() - Duration::from_millis(5);
        m.answered("tune", false, [five_ms_ago, five_ms_ago]);
        m.answered("tune", true, [five_ms_ago]);
        m.edited(2, 7);
        let snap = m.snapshot(8);
        assert_eq!(snap.queue_capacity, 8);
        assert_eq!((snap.tune.received, snap.tune.completed), (3, 2));
        assert_eq!(snap.tune.failed, 1);
        assert!(
            snap.tune.latency.p50_us >= 5_000.0,
            "{:?}",
            snap.tune.latency
        );
        assert_eq!(snap.evaluate, EndpointStats::default());
        assert_eq!(snap.sessions.mean_dirty_cone, 3.5);
        assert!(snap.cost_models.is_empty(), "no rows before any tune");
        let text = serde_json::to_string(&snap).unwrap();
        let back: StatsReply = serde_json::from_str(&text).unwrap();
        assert_eq!(back, snap);
        // Only the counted endpoints have counters.
        let mut s = StatsReply::default();
        assert!(s.endpoint_mut("stats").is_some());
        assert!(s.endpoint_mut("hello").is_none());
    }

    #[test]
    fn cost_model_observatory_tallies_winners() {
        use fm_costmodel::{EnergyLedger, Picoseconds};
        let m = Metrics::default();
        let report = CostReport {
            name: "t".into(),
            cycles: 10,
            time_ps: Picoseconds::new(2000.0),
            ledger: EnergyLedger::default(),
            peak_tile_bits: 0,
            pes_used: 1,
            utilization: 1.0,
            elements: 1,
        };
        let point = RooflinePoint {
            intensity_onchip: 1.0,
            intensity_offchip: 2.0,
            compute_ceiling: 4.0,
            attainable_onchip: 4.0,
            attainable_offchip: 4.0,
            achieved: 0.5,
            bound: "offchip-bw".to_string(),
        };
        m.observe(CostModelKind::Roofline, &point, &report, 1);
        m.observe(CostModelKind::Roofline, &point, &report, 1);
        let rows = m.snapshot(8).cost_models;
        assert_eq!(rows.len(), 1, "only the observed backend appears");
        assert_eq!(rows[0].model, "roofline");
        assert_eq!(rows[0].tunes, 2);
        assert_eq!(rows[0].offchip_bound, 2);
        assert_eq!(rows[0].compute_bound, 0);
        assert!((rows[0].mean_intensity_offchip - 2.0).abs() < 1e-12);
        assert!((rows[0].total_time_ps - 4000.0).abs() < 1e-9);
        // One observation per reply: a winner sent twice counts twice.
        m.observe(CostModelKind::Analytic, &point, &report, 2);
        let rows = m.snapshot(8).cost_models;
        let models: Vec<(&str, u64)> = rows.iter().map(|r| (r.model.as_str(), r.tunes)).collect();
        assert_eq!(
            models,
            [("analytic", 2), ("roofline", 2)],
            "reporting order"
        );
        // And the wire snapshot round-trips with the new section.
        let snap = m.snapshot(8);
        let text = serde_json::to_string(&snap).unwrap();
        let back: StatsReply = serde_json::from_str(&text).unwrap();
        assert_eq!(back, snap);
        // Old servers omit the section entirely; it decodes as empty.
        let stripped = text.replace(
            &format!(
                "\"cost_models\":{},",
                serde_json::to_string(&snap.cost_models).unwrap()
            ),
            "",
        );
        assert_ne!(stripped, text, "test must actually strip the field");
        let old: StatsReply = serde_json::from_str(&stripped).unwrap();
        assert!(old.cost_models.is_empty());
    }

    #[test]
    fn fleet_stats_decode_from_pre_elastic_peers() {
        let snap = FleetStatsReply {
            shards: vec![
                ShardStats {
                    addr: "a:1".into(),
                    breaker: "closed".into(),
                    peak_cands_per_sec: 100.0,
                    weight_source: "measured".into(),
                    departed: true,
                    ..ShardStats::default()
                },
                ShardStats {
                    addr: "b:2".into(),
                    breaker: "closed".into(),
                    weight_source: "cold".into(),
                    ..ShardStats::default()
                },
            ],
            members: 1,
            membership_epoch: 3,
            joins: 2,
            ..FleetStatsReply::default()
        };
        // Wire compat: a pre-elastic peer omits every new field; the
        // reply still decodes, with defaults.
        let text = serde_json::to_string(&snap).unwrap();
        let back: FleetStatsReply = serde_json::from_str(&text).unwrap();
        assert_eq!(back, snap);
        let mut stripped = text.clone();
        for field in [
            "members",
            "membership_epoch",
            "joins",
            "leaves",
            "cliff_redispatches",
            "departed_redispatches",
        ] {
            let needle = format!(
                "\"{field}\":{},",
                serde_json::to_string(&match field {
                    "members" => snap.members,
                    "membership_epoch" => snap.membership_epoch,
                    "joins" => snap.joins,
                    "leaves" => snap.leaves,
                    "cliff_redispatches" => snap.cliff_redispatches,
                    _ => snap.departed_redispatches,
                })
                .unwrap()
            );
            let next = stripped.replacen(&needle, "", 1);
            assert_ne!(next, stripped, "must strip {field}");
            stripped = next;
        }
        stripped = stripped.replace(",\"departed\":true", "");
        stripped = stripped.replace(",\"departed\":false", "");
        stripped = stripped.replace(",\"weight_source\":\"measured\"", "");
        stripped = stripped.replace(",\"weight_source\":\"cold\"", "");
        let old: FleetStatsReply = serde_json::from_str(&stripped).unwrap();
        assert_eq!(old.members, 0);
        assert_eq!(old.membership_epoch, 0);
        assert_eq!(old.joins, 0);
        assert!(!old.shards[0].departed);
        assert_eq!(old.shards[0].weight_source, "");
    }
}
