//! The in-process metrics registry.
//!
//! Lock-free counters and log₂-bucketed latency histograms, cheap
//! enough to update on every request (a handful of relaxed atomic adds)
//! and snapshotted on demand by the `Stats` endpoint. Quantiles are
//! read from the histogram: bucket *b* covers latencies in
//! `[2^b, 2^(b+1))` nanoseconds, so a reported p99 is exact to within
//! 2× — the right fidelity for tail-latency dashboards, at zero
//! per-request allocation.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fm_core::cost::CostReport;
use fm_costmodel::{CostModelKind, RooflinePoint};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// Number of log₂ latency buckets: covers 1 ns .. ~584 years.
const BUCKETS: usize = 64;

/// A lock-free latency histogram with log₂ buckets.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one sample.
    pub fn record(&self, latency: Duration) {
        let ns = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        let bucket = (63 - ns.max(1).leading_zeros()) as usize;
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The latency at quantile `q` (0 < q ≤ 1), in nanoseconds: the
    /// upper edge of the bucket holding the rank-`⌈q·n⌉` sample,
    /// clamped to the observed maximum. 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (b, slot) in self.buckets.iter().enumerate() {
            seen += slot.load(Ordering::Relaxed);
            if seen >= rank {
                let upper = if b >= 63 { u64::MAX } else { (2u64 << b) - 1 };
                return upper.min(self.max_ns.load(Ordering::Relaxed));
            }
        }
        self.max_ns.load(Ordering::Relaxed)
    }

    fn snapshot(&self) -> LatencyStats {
        let count = self.count();
        let to_us = |ns: u64| ns as f64 / 1e3;
        LatencyStats {
            p50_us: to_us(self.quantile_ns(0.50)),
            p95_us: to_us(self.quantile_ns(0.95)),
            p99_us: to_us(self.quantile_ns(0.99)),
            mean_us: if count == 0 {
                0.0
            } else {
                to_us(self.sum_ns.load(Ordering::Relaxed)) / count as f64
            },
            max_us: to_us(self.max_ns.load(Ordering::Relaxed)),
        }
    }
}

/// Counters for one endpoint.
#[derive(Debug, Default)]
pub struct Endpoint {
    /// Requests received (including ones later refused or failed).
    pub received: AtomicU64,
    /// Requests answered with the endpoint's success response.
    pub completed: AtomicU64,
    /// Requests answered with `Failed`.
    pub failed: AtomicU64,
    /// Admission-to-reply latency of completed requests.
    pub latency: Histogram,
}

impl Endpoint {
    fn snapshot(&self) -> EndpointStats {
        EndpointStats {
            received: self.received.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            latency: self.latency.snapshot(),
        }
    }
}

/// The registry: one [`Endpoint`] per request type plus server-wide
/// gauges. Shared by reference across connection and worker threads.
#[derive(Debug)]
pub struct Metrics {
    started: Instant,
    /// `Tune` endpoint counters.
    pub tune: Endpoint,
    /// `TuneShard` endpoint counters (sub-range work done for a fleet
    /// coordinator).
    pub tune_shard: Endpoint,
    /// `Evaluate` endpoint counters.
    pub evaluate: Endpoint,
    /// `Simulate` endpoint counters.
    pub simulate: Endpoint,
    /// `SessionOpen` endpoint counters.
    pub session_open: Endpoint,
    /// `SessionEdit` endpoint counters.
    pub session_edit: Endpoint,
    /// `SessionTune` endpoint counters.
    pub session_tune: Endpoint,
    /// `SessionClose` endpoint counters.
    pub session_close: Endpoint,
    /// Session-subsystem counters (live graph mutation + warm
    /// re-tuning).
    pub sessions: SessionCounters,
    /// `Stats` endpoint counters.
    pub stats: Endpoint,
    /// `Ping` endpoint counters.
    pub ping: Endpoint,
    /// Current admission-queue depth.
    pub queue_depth: AtomicUsize,
    /// High-water mark of the admission queue.
    pub queue_peak: AtomicUsize,
    /// Requests refused with `Busy`.
    pub busy_rejections: AtomicU64,
    /// Frames that failed to parse (connection then closed).
    pub protocol_errors: AtomicU64,
    /// Requests whose deadline expired before execution started.
    pub deadline_expired: AtomicU64,
    /// Requests cancelled mid-run (deadline or disconnect).
    pub cancelled: AtomicU64,
    /// Tuning-cache hits observed by `Tune`.
    pub cache_hits: AtomicU64,
    /// Tuning-cache misses observed by `Tune`.
    pub cache_misses: AtomicU64,
    /// Tuning-cache stale entries observed by `Tune`.
    pub cache_stale: AtomicU64,
    /// Connections accepted over the server's lifetime.
    pub connections: AtomicU64,
    /// Connections that negotiated the binary pipelined protocol via
    /// `Hello`/`HelloAck` (the rest stayed on blocking JSON).
    pub binary_connections: AtomicU64,
    /// Request frames decoded from JSON text payloads.
    pub json_requests: AtomicU64,
    /// Request frames decoded from binary envelopes.
    pub binary_requests: AtomicU64,
    /// High-water mark of concurrently in-flight requests on any one
    /// connection (admitted or executing, not yet replied); at most 1
    /// on a connection that did not negotiate pipelining.
    pub inflight_peak: AtomicU64,
    /// Dedup batches executed: one queued `Tune` ran on behalf of
    /// itself plus at least one fingerprint-identical waiter.
    pub dedup_batches: AtomicU64,
    /// Queued `Tune` requests answered from another request's search
    /// (the waiters; the requests that never ran their own search).
    pub dedup_waiters_served: AtomicU64,
    /// Streamed `TuneShardPart` frames this server emitted while
    /// working sub-ranges for a fleet coordinator.
    pub tune_shard_parts: AtomicU64,
    /// Per-cost-backend observatory: where each backend's winners land
    /// on the machine roofline, and what they cost.
    pub cost_models: CostModelObservatory,
    /// Fleet-coordinator counters, present only when this server runs
    /// with `--fleet` (set once at startup).
    pub fleet: Mutex<Option<Arc<FleetMetrics>>>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            started: Instant::now(),
            tune: Endpoint::default(),
            tune_shard: Endpoint::default(),
            evaluate: Endpoint::default(),
            simulate: Endpoint::default(),
            session_open: Endpoint::default(),
            session_edit: Endpoint::default(),
            session_tune: Endpoint::default(),
            session_close: Endpoint::default(),
            sessions: SessionCounters::default(),
            stats: Endpoint::default(),
            ping: Endpoint::default(),
            queue_depth: AtomicUsize::new(0),
            queue_peak: AtomicUsize::new(0),
            busy_rejections: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            cache_stale: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            binary_connections: AtomicU64::new(0),
            json_requests: AtomicU64::new(0),
            binary_requests: AtomicU64::new(0),
            inflight_peak: AtomicU64::new(0),
            dedup_batches: AtomicU64::new(0),
            dedup_waiters_served: AtomicU64::new(0),
            tune_shard_parts: AtomicU64::new(0),
            cost_models: CostModelObservatory::default(),
            fleet: Mutex::new(None),
        }
    }
}

impl Metrics {
    /// The endpoint record for a request kind (by wire name).
    pub fn endpoint(&self, name: &str) -> &Endpoint {
        match name {
            "tune" => &self.tune,
            "tune_shard" => &self.tune_shard,
            "evaluate" => &self.evaluate,
            "simulate" => &self.simulate,
            "session_open" => &self.session_open,
            "session_edit" => &self.session_edit,
            "session_tune" => &self.session_tune,
            "session_close" => &self.session_close,
            "stats" => &self.stats,
            _ => &self.ping,
        }
    }

    /// Record a queue push, maintaining the depth gauge and peak.
    pub fn queue_pushed(&self, depth_after: usize) {
        self.queue_depth.store(depth_after, Ordering::Relaxed);
        self.queue_peak.fetch_max(depth_after, Ordering::Relaxed);
    }

    /// Record a queue pop.
    pub fn queue_popped(&self, depth_after: usize) {
        self.queue_depth.store(depth_after, Ordering::Relaxed);
    }

    /// Snapshot everything into the `Stats` wire reply.
    pub fn snapshot(&self, queue_capacity: usize) -> StatsReply {
        StatsReply {
            uptime_ms: self.started.elapsed().as_secs_f64() * 1e3,
            connections: self.connections.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed) as u64,
            queue_peak: self.queue_peak.load(Ordering::Relaxed) as u64,
            queue_capacity: queue_capacity as u64,
            busy_rejections: self.busy_rejections.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            deadline_expired: self.deadline_expired.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            cache_stale: self.cache_stale.load(Ordering::Relaxed),
            binary_connections: self.binary_connections.load(Ordering::Relaxed),
            json_requests: self.json_requests.load(Ordering::Relaxed),
            binary_requests: self.binary_requests.load(Ordering::Relaxed),
            inflight_peak: self.inflight_peak.load(Ordering::Relaxed),
            dedup_batches: self.dedup_batches.load(Ordering::Relaxed),
            dedup_waiters_served: self.dedup_waiters_served.load(Ordering::Relaxed),
            tune_shard_parts: self.tune_shard_parts.load(Ordering::Relaxed),
            tune: self.tune.snapshot(),
            tune_shard: self.tune_shard.snapshot(),
            evaluate: self.evaluate.snapshot(),
            simulate: self.simulate.snapshot(),
            session_open: self.session_open.snapshot(),
            session_edit: self.session_edit.snapshot(),
            session_tune: self.session_tune.snapshot(),
            session_close: self.session_close.snapshot(),
            sessions: self.sessions.snapshot(),
            stats: self.stats.snapshot(),
            ping: self.ping.snapshot(),
            cost_models: self.cost_models.snapshot(),
            fleet: self.fleet.lock().as_ref().map(|f| f.snapshot()),
        }
    }

    /// Install the fleet-coordinator registry (once, at server start).
    pub fn set_fleet(&self, fleet: Arc<FleetMetrics>) {
        *self.fleet.lock() = Some(fleet);
    }
}

/// Lock-free counters for the session subsystem (live graph mutation
/// plus warm incremental re-tuning; see `crate::session`).
#[derive(Debug, Default)]
pub struct SessionCounters {
    /// Sessions currently held (gauge: opened − closed − evicted).
    pub open: AtomicU64,
    /// Sessions opened over the server's lifetime.
    pub opened: AtomicU64,
    /// Sessions closed by their client.
    pub closed: AtomicU64,
    /// Sessions evicted by the idle-TTL sweeper.
    pub evicted: AtomicU64,
    /// Typed `NoSuchSession` replies sent (requests naming unknown or
    /// evicted sessions).
    pub no_such: AtomicU64,
    /// Individual edits applied across all sessions.
    pub edits_applied: AtomicU64,
    /// Edit batches applied (each bumps one session's epoch).
    pub edit_batches: AtomicU64,
    /// Total dirty-cone size across all applied edits — nodes the
    /// incremental repairer touched. The mean cone
    /// (`dirty_cone_total / edits_applied`) is the session subsystem's
    /// headline: how much smaller than O(V + E) an edit really is.
    pub dirty_cone_total: AtomicU64,
    /// Session tunes that ran fully warm (every candidate repaired,
    /// none rebuilt from scratch).
    pub warm_tunes: AtomicU64,
    /// Session tunes in which at least one candidate fell back to a
    /// cold rebuild.
    pub cold_tunes: AtomicU64,
    /// Individual candidate cold rebuilds across all session tunes.
    pub cold_rebuilds: AtomicU64,
}

impl SessionCounters {
    fn snapshot(&self) -> SessionStatsReply {
        let edits = self.edits_applied.load(Ordering::Relaxed);
        let cone = self.dirty_cone_total.load(Ordering::Relaxed);
        SessionStatsReply {
            open: self.open.load(Ordering::Relaxed),
            opened: self.opened.load(Ordering::Relaxed),
            closed: self.closed.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            no_such: self.no_such.load(Ordering::Relaxed),
            edits_applied: edits,
            edit_batches: self.edit_batches.load(Ordering::Relaxed),
            warm_tunes: self.warm_tunes.load(Ordering::Relaxed),
            cold_tunes: self.cold_tunes.load(Ordering::Relaxed),
            cold_rebuilds: self.cold_rebuilds.load(Ordering::Relaxed),
            mean_dirty_cone: if edits == 0 {
                0.0
            } else {
                cone as f64 / edits as f64
            },
        }
    }
}

/// Wire snapshot of the session subsystem's counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

/// Relaxed atomic add for an `f64` stored as bits. Contended adds
/// retry; no observation is lost, and the value is never torn.
fn add_f64(cell: &AtomicU64, v: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + v).to_bits();
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// Lock-free counters for one cost backend's winning mappings.
#[derive(Debug, Default)]
pub struct CostModelCounters {
    /// Tunes whose winner was charged under this backend.
    tunes: AtomicU64,
    /// Winners whose binding roof was the compute ceiling.
    compute_bound: AtomicU64,
    /// Winners bound by on-chip (NoC) bandwidth.
    onchip_bound: AtomicU64,
    /// Winners bound by off-chip (memory) bandwidth.
    offchip_bound: AtomicU64,
    /// Σ off-chip operational intensity (ops/bit), as f64 bits.
    intensity_offchip_sum: AtomicU64,
    /// Σ achieved throughput (ops/ps), as f64 bits.
    achieved_sum: AtomicU64,
    /// Σ winner energy (fJ), as f64 bits.
    energy_fj_sum: AtomicU64,
    /// Σ winner schedule time (ps), as f64 bits.
    time_ps_sum: AtomicU64,
}

impl CostModelCounters {
    fn snapshot(&self, model: CostModelKind) -> CostModelStatsReply {
        let tunes = self.tunes.load(Ordering::Relaxed);
        let mean = |bits: &AtomicU64| {
            if tunes == 0 {
                0.0
            } else {
                f64::from_bits(bits.load(Ordering::Relaxed)) / tunes as f64
            }
        };
        CostModelStatsReply {
            model: model.name().to_string(),
            tunes,
            compute_bound: self.compute_bound.load(Ordering::Relaxed),
            onchip_bound: self.onchip_bound.load(Ordering::Relaxed),
            offchip_bound: self.offchip_bound.load(Ordering::Relaxed),
            mean_intensity_offchip: mean(&self.intensity_offchip_sum),
            mean_achieved_ops_per_ps: mean(&self.achieved_sum),
            total_energy_fj: f64::from_bits(self.energy_fj_sum.load(Ordering::Relaxed)),
            total_time_ps: f64::from_bits(self.time_ps_sum.load(Ordering::Relaxed)),
        }
    }
}

/// The roofline observatory: one [`CostModelCounters`] per backend.
///
/// Every completed tune drops its winner's [`RooflinePoint`] and cost
/// report here, keyed by the backend that charged it, so `Stats` can
/// answer "what did each cost model steer searches toward?" — e.g. the
/// roofline backend's winners skewing compute-bound while analytic
/// winners sit against the off-chip roof.
#[derive(Debug, Default)]
pub struct CostModelObservatory {
    analytic: CostModelCounters,
    roofline: CostModelCounters,
    spatial: CostModelCounters,
}

impl CostModelObservatory {
    fn slot(&self, kind: CostModelKind) -> &CostModelCounters {
        match kind {
            CostModelKind::Analytic => &self.analytic,
            CostModelKind::Roofline => &self.roofline,
            CostModelKind::Spatial => &self.spatial,
        }
    }

    /// Record one tune's winning mapping under the backend that scored
    /// it.
    pub fn observe(&self, kind: CostModelKind, point: &RooflinePoint, report: &CostReport) {
        let c = self.slot(kind);
        c.tunes.fetch_add(1, Ordering::Relaxed);
        let tally = match point.bound.as_str() {
            "compute" => &c.compute_bound,
            "onchip-bw" => &c.onchip_bound,
            _ => &c.offchip_bound,
        };
        tally.fetch_add(1, Ordering::Relaxed);
        add_f64(&c.intensity_offchip_sum, point.intensity_offchip);
        add_f64(&c.achieved_sum, point.achieved);
        add_f64(&c.energy_fj_sum, report.energy().raw());
        add_f64(&c.time_ps_sum, report.time_ps.raw());
    }

    /// Snapshot the backends that have observed at least one tune, in
    /// [`CostModelKind::ALL`] order.
    pub fn snapshot(&self) -> Vec<CostModelStatsReply> {
        CostModelKind::ALL
            .iter()
            .map(|&k| self.slot(k).snapshot(k))
            .filter(|s| s.tunes > 0)
            .collect()
    }
}

/// Wire snapshot of one cost backend's observatory counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

/// Breaker-state gauge values (stored in [`ShardMetrics::state`]).
pub mod breaker_state {
    /// Circuit closed: requests flow.
    pub const CLOSED: u8 = 0;
    /// Circuit open: the shard is quarantined until its cooldown ends.
    pub const OPEN: u8 = 1;
    /// Half-open: one probe in flight decides the next state.
    pub const HALF_OPEN: u8 = 2;
}

/// Where a shard's partitioning weight came from (gauge values stored
/// in [`ShardMetrics`]; surfaced as a string in [`ShardStats`]).
pub mod weight_source {
    /// No throughput information at all.
    pub const COLD: u8 = 0;
    /// Seeded from the crash-persistent weight ledger — believed, not
    /// yet re-confirmed by a live sample.
    pub const PERSISTED: u8 = 1;
    /// At least one live throughput sample this process lifetime.
    pub const MEASURED: u8 = 2;
}

/// Lock-free counters for one shard in the fleet pool.
#[derive(Debug)]
pub struct ShardMetrics {
    /// The shard's address, as configured.
    pub addr: String,
    /// Attempts sent to this shard (including hedges and probes).
    pub sends: AtomicU64,
    /// Attempts that returned a verified, complete reply.
    pub successes: AtomicU64,
    /// Attempts that failed (transport, refusal, or discarded reply).
    pub failures: AtomicU64,
    /// Times this shard's breaker transitioned Closed/HalfOpen → Open.
    pub breaker_opens: AtomicU64,
    /// Times the throughput-cliff detector fired a re-dispatch off
    /// this shard; drives cliff quarantine.
    pub cliff_trips: AtomicU64,
    /// Current breaker state gauge (see [`breaker_state`]).
    pub state: AtomicU8,
    /// Streamed parts merged from this shard.
    pub parts: AtomicU64,
    /// Set while the shard is out of the live roster (`ShardLeave`);
    /// in-flight attempts watch it and abandon so the coordinator can
    /// re-dispatch their suffix immediately. Cleared on rejoin.
    pub departed: AtomicBool,
    /// EWMA of this shard's observed throughput in candidates/second,
    /// stored as `f64` bits so frame-arrival observers stay lock-free.
    /// 0.0 means cold (no observation yet) — the weighted partitioner
    /// then substitutes the warm shards' mean, or an equal split when
    /// every shard is cold.
    ewma_rate_bits: AtomicU64,
    /// Trailing peak of the EWMA (`f64` bits, monotone via `fetch_max`
    /// — valid because IEEE ordering equals integer ordering for
    /// positive floats). The cliff detector compares the live EWMA
    /// against a configured fraction of this.
    peak_rate_bits: AtomicU64,
    /// [`weight_source`] gauge for the current EWMA value.
    source: AtomicU8,
    /// Fleet-tune generation of the last *fresh* (live) sample; drives
    /// staleness decay of persisted weights.
    last_sample_gen: AtomicU64,
}

/// EWMA smoothing factor for per-shard throughput: each new
/// observation contributes 30%, so one slow frame dents but does not
/// erase a shard's history, and a genuinely slow shard converges to
/// its true rate within a few frames.
pub const EWMA_ALPHA: f64 = 0.3;

impl ShardMetrics {
    /// Fresh counters for one shard address.
    pub fn new(addr: String) -> ShardMetrics {
        ShardMetrics {
            addr,
            sends: AtomicU64::new(0),
            successes: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            breaker_opens: AtomicU64::new(0),
            cliff_trips: AtomicU64::new(0),
            state: AtomicU8::new(breaker_state::CLOSED),
            parts: AtomicU64::new(0),
            departed: AtomicBool::new(false),
            ewma_rate_bits: AtomicU64::new(0.0f64.to_bits()),
            peak_rate_bits: AtomicU64::new(0.0f64.to_bits()),
            source: AtomicU8::new(weight_source::COLD),
            last_sample_gen: AtomicU64::new(0),
        }
    }

    /// Fold one throughput observation (`candidates` evaluated in
    /// `elapsed` of shard wall time) into the EWMA. Observations of
    /// zero duration or zero candidates carry no rate and are ignored.
    /// Also advances the trailing peak and marks the weight measured.
    pub fn observe_rate(&self, candidates: u64, elapsed: Duration) {
        let secs = elapsed.as_secs_f64();
        if candidates == 0 || secs <= 0.0 {
            return;
        }
        let rate = candidates as f64 / secs;
        // Lossy read-modify-write: racing observers may each fold
        // against the same prior value and one update wins. That loses
        // an observation, never corrupts the value — fine for a
        // load-balancing hint.
        let prev = f64::from_bits(self.ewma_rate_bits.load(Ordering::Relaxed));
        let next = if prev <= 0.0 {
            rate
        } else {
            EWMA_ALPHA * rate + (1.0 - EWMA_ALPHA) * prev
        };
        self.ewma_rate_bits.store(next.to_bits(), Ordering::Relaxed);
        // Positive f64 bits order like integers, so fetch_max works.
        self.peak_rate_bits
            .fetch_max(next.to_bits(), Ordering::Relaxed);
        self.source
            .store(weight_source::MEASURED, Ordering::Relaxed);
    }

    /// The current EWMA throughput in candidates/second (0.0 = cold).
    pub fn ewma_rate(&self) -> f64 {
        f64::from_bits(self.ewma_rate_bits.load(Ordering::Relaxed))
    }

    /// Trailing peak of the EWMA (candidates/second; 0.0 = cold).
    pub fn peak_rate(&self) -> f64 {
        f64::from_bits(self.peak_rate_bits.load(Ordering::Relaxed))
    }

    /// Has this shard's throughput — the lower of its EWMA and
    /// `implied`, the rate a stalled watermark implies — collapsed below
    /// `fraction` of its trailing peak? False while cold (no peak to
    /// collapse from); `fraction` 0 disables the check.
    pub fn in_cliff(&self, fraction: f64, implied: f64) -> bool {
        let ewma = self.ewma_rate();
        let peak = self.peak_rate();
        fraction > 0.0 && ewma > 0.0 && peak > 0.0 && ewma.min(implied) < fraction * peak
    }

    /// Seed EWMA + peak from a persisted ledger entry (start-up only;
    /// non-finite or non-positive rates are ignored).
    pub fn seed_persisted(&self, ewma: f64, peak: f64, generation: u64) {
        if !ewma.is_finite() || ewma <= 0.0 {
            return;
        }
        self.ewma_rate_bits.store(ewma.to_bits(), Ordering::Relaxed);
        let peak = if peak.is_finite() {
            peak.max(ewma)
        } else {
            ewma
        };
        self.peak_rate_bits.store(peak.to_bits(), Ordering::Relaxed);
        self.last_sample_gen.store(generation, Ordering::Relaxed);
        self.source
            .store(weight_source::PERSISTED, Ordering::Relaxed);
    }

    /// Record that a fresh (live) sample landed at fleet-tune
    /// generation `generation`.
    pub fn mark_fresh(&self, generation: u64) {
        self.last_sample_gen.store(generation, Ordering::Relaxed);
    }

    /// Fleet-tune generation of the last fresh sample.
    pub fn sample_gen(&self) -> u64 {
        self.last_sample_gen.load(Ordering::Relaxed)
    }

    /// Whether the shard is currently out of the live roster.
    pub fn is_departed(&self) -> bool {
        self.departed.load(Ordering::Acquire)
    }

    /// Flag the shard departed (true) or revived (false).
    pub fn set_departed(&self, departed: bool) {
        self.departed.store(departed, Ordering::Release);
    }

    /// The weight-source gauge as its wire string.
    pub fn source_name(&self) -> &'static str {
        match self.source.load(Ordering::Relaxed) {
            weight_source::PERSISTED => "persisted",
            weight_source::MEASURED => "measured",
            _ => "cold",
        }
    }

    fn snapshot(&self) -> ShardStats {
        ShardStats {
            addr: self.addr.clone(),
            sends: self.sends.load(Ordering::Relaxed),
            successes: self.successes.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
            breaker_opens: self.breaker_opens.load(Ordering::Relaxed),
            cliff_trips: self.cliff_trips.load(Ordering::Relaxed),
            breaker: match self.state.load(Ordering::Relaxed) {
                breaker_state::OPEN => "open",
                breaker_state::HALF_OPEN => "half-open",
                _ => "closed",
            }
            .to_string(),
            parts: self.parts.load(Ordering::Relaxed),
            ewma_cands_per_sec: self.ewma_rate(),
            peak_cands_per_sec: self.peak_rate(),
            weight_source: self.source_name().to_string(),
            departed: self.is_departed(),
        }
    }
}

/// The fleet coordinator's registry: per-shard counters plus
/// fleet-wide robustness counters. Shared between the coordinator's
/// dispatch threads and the `Stats` endpoint.
///
/// The shard table is growable: elastic membership registers shards as
/// they join, and a shard that leaves keeps its row (flagged departed)
/// so its learned throughput survives a rejoin and the history stays
/// visible in `Stats`. Rows are keyed by address — rejoining revives
/// the existing row, so churn cannot grow the table without bound.
#[derive(Debug)]
pub struct FleetMetrics {
    /// Per-shard counters, in registration order (live and departed).
    shards: Mutex<Vec<Arc<ShardMetrics>>>,
    /// Live members of the fleet roster (gauge).
    pub members: AtomicU64,
    /// Membership epoch (gauge): bumps on every effective join/leave.
    pub membership_epoch: AtomicU64,
    /// Effective `ShardJoin` admissions (idempotent repeats excluded).
    pub joins: AtomicU64,
    /// Effective `ShardLeave` retirements (idempotent repeats
    /// excluded).
    pub leaves: AtomicU64,
    /// Suffix re-dispatches fired by the throughput-cliff detector
    /// (EWMA collapsed below the configured fraction of the trailing
    /// peak while the range watermark stalled).
    pub cliff_redispatches: AtomicU64,
    /// Shards quarantined (breaker tripped open) for repeatedly
    /// firing the cliff detector.
    pub cliff_quarantines: AtomicU64,
    /// Suffix re-dispatches fired because the attempt's shard left the
    /// roster mid-range.
    pub departed_redispatches: AtomicU64,
    /// Tunes routed through the fleet path.
    pub fleet_tunes: AtomicU64,
    /// Retry waves: attempts a range sent once every attempt of its
    /// previous wave had failed.
    pub retries: AtomicU64,
    /// Hedged duplicate requests launched for straggler shards.
    pub hedges: AtomicU64,
    /// Hedges whose reply arrived (valid) before the primary's.
    pub hedge_wins: AtomicU64,
    /// Replies discarded for a checksum mismatch (corrupt frames).
    pub corrupt_discarded: AtomicU64,
    /// Replies discarded for an epoch mismatch (stale frames).
    pub stale_discarded: AtomicU64,
    /// Replies discarded as incomplete (shard stopped mid-range).
    pub incomplete_discarded: AtomicU64,
    /// Sub-ranges that ran on a shard other than their first choice.
    pub reassignments: AtomicU64,
    /// Sub-ranges that fell back to local evaluation after every shard
    /// path failed.
    pub local_fallback_ranges: AtomicU64,
    /// Tunes in which *every* sub-range fell back locally (the fleet
    /// was effectively down; the answer is still exact).
    pub degraded_tunes: AtomicU64,
    /// Streamed parts verified and merged into range progress.
    pub parts_merged: AtomicU64,
    /// Streamed parts discarded (bad checksum, stale epoch, or not
    /// contiguous with the range's covered watermark).
    pub parts_discarded: AtomicU64,
    /// Re-dispatches (of any reason) that sent only a range's
    /// unfinished *suffix* (streamed progress made the prefix safe).
    pub suffix_redispatches: AtomicU64,
    /// Candidates whose evaluation was **not** repeated because a
    /// failed or abandoned attempt had already streamed them back —
    /// the work a blocking protocol would have thrown away.
    pub prefix_candidates_saved: AtomicU64,
}

impl FleetMetrics {
    /// Fresh counters; shards register as membership admits them.
    pub fn new() -> FleetMetrics {
        FleetMetrics {
            shards: Mutex::new(Vec::new()),
            members: AtomicU64::new(0),
            membership_epoch: AtomicU64::new(0),
            joins: AtomicU64::new(0),
            leaves: AtomicU64::new(0),
            cliff_redispatches: AtomicU64::new(0),
            cliff_quarantines: AtomicU64::new(0),
            departed_redispatches: AtomicU64::new(0),
            fleet_tunes: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            hedges: AtomicU64::new(0),
            hedge_wins: AtomicU64::new(0),
            corrupt_discarded: AtomicU64::new(0),
            stale_discarded: AtomicU64::new(0),
            incomplete_discarded: AtomicU64::new(0),
            reassignments: AtomicU64::new(0),
            local_fallback_ranges: AtomicU64::new(0),
            degraded_tunes: AtomicU64::new(0),
            parts_merged: AtomicU64::new(0),
            parts_discarded: AtomicU64::new(0),
            suffix_redispatches: AtomicU64::new(0),
            prefix_candidates_saved: AtomicU64::new(0),
        }
    }

    /// The counter row for `addr`, creating (or reviving) it. The row
    /// is shared: a member built over it sees the history a previous
    /// incarnation of the same address accumulated.
    pub fn register(&self, addr: &str) -> Arc<ShardMetrics> {
        let mut shards = self.shards.lock();
        if let Some(existing) = shards.iter().find(|s| s.addr == addr) {
            return Arc::clone(existing);
        }
        let fresh = Arc::new(ShardMetrics::new(addr.to_string()));
        shards.push(Arc::clone(&fresh));
        fresh
    }

    /// Every registered shard row (live and departed), in registration
    /// order.
    pub fn shard_metrics(&self) -> Vec<Arc<ShardMetrics>> {
        self.shards.lock().clone()
    }

    /// Snapshot into the wire shape.
    pub fn snapshot(&self) -> FleetStatsReply {
        FleetStatsReply {
            shards: self.shards.lock().iter().map(|s| s.snapshot()).collect(),
            members: self.members.load(Ordering::Relaxed),
            membership_epoch: self.membership_epoch.load(Ordering::Relaxed),
            joins: self.joins.load(Ordering::Relaxed),
            leaves: self.leaves.load(Ordering::Relaxed),
            cliff_redispatches: self.cliff_redispatches.load(Ordering::Relaxed),
            cliff_quarantines: self.cliff_quarantines.load(Ordering::Relaxed),
            departed_redispatches: self.departed_redispatches.load(Ordering::Relaxed),
            fleet_tunes: self.fleet_tunes.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            hedges: self.hedges.load(Ordering::Relaxed),
            hedge_wins: self.hedge_wins.load(Ordering::Relaxed),
            corrupt_discarded: self.corrupt_discarded.load(Ordering::Relaxed),
            stale_discarded: self.stale_discarded.load(Ordering::Relaxed),
            incomplete_discarded: self.incomplete_discarded.load(Ordering::Relaxed),
            reassignments: self.reassignments.load(Ordering::Relaxed),
            local_fallback_ranges: self.local_fallback_ranges.load(Ordering::Relaxed),
            degraded_tunes: self.degraded_tunes.load(Ordering::Relaxed),
            parts_merged: self.parts_merged.load(Ordering::Relaxed),
            parts_discarded: self.parts_discarded.load(Ordering::Relaxed),
            suffix_redispatches: self.suffix_redispatches.load(Ordering::Relaxed),
            prefix_candidates_saved: self.prefix_candidates_saved.load(Ordering::Relaxed),
        }
    }
}

impl Default for FleetMetrics {
    fn default() -> Self {
        FleetMetrics::new()
    }
}

/// Wire snapshot of one shard's counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
        let h = Histogram::default();
        for ms in 1..=100u64 {
            h.record(Duration::from_millis(ms));
        }
        assert_eq!(h.count(), 100);
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
        let s = h.snapshot();
        assert_eq!(s.mean_us, 0.0);
        assert_eq!(s.max_us, 0.0);
    }

    #[test]
    fn single_sample_all_quantiles_equal_it() {
        let h = Histogram::default();
        h.record(Duration::from_micros(7));
        for q in [0.01, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile_ns(q), 7_000);
        }
    }

    #[test]
    fn snapshot_serializes_and_round_trips() {
        let m = Metrics::default();
        m.tune.received.fetch_add(3, Ordering::Relaxed);
        m.tune.completed.fetch_add(2, Ordering::Relaxed);
        m.tune.latency.record(Duration::from_millis(5));
        m.queue_pushed(2);
        m.queue_popped(1);
        let snap = m.snapshot(8);
        assert_eq!(snap.queue_capacity, 8);
        assert_eq!(snap.queue_peak, 2);
        assert_eq!(snap.queue_depth, 1);
        let text = serde_json::to_string(&snap).unwrap();
        let back: StatsReply = serde_json::from_str(&text).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn ewma_rate_warms_up_and_tracks_observations() {
        let s = ShardMetrics::new("127.0.0.1:1".into());
        assert_eq!(s.ewma_rate(), 0.0, "cold shard reports 0");
        // Degenerate observations carry no rate.
        s.observe_rate(0, Duration::from_millis(10));
        s.observe_rate(5, Duration::ZERO);
        assert_eq!(s.ewma_rate(), 0.0);
        // First real observation seeds the EWMA directly.
        s.observe_rate(100, Duration::from_secs(1));
        assert!((s.ewma_rate() - 100.0).abs() < 1e-9);
        // Subsequent observations blend with weight EWMA_ALPHA.
        s.observe_rate(200, Duration::from_secs(1));
        let want = EWMA_ALPHA * 200.0 + (1.0 - EWMA_ALPHA) * 100.0;
        assert!((s.ewma_rate() - want).abs() < 1e-9);
        // Repeated identical observations converge to that rate.
        for _ in 0..64 {
            s.observe_rate(50, Duration::from_secs(1));
        }
        assert!((s.ewma_rate() - 50.0).abs() < 1.0);
    }

    #[test]
    fn peak_is_monotone_and_cliff_detector_fires_on_collapse() {
        let no_stall = f64::INFINITY;
        let s = ShardMetrics::new("127.0.0.1:1".into());
        assert!(!s.in_cliff(0.5, no_stall), "cold shard is never in a cliff");
        assert!(!s.in_cliff(0.5, 1.0), "nor is a cold shard that stalls");
        s.observe_rate(1000, Duration::from_secs(1));
        assert!((s.peak_rate() - 1000.0).abs() < 1e-9);
        assert!(!s.in_cliff(0.5, no_stall), "at peak is not a cliff");
        // A stall at peak EWMA: the implied rate alone fires it.
        assert!(s.in_cliff(0.5, 40.0));
        assert!(
            !s.in_cliff(0.5, 600.0),
            "a stall that implies half the peak does not"
        );
        // Collapse: repeated slow observations drag the EWMA down; the
        // peak holds, so the detector fires once past the fraction.
        for _ in 0..16 {
            s.observe_rate(10, Duration::from_secs(1));
        }
        assert!((s.peak_rate() - 1000.0).abs() < 1e-9, "peak is monotone");
        assert!(s.ewma_rate() < 100.0);
        assert!(s.in_cliff(0.5, no_stall));
        assert!(!s.in_cliff(0.0, no_stall), "fraction 0 disables detection");
        assert!(!s.in_cliff(0.0, 1.0), "whatever the stall");
    }

    #[test]
    fn fleet_registry_grows_revives_and_strips_for_old_peers() {
        let f = FleetMetrics::new();
        assert!(f.shard_metrics().is_empty());
        let a = f.register("a:1");
        let a2 = f.register("a:1");
        assert!(Arc::ptr_eq(&a, &a2), "same address, same row");
        f.register("b:2");
        assert_eq!(f.shard_metrics().len(), 2);
        a.observe_rate(100, Duration::from_secs(1));
        a.set_departed(true);
        f.members.store(1, Ordering::Relaxed);
        f.membership_epoch.store(3, Ordering::Relaxed);
        f.joins.fetch_add(2, Ordering::Relaxed);
        let snap = f.snapshot();
        assert_eq!(snap.shards.len(), 2);
        assert!(snap.shards[0].departed);
        assert_eq!(snap.shards[0].weight_source, "measured");
        assert!(snap.shards[0].peak_cands_per_sec > 0.0);
        assert_eq!(snap.members, 1);
        assert_eq!(snap.membership_epoch, 3);
        assert_eq!(snap.joins, 2);
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

    #[test]
    fn cost_model_observatory_tallies_winners() {
        use fm_costmodel::{EnergyLedger, Picoseconds};
        let m = Metrics::default();
        assert!(
            m.snapshot(8).cost_models.is_empty(),
            "no rows before any tune"
        );
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
        m.cost_models
            .observe(CostModelKind::Roofline, &point, &report);
        m.cost_models
            .observe(CostModelKind::Roofline, &point, &report);
        let rows = m.snapshot(8).cost_models;
        assert_eq!(rows.len(), 1, "only the observed backend appears");
        assert_eq!(rows[0].model, "roofline");
        assert_eq!(rows[0].tunes, 2);
        assert_eq!(rows[0].offchip_bound, 2);
        assert_eq!(rows[0].compute_bound, 0);
        assert!((rows[0].mean_intensity_offchip - 2.0).abs() < 1e-12);
        assert!((rows[0].total_time_ps - 4000.0).abs() < 1e-9);
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
    fn queue_peak_is_monotone() {
        let m = Metrics::default();
        m.queue_pushed(5);
        m.queue_popped(4);
        m.queue_pushed(5);
        m.queue_popped(0);
        assert_eq!(m.queue_peak.load(Ordering::Relaxed), 5);
        assert_eq!(m.queue_depth.load(Ordering::Relaxed), 0);
    }
}
