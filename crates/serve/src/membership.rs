//! Elastic fleet membership: the live shard roster, membership epochs,
//! and the crash-persistent weight ledger.
//!
//! The fleet coordinator used to freeze its shard pool at startup; this
//! module makes the pool a *living roster*. Shards join and leave a
//! running fleet via `ShardJoin`/`ShardLeave` protocol frames; every
//! change bumps a **membership epoch** surfaced in `Stats`, new members
//! become eligible for the next partition and for suffix re-dispatch,
//! and a departed member's in-flight ranges are re-dispatched from
//! their covered watermark the moment its departure is noticed.
//!
//! Identity is the configured address string. A member that leaves and
//! later rejoins under the same address is **revived**, not recreated:
//! its [`ShardMetrics`] entry (EWMA throughput, trailing peak, breaker
//! history) survives in the registry, so a brief departure does not
//! reset what the coordinator learned about the machine — and the
//! registry stays bounded under join/leave churn instead of growing a
//! fresh entry per flap.
//!
//! **The weight ledger** makes learned throughput survive coordinator
//! *restarts* too. After every fleet tune the per-shard EWMA, trailing
//! peak, and breaker state serialize to a small versioned JSON document
//! (temp-file + rename, same corrupt/stale-tolerant discipline as the
//! autotune cache: any read failure, malformed byte, or schema-version
//! mismatch degrades to a cold start, never an error). A restarted
//! coordinator therefore partitions its first tune *weighted*.
//!
//! **Staleness decay** guards the other direction: a persisted weight
//! describes the machine as it was. Entries carry a timestamp-free
//! *generation* counter (fleet tunes observed when the sample was
//! taken); over `decay_after` tunes without a fresh sample (64 in the
//! fleet) a member's weight blends linearly toward the fresh members'
//! mean and then reads cold, so a machine whose performance changed
//! since the last run cannot permanently skew partitioning.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::metrics::{breaker_state, FleetMetrics, ShardMetrics};

/// Bump when the ledger layout changes; old ledgers then read as cold.
pub const LEDGER_SCHEMA_VERSION: u32 = 1;

/// One shard's persisted weight record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LedgerEntry {
    /// The shard's address, as configured.
    pub addr: String,
    /// EWMA throughput at persist time (candidates/second).
    pub ewma_cands_per_sec: f64,
    /// Trailing peak throughput at persist time (candidates/second).
    pub peak_cands_per_sec: f64,
    /// Whether the breaker was open at persist time. A restarted
    /// coordinator re-opens it for one cooldown rather than trusting a
    /// shard that was misbehaving when the ledger was written.
    pub breaker_open: bool,
    /// Fleet-tune generation of this entry's last fresh sample (drives
    /// staleness decay; deliberately not a wall-clock timestamp).
    pub generation: u64,
}

/// The persisted weight ledger: schema version, the coordinator's
/// fleet-tune generation counter, and one entry per shard that ever
/// produced a throughput sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LedgerDoc {
    /// Schema version ([`LEDGER_SCHEMA_VERSION`] at write time).
    pub version: u32,
    /// Fleet-tune generation at persist time; restarts resume counting
    /// from here so staleness keeps accruing across process lifetimes.
    pub generation: u64,
    /// Per-shard weight records.
    pub entries: Vec<LedgerEntry>,
}

/// Read a ledger. Missing file, unreadable bytes, malformed JSON, or a
/// schema-version mismatch all return `None` — a cold start, never an
/// error.
pub fn load_ledger(path: &Path) -> Option<LedgerDoc> {
    let text = std::fs::read_to_string(path).ok()?;
    let doc: LedgerDoc = serde_json::from_str(&text).ok()?;
    if doc.version != LEDGER_SCHEMA_VERSION {
        return None;
    }
    Some(doc)
}

/// Write a ledger via a sibling temp file and rename, so a crash
/// mid-write leaves the previous ledger intact under the final name.
pub fn store_ledger(path: &Path, doc: &LedgerDoc) -> std::io::Result<()> {
    use std::io::Write as _;
    let tmp = path.with_extension("json.tmp");
    let text =
        serde_json::to_string_pretty(doc).map_err(|e| std::io::Error::other(e.to_string()))?;
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// Circuit-breaker state for one member.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Breaker {
    /// Requests flow; counts consecutive failures.
    Closed { consecutive_failures: u32 },
    /// Quarantined until the cooldown instant.
    Open { until: Instant },
    /// One probe is in flight; its outcome decides the next state.
    HalfOpen,
}

/// One live fleet member: its address, its (revivable) metrics entry,
/// and its link-health state. Attempt threads hold an `Arc<Member>`
/// snapshot, so a member leaving mid-attempt never invalidates the
/// handle — the attempt just notices the departed flag and abandons.
pub struct Member {
    addr: String,
    /// Counters + EWMA/peak throughput; shared with the registry so a
    /// rejoin under the same address revives the history.
    pub(crate) metrics: Arc<ShardMetrics>,
    pub(crate) breaker: Mutex<Breaker>,
    /// Latched when the shard rejected a binary request with a
    /// protocol failure: it predates the envelope, so every later
    /// attempt speaks JSON. Never unlatched — a fleet member does not
    /// upgrade mid-flight.
    pub(crate) json_only: AtomicBool,
}

impl Member {
    fn new(addr: String, metrics: Arc<ShardMetrics>) -> Arc<Member> {
        Arc::new(Member {
            addr,
            metrics,
            breaker: Mutex::new(Breaker::Closed {
                consecutive_failures: 0,
            }),
            json_only: AtomicBool::new(false),
        })
    }

    /// The member's address, as configured.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Move the breaker (held locked as `b`) to `to`, and its `Stats`
    /// gauge with it.
    pub(crate) fn set_breaker(&self, b: &mut Breaker, to: Breaker) {
        let gauge = match to {
            Breaker::Closed { .. } => breaker_state::CLOSED,
            Breaker::Open { .. } => breaker_state::OPEN,
            Breaker::HalfOpen => breaker_state::HALF_OPEN,
        };
        *b = to;
        self.metrics.state.store(gauge, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for Member {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Member").field("addr", &self.addr).finish()
    }
}

/// The living roster. One per [`Fleet`](crate::fleet::Fleet), shared
/// across worker threads.
pub struct Membership {
    /// Membership epoch: starts at 1, bumps on every effective join or
    /// leave. Distinct from the per-tune epoch stamped into frames.
    epoch: AtomicU64,
    /// Fleet-tune generation counter (drives weight staleness). Seeded
    /// from the ledger so staleness accrues across restarts.
    generation: AtomicU64,
    live: Mutex<Vec<Arc<Member>>>,
    metrics: Arc<FleetMetrics>,
    ledger: Option<PathBuf>,
    /// Tunes without a fresh sample before a weight reads fully cold
    /// (0 disables decay).
    decay_after: u64,
}

impl Membership {
    /// Build the roster over the configured addresses, seeding weights
    /// and breaker state from the ledger at `ledger` when one loads (a
    /// breaker persisted open re-opens for one `breaker_cooldown`).
    pub fn new(
        addrs: &[String],
        metrics: Arc<FleetMetrics>,
        ledger: Option<PathBuf>,
        decay_after: u64,
        breaker_cooldown: Duration,
    ) -> Membership {
        let doc = ledger.as_deref().and_then(load_ledger);
        let generation = doc.as_ref().map_or(0, |d| d.generation);
        let mut live: Vec<Arc<Member>> = Vec::with_capacity(addrs.len());
        for addr in addrs {
            if live.iter().any(|m| m.addr() == addr.as_str()) {
                continue;
            }
            let sm = metrics.register(addr);
            let member = Member::new(addr.clone(), sm);
            let entry = doc
                .as_ref()
                .and_then(|d| d.entries.iter().find(|e| &e.addr == addr));
            if let Some(e) = entry {
                member.metrics.seed_persisted(
                    e.ewma_cands_per_sec,
                    e.peak_cands_per_sec,
                    e.generation,
                );
                if e.breaker_open {
                    let until = Instant::now() + breaker_cooldown;
                    member.set_breaker(&mut member.breaker.lock(), Breaker::Open { until });
                }
            }
            live.push(member);
        }
        metrics.members.store(live.len() as u64, Ordering::Relaxed);
        metrics.membership_epoch.store(1, Ordering::Relaxed);
        Membership {
            epoch: AtomicU64::new(1),
            generation: AtomicU64::new(generation),
            live: Mutex::new(live),
            metrics: Arc::clone(&metrics),
            ledger,
            decay_after,
        }
    }

    /// Current membership epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Current fleet-tune generation.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Bump the generation at the start of a fleet tune.
    pub fn begin_tune(&self) -> u64 {
        self.generation.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// A point-in-time snapshot of the live roster (cheap Arc clones).
    pub fn roster(&self) -> Vec<Arc<Member>> {
        self.live.lock().clone()
    }

    /// Live member addresses, in roster order.
    pub fn members(&self) -> Vec<String> {
        self.live
            .lock()
            .iter()
            .map(|m| m.addr().to_string())
            .collect()
    }

    /// Admit `addr` into the roster. Idempotent: admitting a live
    /// member changes nothing and does not bump the epoch. A returning
    /// member revives its metrics history. Returns
    /// `(membership epoch, changed)`.
    pub fn join(&self, addr: &str) -> (u64, bool) {
        let mut live = self.live.lock();
        if live.iter().any(|m| m.addr() == addr) {
            return (self.epoch(), false);
        }
        let sm = self.metrics.register(addr);
        sm.set_departed(false);
        sm.state.store(breaker_state::CLOSED, Ordering::Relaxed);
        live.push(Member::new(addr.to_string(), sm));
        let epoch = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        self.metrics.joins.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .membership_epoch
            .store(epoch, Ordering::Relaxed);
        self.metrics
            .members
            .store(live.len() as u64, Ordering::Relaxed);
        (epoch, true)
    }

    /// Retire `addr` from the roster. Idempotent: retiring an unknown
    /// address changes nothing. The member's metrics entry stays in the
    /// registry (flagged departed) so in-flight attempts notice and
    /// abandon, and a later rejoin revives the history. Returns
    /// `(membership epoch, changed)`.
    pub fn leave(&self, addr: &str) -> (u64, bool) {
        let mut live = self.live.lock();
        let before = live.len();
        live.retain(|m| {
            if m.addr() == addr {
                m.metrics.set_departed(true);
                false
            } else {
                true
            }
        });
        if live.len() == before {
            return (self.epoch(), false);
        }
        let epoch = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        self.metrics.leaves.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .membership_epoch
            .store(epoch, Ordering::Relaxed);
        self.metrics
            .members
            .store(live.len() as u64, Ordering::Relaxed);
        (epoch, true)
    }

    /// Effective partitioning weights for `roster`, with staleness
    /// decay: a weight sampled `s` tunes ago blends linearly toward the
    /// fresh members' mean and reads fully cold (0.0 — the partitioner
    /// then substitutes the warm mean) at `s >= decay_after`. With
    /// decay disabled (`decay_after == 0`) raw EWMA weights pass
    /// through.
    pub fn live_weights(&self, roster: &[Arc<Member>]) -> Vec<f64> {
        let generation = self.generation();
        let raw: Vec<(f64, u64)> = roster
            .iter()
            .map(|m| {
                (
                    m.metrics.ewma_rate(),
                    generation.saturating_sub(m.metrics.sample_gen()),
                )
            })
            .collect();
        if self.decay_after == 0 {
            return raw.iter().map(|&(w, _)| w).collect();
        }
        let fresh: Vec<f64> = raw
            .iter()
            .filter(|&&(w, s)| w > 0.0 && s < self.decay_after)
            .map(|&(w, _)| w)
            .collect();
        let mean = if fresh.is_empty() {
            0.0
        } else {
            fresh.iter().sum::<f64>() / fresh.len() as f64
        };
        raw.iter()
            .map(|&(w, s)| {
                if w <= 0.0 || s >= self.decay_after {
                    0.0
                } else if mean > 0.0 {
                    let keep = 1.0 - s as f64 / self.decay_after as f64;
                    w * keep + mean * (1.0 - keep)
                } else {
                    w
                }
            })
            .collect()
    }

    /// Persist every registered member's weight record — live and
    /// recently departed (a departed shard's history is exactly what a
    /// restart wants when the shard comes back). A departed record is
    /// aged out once it is `decay_after` generations stale: its weight
    /// would read fully cold by then anyway, so carrying it forward
    /// only grows the ledger without bound as the fleet churns.
    /// `decay_after == 0` disables aging (entries live forever). A
    /// write failure loses the ledger, never the tune.
    pub fn persist(&self) {
        let Some(path) = &self.ledger else { return };
        let generation = self.generation();
        let live = self.members();
        let entries: Vec<LedgerEntry> = self
            .metrics
            .shard_metrics()
            .iter()
            .filter(|m| m.ewma_rate() > 0.0)
            .filter(|m| {
                self.decay_after == 0
                    || live.iter().any(|a| a == &m.addr)
                    || generation.saturating_sub(m.sample_gen()) < self.decay_after
            })
            .map(|m| LedgerEntry {
                addr: m.addr.clone(),
                ewma_cands_per_sec: m.ewma_rate(),
                peak_cands_per_sec: m.peak_rate(),
                breaker_open: m.state.load(Ordering::Relaxed) == breaker_state::OPEN,
                generation: m.sample_gen(),
            })
            .collect();
        let doc = LedgerDoc {
            version: LEDGER_SCHEMA_VERSION,
            generation: self.generation(),
            entries,
        };
        let _ = store_ledger(path, &doc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::weight_source;
    use std::time::Duration;

    fn tmp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "fm-membership-{tag}-{}-{:?}.json",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    fn doc(entries: Vec<LedgerEntry>, generation: u64) -> LedgerDoc {
        LedgerDoc {
            version: LEDGER_SCHEMA_VERSION,
            generation,
            entries,
        }
    }

    fn entry(addr: &str, ewma: f64, generation: u64) -> LedgerEntry {
        LedgerEntry {
            addr: addr.to_string(),
            ewma_cands_per_sec: ewma,
            peak_cands_per_sec: ewma * 2.0,
            breaker_open: false,
            generation,
        }
    }

    fn fresh(addrs: &[&str]) -> (Membership, Arc<FleetMetrics>) {
        let metrics = Arc::new(FleetMetrics::new());
        let addrs: Vec<String> = addrs.iter().map(|a| a.to_string()).collect();
        let m = Membership::new(
            &addrs,
            Arc::clone(&metrics),
            None,
            8,
            Duration::from_millis(50),
        );
        (m, metrics)
    }

    #[test]
    fn ledger_round_trips_and_tolerates_every_corruption() {
        let path = tmp_path("roundtrip");
        let d = doc(vec![entry("a:1", 120.0, 3)], 7);
        store_ledger(&path, &d).unwrap();
        assert_eq!(load_ledger(&path), Some(d.clone()));
        // Malformed JSON: cold, not an error.
        std::fs::write(&path, b"{not json").unwrap();
        assert_eq!(load_ledger(&path), None);
        // Valid JSON, wrong shape: cold.
        std::fs::write(&path, b"[1,2,3]").unwrap();
        assert_eq!(load_ledger(&path), None);
        // Version mismatch: cold.
        let mut stale = d.clone();
        stale.version = LEDGER_SCHEMA_VERSION + 1;
        store_ledger(&path, &stale).unwrap();
        assert_eq!(load_ledger(&path), None);
        // Missing file: cold.
        std::fs::remove_file(&path).unwrap();
        assert_eq!(load_ledger(&path), None);
    }

    #[test]
    fn join_and_leave_bump_the_epoch_and_are_idempotent() {
        let (m, metrics) = fresh(&["a:1", "b:2"]);
        assert_eq!(m.epoch(), 1);
        assert_eq!(m.members().len(), 2);
        // Joining a live member changes nothing.
        assert_eq!(m.join("a:1"), (1, false));
        // A real join bumps the epoch and the gauges.
        assert_eq!(m.join("c:3"), (2, true));
        assert_eq!(m.members(), vec!["a:1", "b:2", "c:3"]);
        assert_eq!(metrics.members.load(Ordering::Relaxed), 3);
        assert_eq!(metrics.joins.load(Ordering::Relaxed), 1);
        // Leaving an unknown address changes nothing.
        assert_eq!(m.leave("nobody:9"), (2, false));
        // A real leave bumps the epoch and flags the metrics entry.
        assert_eq!(m.leave("b:2"), (3, true));
        assert_eq!(m.members(), vec!["a:1", "c:3"]);
        assert_eq!(metrics.leaves.load(Ordering::Relaxed), 1);
        let departed = metrics
            .shard_metrics()
            .into_iter()
            .find(|s| s.addr == "b:2")
            .unwrap();
        assert!(departed.is_departed());
        // Re-leaving is idempotent.
        assert_eq!(m.leave("b:2"), (3, false));
    }

    #[test]
    fn rejoin_revives_the_departed_members_history() {
        let (m, metrics) = fresh(&["a:1", "b:2"]);
        let b = metrics.register("b:2");
        b.observe_rate(100, Duration::from_secs(1));
        m.leave("b:2");
        assert!(b.is_departed());
        m.join("b:2");
        assert!(!b.is_departed());
        // Same registry entry, history intact, no duplicate row.
        let rows = metrics.shard_metrics();
        assert_eq!(rows.iter().filter(|s| s.addr == "b:2").count(), 1);
        assert!((b.ewma_rate() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn persisted_weights_seed_and_then_decay_toward_uniform() {
        let path = tmp_path("decay");
        // Ledger: shard a sampled at generation 10, b never sampled.
        store_ledger(&path, &doc(vec![entry("a:1", 200.0, 10)], 10)).unwrap();
        let metrics = Arc::new(FleetMetrics::new());
        let addrs = vec!["a:1".to_string(), "b:2".to_string()];
        let m = Membership::new(
            &addrs,
            Arc::clone(&metrics),
            Some(path.clone()),
            4,
            Duration::from_millis(50),
        );
        assert_eq!(m.generation(), 10, "generation resumes from the ledger");
        let roster = m.roster();
        let a = &roster[0].metrics;
        assert_eq!(a.source_name(), "persisted");
        assert!((a.ewma_rate() - 200.0).abs() < 1e-9);
        assert!((a.peak_rate() - 400.0).abs() < 1e-9);
        // Fresh (staleness 0): the raw weight passes through.
        assert_eq!(m.live_weights(&roster), vec![200.0, 0.0]);
        // Two tunes without a fresh sample: halfway decayed — but a
        // lone sampled member blends toward a mean that is itself, so
        // its weight holds until it crosses the horizon to cold.
        m.begin_tune();
        m.begin_tune();
        assert_eq!(m.live_weights(&roster), vec![200.0, 0.0]);
        // Past the decay horizon: fully cold.
        m.begin_tune();
        m.begin_tune();
        assert_eq!(m.live_weights(&roster), vec![0.0, 0.0]);
        // With a second sampled member the blend shows: a is fresh, b
        // halfway stale, so b moves halfway toward the pool mean.
        a.observe_rate(100, Duration::from_secs(1));
        a.mark_fresh(m.generation());
        let b = &roster[1].metrics;
        b.observe_rate(300, Duration::from_secs(1));
        b.mark_fresh(m.generation().saturating_sub(2));
        let w = m.live_weights(&roster);
        let a_w = a.ewma_rate();
        assert!((w[0] - a_w).abs() < 1e-9, "fresh weight passes through");
        let mean = (a_w + 300.0) / 2.0;
        let want = 300.0 * 0.5 + mean * 0.5;
        assert!((w[1] - want).abs() < 1e-9, "got {}, want {want}", w[1]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_ledger_starts_cold_and_open_breaker_restores_quarantined() {
        let path = tmp_path("corrupt");
        std::fs::write(&path, b"\x00\xffgarbage").unwrap();
        let metrics = Arc::new(FleetMetrics::new());
        let addrs = vec!["a:1".to_string()];
        let m = Membership::new(
            &addrs,
            Arc::clone(&metrics),
            Some(path.clone()),
            8,
            Duration::from_millis(50),
        );
        let roster = m.roster();
        assert_eq!(roster[0].metrics.source_name(), "cold");
        assert_eq!(m.live_weights(&roster), vec![0.0]);
        // And a persisted open breaker comes back quarantined.
        let mut d = doc(vec![entry("a:1", 50.0, 0)], 1);
        d.entries[0].breaker_open = true;
        store_ledger(&path, &d).unwrap();
        let metrics2 = Arc::new(FleetMetrics::new());
        let m2 = Membership::new(
            &addrs,
            Arc::clone(&metrics2),
            Some(path.clone()),
            8,
            Duration::from_millis(50),
        );
        let roster2 = m2.roster();
        assert!(matches!(*roster2[0].breaker.lock(), Breaker::Open { .. }));
        assert_eq!(
            roster2[0].metrics.state.load(Ordering::Relaxed),
            breaker_state::OPEN
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn persist_writes_only_sampled_members_and_round_trips() {
        let path = tmp_path("persist");
        let metrics = Arc::new(FleetMetrics::new());
        let addrs = vec!["a:1".to_string(), "b:2".to_string()];
        let m = Membership::new(
            &addrs,
            Arc::clone(&metrics),
            Some(path.clone()),
            8,
            Duration::from_millis(50),
        );
        let gen = m.begin_tune();
        let a = metrics.register("a:1");
        a.observe_rate(80, Duration::from_secs(1));
        a.mark_fresh(gen);
        m.persist();
        let d = load_ledger(&path).expect("ledger written");
        assert_eq!(d.generation, gen);
        assert_eq!(d.entries.len(), 1, "cold members are not persisted");
        assert_eq!(d.entries[0].addr, "a:1");
        assert!((d.entries[0].ewma_cands_per_sec - 80.0).abs() < 1e-9);
        assert_eq!(d.entries[0].generation, gen);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn persist_ages_out_departed_shards_by_generation() {
        let path = tmp_path("age");
        let metrics = Arc::new(FleetMetrics::new());
        let addrs = vec!["a:1".to_string(), "b:2".to_string()];
        let m = Membership::new(
            &addrs,
            Arc::clone(&metrics),
            Some(path.clone()),
            2, // decay_after: departed records age out after 2 tunes
            Duration::from_millis(50),
        );
        let gen = m.begin_tune();
        for addr in ["a:1", "b:2"] {
            let s = metrics.register(addr);
            s.observe_rate(80, Duration::from_secs(1));
            s.mark_fresh(gen);
        }
        m.leave("b:2");
        // One tune later the departed record is still within the decay
        // horizon: kept, so a quick rejoin restarts warm.
        m.begin_tune();
        m.persist();
        let d = load_ledger(&path).expect("ledger written");
        assert_eq!(d.entries.len(), 2, "recently departed record kept");
        // Past the horizon it is aged out; the live member stays no
        // matter how stale its sample.
        m.begin_tune();
        m.persist();
        let d = load_ledger(&path).expect("ledger written");
        assert_eq!(d.entries.len(), 1, "stale departed record aged out");
        assert_eq!(d.entries[0].addr, "a:1");
        // With aging disabled (decay_after == 0) nothing is dropped.
        let metrics0 = Arc::new(FleetMetrics::new());
        let m0 = Membership::new(
            &addrs,
            Arc::clone(&metrics0),
            Some(path.clone()),
            0,
            Duration::from_millis(50),
        );
        let gen0 = m0.begin_tune();
        for addr in ["a:1", "b:2"] {
            let s = metrics0.register(addr);
            s.observe_rate(80, Duration::from_secs(1));
            s.mark_fresh(gen0);
        }
        m0.leave("b:2");
        for _ in 0..10 {
            m0.begin_tune();
        }
        m0.persist();
        let d = load_ledger(&path).expect("ledger written");
        assert_eq!(d.entries.len(), 2, "decay_after == 0 disables aging");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn weight_source_marks_persisted_then_measured() {
        let metrics = Arc::new(FleetMetrics::new());
        let s = metrics.register("a:1");
        assert_eq!(s.source_name(), "cold");
        s.seed_persisted(40.0, 60.0, 2);
        assert_eq!(s.source_name(), "persisted");
        assert_eq!(s.sample_gen(), 2);
        s.observe_rate(90, Duration::from_secs(1));
        assert_eq!(s.source_name(), "measured");
        assert!(s.peak_rate() >= 60.0, "seeded peak survives");
        // weight_source constants stay distinct (wire strings key off
        // them).
        assert_ne!(weight_source::COLD, weight_source::PERSISTED);
        assert_ne!(weight_source::PERSISTED, weight_source::MEASURED);
    }
}
