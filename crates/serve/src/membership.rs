//! Elastic fleet membership: one record per shard address, the live
//! roster drawn from those records, membership epochs, the fleet's
//! `Stats` counters, and the crash-persistent weight ledger.
//!
//! The fleet coordinator used to freeze its shard pool at startup; this
//! module makes the pool a *living roster*. Shards join and leave a
//! running fleet via `ShardJoin`/`ShardLeave` protocol frames; every
//! change bumps a **membership epoch** surfaced in `Stats`, new members
//! become eligible for the next partition and for suffix re-dispatch,
//! and a departed member's in-flight ranges are re-dispatched from
//! their covered watermark the moment its departure is noticed.
//!
//! Identity is the configured address string, and each address has
//! one [`Member`] record, created the first time the address is seen.
//! A member that leaves keeps its record, flagged departed; one that
//! later rejoins under the same address is **revived**, not recreated:
//! its throughput (EWMA, trailing peak, weight source) and its `Stats`
//! row survive, so a brief departure does not reset what the
//! coordinator learned about the machine, and join/leave churn cannot
//! grow the table. The live roster is the records not departed, in
//! join order.
//!
//! **Counters.** The fleet's `Stats` section is one live
//! [`FleetStatsReply`] under one leaf lock; row `i` of its shard table
//! is record `i`'s [`ShardStats`]. Its gauges — members, the membership
//! epoch, and each row's breaker, throughput and departed flag — are
//! read from the table and the records when [`Membership::stats`] takes
//! a snapshot.
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
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::metrics::{FleetStatsReply, ShardStats};

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

impl Breaker {
    /// The state's `Stats` name.
    fn name(&self) -> &'static str {
        match self {
            Breaker::Closed { .. } => "closed",
            Breaker::Open { .. } => "open",
            Breaker::HalfOpen => "half-open",
        }
    }
}

/// Where a member's partitioning weight came from (surfaced as a
/// string in [`ShardStats::weight_source`]).
mod weight_source {
    /// No throughput information at all.
    pub const COLD: u8 = 0;
    /// Seeded from the crash-persistent weight ledger — believed, not
    /// yet re-confirmed by a live sample.
    pub const PERSISTED: u8 = 1;
    /// At least one live throughput sample this process lifetime.
    pub const MEASURED: u8 = 2;
}

/// EWMA smoothing factor for per-shard throughput: each new
/// observation contributes 30%, so one slow frame dents but does not
/// erase a shard's history, and a genuinely slow shard converges to
/// its true rate within a few frames.
const EWMA_ALPHA: f64 = 0.3;

/// One shard address's record: its link health and the lock-free
/// routing state the fleet reads on every frame. Its counters are its
/// row in the fleet's `Stats` ([`Membership::stats`]). Attempt
/// threads hold an `Arc<Member>`, so a member leaving mid-attempt never
/// invalidates the handle — the attempt notices the departed flag and
/// abandons.
pub struct Member {
    addr: String,
    /// This record's row in the fleet's `Stats` shard table.
    row: usize,
    pub(crate) breaker: Mutex<Breaker>,
    /// Latched when the shard rejected a binary request with a
    /// protocol failure: it predates the envelope, so every later
    /// attempt speaks JSON. Cleared only when the shard rejoins — a
    /// fleet member does not upgrade mid-flight.
    pub(crate) json_only: AtomicBool,
    /// Set while the shard is out of the live roster (`ShardLeave`);
    /// in-flight attempts watch it and abandon so the coordinator can
    /// re-dispatch their suffix immediately. Cleared on rejoin.
    departed: AtomicBool,
    /// Membership epoch of the shard's latest join (0 for the
    /// configured shards): the roster lists live records in this order.
    joined: AtomicU64,
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
    /// [`weight_source`] of the current EWMA value.
    source: AtomicU8,
    /// Fleet-tune generation of the last *fresh* (live) sample; drives
    /// staleness decay of persisted weights.
    last_sample_gen: AtomicU64,
}

impl Member {
    fn new(addr: &str, row: usize) -> Member {
        Member {
            addr: addr.to_string(),
            row,
            breaker: Mutex::new(Breaker::Closed {
                consecutive_failures: 0,
            }),
            json_only: AtomicBool::new(false),
            departed: AtomicBool::new(false),
            joined: AtomicU64::new(0),
            ewma_rate_bits: AtomicU64::new(0.0f64.to_bits()),
            peak_rate_bits: AtomicU64::new(0.0f64.to_bits()),
            source: AtomicU8::new(weight_source::COLD),
            last_sample_gen: AtomicU64::new(0),
        }
    }

    /// The member's address, as configured.
    pub fn addr(&self) -> &str {
        &self.addr
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
        let prev = self.ewma_rate();
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

    /// The weight source as its wire string.
    pub fn source_name(&self) -> &'static str {
        match self.source.load(Ordering::Relaxed) {
            weight_source::PERSISTED => "persisted",
            weight_source::MEASURED => "measured",
            _ => "cold",
        }
    }
}

impl std::fmt::Debug for Member {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Member").field("addr", &self.addr).finish()
    }
}

/// The record table behind the roster.
struct Table {
    /// Membership epoch: starts at 1, bumps on every effective join or
    /// leave. Distinct from the per-tune epoch stamped into frames.
    epoch: u64,
    /// One record per address ever seen, in registration order.
    records: Vec<Arc<Member>>,
}

/// The living roster. One per [`Fleet`](crate::fleet::Fleet), shared
/// across worker threads.
pub struct Membership {
    table: Mutex<Table>,
    /// The fleet's `Stats` counters; row `i` of `shards` is record
    /// `i`'s. Rows are added with their records, under the table lock.
    stats: Mutex<FleetStatsReply>,
    /// Fleet-tune generation counter (drives weight staleness). Seeded
    /// from the ledger so staleness accrues across restarts.
    generation: AtomicU64,
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
        ledger: Option<PathBuf>,
        decay_after: u64,
        breaker_cooldown: Duration,
    ) -> Membership {
        let doc = ledger.as_deref().and_then(load_ledger);
        let membership = Membership {
            table: Mutex::new(Table {
                epoch: 1,
                records: Vec::new(),
            }),
            stats: Mutex::default(),
            generation: AtomicU64::new(doc.as_ref().map_or(0, |d| d.generation)),
            ledger,
            decay_after,
        };
        let mut table = membership.table.lock();
        for addr in addrs {
            let member = membership.record(&mut table, addr);
            let entry = doc
                .as_ref()
                .and_then(|d| d.entries.iter().find(|e| &e.addr == addr));
            if let Some(e) = entry {
                member.seed_persisted(e.ewma_cands_per_sec, e.peak_cands_per_sec, e.generation);
                if e.breaker_open {
                    let until = Instant::now() + breaker_cooldown;
                    *member.breaker.lock() = Breaker::Open { until };
                }
            }
        }
        drop(table);
        membership
    }

    /// The record for `addr`, created live (with its `Stats` row) the
    /// first time the address is seen.
    fn record(&self, table: &mut Table, addr: &str) -> Arc<Member> {
        if let Some(existing) = table.records.iter().find(|m| m.addr == addr) {
            return Arc::clone(existing);
        }
        let member = Arc::new(Member::new(addr, table.records.len()));
        table.records.push(Arc::clone(&member));
        self.count(|s| {
            s.shards.push(ShardStats {
                addr: addr.to_string(),
                ..ShardStats::default()
            })
        });
        member
    }

    /// Bump the fleet's counters: `f` runs under the leaf lock, and
    /// takes no other lock.
    pub(crate) fn count<R>(&self, f: impl FnOnce(&mut FleetStatsReply) -> R) -> R {
        f(&mut self.stats.lock())
    }

    /// Bump `member`'s row of the counters, as [`Membership::count`].
    pub(crate) fn count_shard<R>(
        &self,
        member: &Member,
        f: impl FnOnce(&mut ShardStats) -> R,
    ) -> R {
        f(&mut self.stats.lock().shards[member.row])
    }

    /// Current membership epoch.
    pub fn epoch(&self) -> u64 {
        self.table.lock().epoch
    }

    /// Current fleet-tune generation.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Bump the generation at the start of a fleet tune.
    pub fn begin_tune(&self) -> u64 {
        self.generation.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// A point-in-time snapshot of the live roster, in join order
    /// (cheap Arc clones).
    pub fn roster(&self) -> Vec<Arc<Member>> {
        let table = self.table.lock();
        let mut live: Vec<Arc<Member>> = table
            .records
            .iter()
            .filter(|m| !m.is_departed())
            .cloned()
            .collect();
        live.sort_by_key(|m| m.joined.load(Ordering::Relaxed));
        live
    }

    /// Live member addresses, in roster order.
    pub fn members(&self) -> Vec<String> {
        self.roster().iter().map(|m| m.addr.clone()).collect()
    }

    /// Admit `addr` into the roster. Idempotent: admitting a live
    /// member changes nothing and does not bump the epoch. A returning
    /// member's record is revived with a closed breaker, speaking
    /// binary again, at the end of the roster. Returns
    /// `(membership epoch, changed)`.
    pub fn join(&self, addr: &str) -> (u64, bool) {
        let mut table = self.table.lock();
        if table
            .records
            .iter()
            .any(|m| m.addr == addr && !m.is_departed())
        {
            return (table.epoch, false);
        }
        table.epoch += 1;
        let member = self.record(&mut table, addr);
        *member.breaker.lock() = Breaker::Closed {
            consecutive_failures: 0,
        };
        member.json_only.store(false, Ordering::Release);
        member.joined.store(table.epoch, Ordering::Relaxed);
        member.departed.store(false, Ordering::Release);
        self.count(|s| s.joins += 1);
        (table.epoch, true)
    }

    /// Retire `addr` from the roster. Idempotent: retiring an unknown
    /// or departed address changes nothing. The record stays, flagged
    /// departed, so in-flight attempts notice and abandon, and a later
    /// rejoin revives it. Returns `(membership epoch, changed)`.
    pub fn leave(&self, addr: &str) -> (u64, bool) {
        let mut table = self.table.lock();
        let live = table
            .records
            .iter()
            .find(|m| m.addr == addr && !m.is_departed());
        let Some(member) = live else {
            return (table.epoch, false);
        };
        member.departed.store(true, Ordering::Release);
        table.epoch += 1;
        self.count(|s| s.leaves += 1);
        (table.epoch, true)
    }

    /// The fleet's `Stats` section. The gauges are read first: members
    /// and the epoch from the table, each row's breaker from its record,
    /// each row's throughput and departed flag from its record's atomics;
    /// then the counters are copied under their lock.
    pub fn stats(&self) -> FleetStatsReply {
        let (epoch, records) = {
            let table = self.table.lock();
            (table.epoch, table.records.clone())
        };
        let breakers: Vec<&str> = records.iter().map(|m| m.breaker.lock().name()).collect();
        let mut stats = self.count(|s| s.clone());
        // Parts merged are the rows' parts: one fact, counted once.
        stats.parts_merged = stats.shards.iter().map(|row| row.parts).sum();
        // Records registered since the table was read wait for the next
        // snapshot.
        stats.shards.truncate(records.len());
        for ((row, m), breaker) in stats.shards.iter_mut().zip(&records).zip(breakers) {
            row.breaker = breaker.to_string();
            row.ewma_cands_per_sec = m.ewma_rate();
            row.peak_cands_per_sec = m.peak_rate();
            row.weight_source = m.source_name().to_string();
            row.departed = m.is_departed();
        }
        stats.members = stats.shards.iter().filter(|row| !row.departed).count() as u64;
        stats.membership_epoch = epoch;
        stats
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
            .map(|m| (m.ewma_rate(), generation.saturating_sub(m.sample_gen())))
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

    /// Persist every record's weight — live and recently departed (a
    /// departed shard's history is exactly what a restart wants when
    /// the shard comes back). A departed record is aged out once it is
    /// `decay_after` generations stale: its weight would read fully
    /// cold by then anyway, so carrying it forward only grows the
    /// ledger without bound as the fleet churns. `decay_after == 0`
    /// disables aging (entries live forever). A write failure loses the
    /// ledger, never the tune.
    pub fn persist(&self) {
        let Some(path) = &self.ledger else { return };
        let generation = self.generation();
        let records = self.table.lock().records.clone();
        let entries: Vec<LedgerEntry> = records
            .iter()
            .filter(|m| m.ewma_rate() > 0.0)
            .filter(|m| {
                self.decay_after == 0
                    || !m.is_departed()
                    || generation.saturating_sub(m.sample_gen()) < self.decay_after
            })
            .map(|m| LedgerEntry {
                addr: m.addr.clone(),
                ewma_cands_per_sec: m.ewma_rate(),
                peak_cands_per_sec: m.peak_rate(),
                breaker_open: matches!(*m.breaker.lock(), Breaker::Open { .. }),
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

    fn with_ledger(addrs: &[&str], ledger: Option<PathBuf>, decay_after: u64) -> Membership {
        let addrs: Vec<String> = addrs.iter().map(|a| a.to_string()).collect();
        Membership::new(&addrs, ledger, decay_after, Duration::from_millis(50))
    }

    fn fresh(addrs: &[&str]) -> Membership {
        with_ledger(addrs, None, 8)
    }

    /// The record for `addr`, created the first time it is asked for.
    fn record(m: &Membership, addr: &str) -> Arc<Member> {
        m.record(&mut m.table.lock(), addr)
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
        let m = fresh(&["a:1", "b:2"]);
        assert_eq!(m.epoch(), 1);
        assert_eq!(m.members().len(), 2);
        // Joining a live member changes nothing.
        assert_eq!(m.join("a:1"), (1, false));
        // A real join bumps the epoch and the gauges.
        assert_eq!(m.join("c:3"), (2, true));
        assert_eq!(m.members(), vec!["a:1", "b:2", "c:3"]);
        assert_eq!(m.stats().members, 3);
        assert_eq!(m.stats().joins, 1);
        // Leaving an unknown address changes nothing.
        assert_eq!(m.leave("nobody:9"), (2, false));
        // A real leave bumps the epoch and flags the record.
        assert_eq!(m.leave("b:2"), (3, true));
        assert_eq!(m.members(), vec!["a:1", "c:3"]);
        assert_eq!(m.stats().leaves, 1);
        let departed = record(&m, "b:2");
        assert!(departed.is_departed());
        // Re-leaving is idempotent.
        assert_eq!(m.leave("b:2"), (3, false));
    }

    #[test]
    fn rejoin_revives_the_departed_members_history() {
        let m = fresh(&["a:1", "b:2"]);
        let b = record(&m, "b:2");
        b.observe_rate(100, Duration::from_secs(1));
        m.leave("b:2");
        assert!(b.is_departed());
        m.join("b:2");
        assert!(!b.is_departed());
        // Same record, history intact, no duplicate row.
        let rows = m.stats().shards;
        assert_eq!(rows.iter().filter(|s| s.addr == "b:2").count(), 1);
        assert!((b.ewma_rate() - 100.0).abs() < 1e-9);
        // A revived member rejoins at the end of the roster, with a
        // closed breaker, speaking binary again.
        let a = record(&m, "a:1");
        *a.breaker.lock() = Breaker::HalfOpen;
        a.json_only.store(true, Ordering::Release);
        m.leave("a:1");
        m.join("a:1");
        assert_eq!(m.members(), vec!["b:2", "a:1"]);
        assert!(matches!(*a.breaker.lock(), Breaker::Closed { .. }));
        assert!(!a.json_only.load(Ordering::Acquire));
    }

    #[test]
    fn one_record_per_address_keeps_one_stats_row() {
        let m = fresh(&["a:1"]);
        assert_eq!(m.join("b:2"), (2, true));
        let (a, b) = (record(&m, "a:1"), record(&m, "b:2"));
        assert!(
            Arc::ptr_eq(&a, &record(&m, "a:1")),
            "same address, same record"
        );
        a.observe_rate(100, Duration::from_secs(1));
        m.count_shard(&a, |row| (row.sends, row.parts) = (3, 2));
        m.count_shard(&b, |row| row.parts += 1);
        m.leave("a:1");
        let snap = m.stats();
        assert_eq!(snap.shards.len(), 2);
        assert_eq!((snap.shards[0].sends, snap.shards[1].sends), (3, 0));
        assert_eq!(snap.parts_merged, 3, "merged parts are the rows' parts");
        assert!(snap.shards[0].departed);
        assert_eq!(snap.shards[0].weight_source, "measured");
        assert_eq!(snap.shards[1].weight_source, "cold");
        assert!(snap.shards[0].peak_cands_per_sec > 0.0);
        assert_eq!(snap.shards[0].breaker, "closed");
        assert_eq!(snap.members, 1);
        assert_eq!(snap.membership_epoch, 3);
        assert_eq!((snap.joins, snap.leaves), (1, 1));
        // Rejoining revives the row rather than adding one.
        m.join("a:1");
        let snap = m.stats();
        assert_eq!(snap.shards.len(), 2);
        assert_eq!(snap.shards[0].sends, 3);
        assert!(!snap.shards[0].departed);
    }

    #[test]
    fn ewma_rate_warms_up_and_tracks_observations() {
        let s = Member::new("127.0.0.1:1", 0);
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
        let s = Member::new("127.0.0.1:1", 0);
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
    fn persisted_weights_seed_and_then_decay_toward_uniform() {
        let path = tmp_path("decay");
        // Ledger: shard a sampled at generation 10, b never sampled.
        store_ledger(&path, &doc(vec![entry("a:1", 200.0, 10)], 10)).unwrap();
        let m = with_ledger(&["a:1", "b:2"], Some(path.clone()), 4);
        assert_eq!(m.generation(), 10, "generation resumes from the ledger");
        let roster = m.roster();
        let a = &roster[0];
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
        let b = &roster[1];
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
        let m = with_ledger(&["a:1"], Some(path.clone()), 8);
        let roster = m.roster();
        assert_eq!(roster[0].source_name(), "cold");
        assert_eq!(m.live_weights(&roster), vec![0.0]);
        // And a persisted open breaker comes back quarantined.
        let mut d = doc(vec![entry("a:1", 50.0, 0)], 1);
        d.entries[0].breaker_open = true;
        store_ledger(&path, &d).unwrap();
        let m2 = with_ledger(&["a:1"], Some(path.clone()), 8);
        let roster2 = m2.roster();
        assert!(matches!(*roster2[0].breaker.lock(), Breaker::Open { .. }));
        assert_eq!(m2.stats().shards[0].breaker, "open");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn persist_writes_only_sampled_members_and_round_trips() {
        let path = tmp_path("persist");
        let m = with_ledger(&["a:1", "b:2"], Some(path.clone()), 8);
        let gen = m.begin_tune();
        let a = record(&m, "a:1");
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
        // decay_after: departed records age out after 2 tunes
        let m = with_ledger(&["a:1", "b:2"], Some(path.clone()), 2);
        let gen = m.begin_tune();
        for addr in ["a:1", "b:2"] {
            let s = record(&m, addr);
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
        let m0 = with_ledger(&["a:1", "b:2"], Some(path.clone()), 0);
        let gen0 = m0.begin_tune();
        for addr in ["a:1", "b:2"] {
            let s = record(&m0, addr);
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
        let m = fresh(&["a:1"]);
        let s = record(&m, "a:1");
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
