//! The fleet coordinator: sharded candidate search that survives dead,
//! slow, and lying shards — and, since streaming, stops *wasting* the
//! work slow shards already did.
//!
//! A server started with [`FleetConfig`] partitions each eligible
//! `Tune` request's candidate list into contiguous sub-ranges and
//! farms them out to N backend `fm-serve` instances as `TuneShard`
//! requests, then merges the shard winners by `(score, index)`. The
//! contract is exact: **the merged winner is bit-identical to a
//! single-machine [`Tuner::tune`]** over the same list, no matter
//! which shards die, stall, or corrupt frames along the way.
//!
//! Why that holds:
//!
//! * the single-machine winner is the *first* strict minimum of the
//!   score sequence (the tuner's frontier keeps the earliest index on
//!   ties), which equals `min by (score, index)` over all candidates;
//! * a frame is merged **only** when it is verified — epoch echo and
//!   FNV-1a checksum over the canonical body
//!   ([`TuneShardReply::verify`](crate::protocol::TuneShardReply::verify) /
//!   [`TuneShardPart::verify`](crate::protocol::TuneShardPart::verify)), and for
//!   terminal replies `evaluated == count`; a frame that fails any
//!   check is discarded and the uncovered suffix is retried,
//!   reassigned, or evaluated locally, so every candidate is always
//!   scored by exactly the same pure function on *some* machine;
//! * streamed parts are chunk-local first minima merged **only at the
//!   covered watermark** (contiguous, in ascending index order) with a
//!   strict `<`, which reproduces the first-minimum tie-break of a
//!   flat scan; duplicate chunks from hedged attempts compare equal
//!   and never displace the earlier merge;
//! * annealing refinement depends only on the winner and the
//!   configured seeds, so the coordinator applying it to the merged
//!   winner ([`Tuner::refine_winner`], in one place whatever ran the
//!   ranges) is bit-equal to a local tune applying it to the same
//!   winner.
//!
//! **Streaming** (`stream_every = Some(k)`): shards announce each
//! finished chunk of `k` candidates as a sealed
//! [`TuneShardPart`](crate::protocol::TuneShardPart) frame. The coordinator folds verified parts into
//! a per-range *covered watermark*; when an attempt then dies, only
//! the uncovered suffix is re-dispatched (retry, hedge, or local
//! fallback), and the moment a range is fully covered every other
//! attempt on it is abandoned — dropping the socket is what tells the
//! shard to cancel its remaining sub-search.
//!
//! **Latency-weighted partitioning** (`weighted = true`): part and
//! reply arrival times feed a per-shard EWMA throughput tracker in the
//! shard's membership record (persisted across requests); range sizes are then
//! apportioned to shards by largest-remainder on those weights, so a
//! chronically slow shard gets a proportionally small range instead of
//! stalling the whole tune. Cold shards inherit the warm mean; an
//! all-cold or unweighted fleet gets the equal split.
//!
//! **One re-dispatch path.** A range builds its `TuneShard` request
//! once; every attempt after its first — a backed-off retry wave, a
//! hedge, a throughput cliff on the primary's member, a departed
//! member — takes one step that sends the next breaker-available
//! member that request's suffix from the covered watermark. A
//! per-shard circuit breaker keeps failing shards out of the
//! rotation, and when every shard path is down the coordinator
//! evaluates the *uncovered suffix only* on its own pool. A
//! coordinator with no members takes the same path: its whole list is
//! one range no member can take, evaluated locally, merged and refined
//! like any other. Degradation changes latency, never the answer.
//!
//! The fleet path does not consult the tuning cache (requests with
//! `use_cache` stay local, where the cache lives), and requests with a
//! `convergence_window` stay local too: early-stopping is inherently
//! sequential, so sharding it would change which candidates get
//! evaluated.

use std::net::{TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use fm_autotune::{Budget, CancelToken, TunedMapping, Tuner};
use fm_core::cost::Evaluator;
use fm_core::search::MappingCandidate;
use fm_workspan::ThreadPool;

use crate::fault::mix64;
use crate::membership::{Breaker, Member, Membership};
use crate::protocol::{
    decode_response_any, encode_tune_shard_suffix, read_frame_polled, write_frame, Response,
    ShardBest, ShardReplyFlaw, TuneReply, TuneRequest, TuneShardBody, TuneShardPartBody,
    TuneShardRequest, WireError, DEFAULT_MAX_FRAME,
};

/// Fewest candidates per sub-range: the partitioner never cuts a range
/// smaller, and a list under twice this stays local.
const MIN_RANGE: usize = 2;

/// Seed of the deterministic backoff jitter (the *answer* never
/// depends on it).
const JITTER_SEED: u64 = 0x5EED;

/// Fleet tunes without a fresh sample before a member's persisted
/// weight decays fully back to cold.
const WEIGHT_DECAY_TUNES: u64 = 64;

/// Fleet-coordinator tunables. Defaults are production-ish; tests
/// tighten every timeout.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Backend shard addresses (`host:port`), in preference order.
    pub shards: Vec<String>,
    /// TCP connect timeout per attempt (a black-holed shard must fail
    /// fast, not hang the range). Applied to every dial the
    /// coordinator makes, further clamped by the attempt deadline.
    pub connect_timeout: Duration,
    /// Inactivity cap on one attempt: the time budget to the *next*
    /// frame (streamed part or terminal reply), reset whenever a
    /// verified frame arrives. For blocking attempts this is the
    /// end-to-end cap it always was.
    pub attempt_timeout: Duration,
    /// Waves of attempts per sub-range before giving up on the network
    /// and evaluating the (remaining) range locally.
    pub attempts: u32,
    /// First-retry backoff; doubles each wave.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// Launch a hedged duplicate of a range's uncovered suffix when
    /// the primary has made no progress within this long (`None`
    /// disables hedging). A further hedge wave is allowed each time
    /// streamed progress shows the previous one is also stuck.
    pub hedge_after: Option<Duration>,
    /// Consecutive failures that trip a shard's breaker open.
    pub breaker_threshold: u32,
    /// How long an open breaker quarantines its shard before the
    /// half-open probe.
    pub breaker_cooldown: Duration,
    /// Ask shards to stream a sealed part every this many evaluated
    /// candidates. `None` (or `Some(0)`) restores the blocking
    /// one-reply-per-range protocol.
    pub stream_every: Option<u64>,
    /// Size ranges by per-shard EWMA throughput instead of equally.
    pub weighted: bool,
    /// Encode shard-link requests with the compact binary envelope
    /// (reply frames are sniffed per frame, so shards may answer in
    /// either encoding). A shard that rejects binary with a protocol
    /// failure — it predates the envelope — is remembered as JSON-only
    /// and retried in JSON. The merged winner is encoding-independent.
    pub binary_links: bool,
    /// Throughput-cliff threshold: speculatively re-dispatch a range's
    /// uncovered suffix when its primary attempt's shard drops below
    /// this fraction of the shard's trailing peak throughput while the
    /// range watermark stalls. `0.0` disables cliff detection.
    pub cliff_fraction: f64,
    /// How long a range's covered watermark must sit still before the
    /// cliff detector may fire (guards against false positives on a
    /// shard that is merely between chunks).
    pub cliff_stall: Duration,
    /// Quarantine a shard — trip its breaker open for one cooldown —
    /// once its cliff detector has fired this many times. A shard that
    /// repeatedly collapses costs a speculative re-dispatch every
    /// time; quarantining routes primaries elsewhere until the
    /// half-open probe shows it recovered. `0` disables quarantine.
    pub cliff_quarantine_trips: u32,
    /// Path of the crash-persistent weight ledger (`None` disables
    /// persistence). Written after every fleet tune; read once at
    /// startup with the autotune cache's corrupt-tolerant discipline.
    pub weight_ledger: Option<PathBuf>,
}

impl FleetConfig {
    /// Default tunables in front of `shards`.
    pub fn new(shards: Vec<String>) -> FleetConfig {
        FleetConfig {
            shards,
            connect_timeout: Duration::from_millis(250),
            attempt_timeout: Duration::from_secs(10),
            attempts: 3,
            backoff_base: Duration::from_millis(25),
            backoff_max: Duration::from_millis(500),
            hedge_after: Some(Duration::from_millis(500)),
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_secs(2),
            stream_every: Some(16),
            weighted: true,
            binary_links: true,
            cliff_fraction: 0.35,
            cliff_stall: Duration::from_millis(200),
            cliff_quarantine_trips: 3,
            weight_ledger: None,
        }
    }
}

/// The coordinator. One per server, shared across worker threads.
pub struct Fleet {
    config: FleetConfig,
    /// Monotone per-tune epoch; stamped into every `TuneShard` request
    /// and echoed (under checksum) by the reply, so a frame answering
    /// an earlier tune can never merge into a later one.
    epoch: AtomicU64,
    /// The living shard roster (elastic membership, weight ledger,
    /// the fleet's `Stats` counters).
    membership: Membership,
}

/// What every range of one fleet tune shares.
struct TuneCtx<'a> {
    fleet: &'a Arc<Fleet>,
    req: &'a TuneRequest,
    /// Charges the request's cost backend, for local fallback.
    evaluator: &'a Evaluator<'a>,
    epoch: u64,
    deadline: Option<Instant>,
    cancel: &'a CancelToken,
    pool: &'a ThreadPool,
}

/// Shared per-range state: the range's shard request, plus the merge
/// ledger streamed parts fold into.
struct RangeShared {
    /// `TuneShard` for the whole range, built once: `start_index` is
    /// the range's `lo`, and there is no deadline. Each attempt sends
    /// its own suffix of it, stamped with the time left then.
    request: TuneShardRequest,
    hi: usize,
    deadline: Option<Instant>,
    progress: Mutex<Progress>,
    /// Latched once `covered == hi`: every attempt still in flight
    /// abandons (dropping its socket cancels the shard's sub-search).
    done: AtomicBool,
}

/// The merge ledger for one range, and what the range hands the tune's
/// merge when it finishes. `covered` is the exclusive absolute
/// watermark: every candidate in `[lo, covered)` has been scored and
/// folded exactly once, by a verified frame or the local fallback.
#[derive(Clone, Default)]
struct Progress {
    covered: usize,
    /// Candidates scored (by shards, locally, or both).
    evaluated: u64,
    /// The winner so far as `(absolute index, mapping)`; `None` while
    /// nothing legal was found.
    best: Option<(u64, TunedMapping)>,
    /// Whether cancellation cut the range short.
    cancelled: bool,
    /// Whether the range (or its suffix) fell back to local evaluation.
    local: bool,
}

/// What merging one streamed part did.
enum PartMerge {
    /// Contiguous at the watermark: folded, watermark advanced.
    Merged,
    /// Entirely behind the watermark (a hedge already covered it):
    /// ignored — duplicates are expected, not suspicious.
    Duplicate,
    /// Ahead of or straddling the watermark: the stream is out of sync
    /// with the ledger (should be impossible for an honest shard —
    /// chunk boundaries are aligned); discarded, attempt abandoned.
    OutOfSync,
}

/// Fold `(index, mapping)` into `best` with the ascending-order strict
/// `<` that reproduces a flat scan's first minimum.
fn fold_best(best: &mut Option<(u64, TunedMapping)>, win: Option<(u64, TunedMapping)>) {
    if let Some((idx, w)) = win {
        if best.as_ref().is_none_or(|(_, b)| w.score < b.score) {
            *best = Some((idx, w));
        }
    }
}

impl Progress {
    fn at(lo: usize) -> Progress {
        Progress {
            covered: lo,
            ..Progress::default()
        }
    }
}

impl RangeShared {
    fn new(
        req: &TuneRequest,
        lo: usize,
        hi: usize,
        epoch: u64,
        stream_every: Option<u64>,
        deadline: Option<Instant>,
    ) -> RangeShared {
        RangeShared {
            request: TuneShardRequest {
                graph: req.graph.clone(),
                machine: req.machine.clone(),
                fom: req.fom,
                candidates: req.candidates[lo..hi].to_vec(),
                start_index: lo as u64,
                epoch,
                deadline_ms: None,
                stream_every: stream_every.filter(|&k| k > 0),
                cost_model: req.cost_model.clone(),
            },
            hi,
            deadline,
            progress: Mutex::new(Progress::at(lo)),
            done: AtomicBool::new(false),
        }
    }

    fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    fn covered(&self) -> usize {
        self.progress.lock().covered
    }

    /// Merge one verified streamed part.
    fn merge_part(&self, body: &TuneShardPartBody) -> PartMerge {
        let mut p = self.progress.lock();
        let start = body.start_index as usize;
        let end = start + body.count as usize;
        if end <= p.covered {
            return PartMerge::Duplicate;
        }
        if start != p.covered || end > self.hi {
            return PartMerge::OutOfSync;
        }
        self.advance(&mut p, end, &body.best);
        PartMerge::Merged
    }

    /// Merge a verified-complete terminal reply covering
    /// `[start_index, hi)`. Idempotent past the watermark: candidates
    /// already covered by streamed parts are not recounted, and the
    /// reply's best — the first minimum over its whole span — folds as
    /// a no-op against chunk bests already merged (equal scores lose
    /// to the earlier entry under strict `<`).
    fn merge_terminal(&self, body: &TuneShardBody) {
        let span_end = (body.start_index + body.count) as usize;
        self.advance(&mut self.progress.lock(), span_end, &body.best);
    }

    /// Move the watermark up to `end`, counting what it newly covers,
    /// and fold `best`; latch `done` once the range is covered.
    fn advance(&self, p: &mut Progress, end: usize, best: &Option<ShardBest>) {
        if end > p.covered {
            p.evaluated += (end - p.covered) as u64;
            p.covered = end;
        }
        let win = best.clone().map(|b| {
            let mapping = TunedMapping {
                label: b.label,
                resolved: b.resolved,
                report: b.report,
                score: b.score,
            };
            (b.index, mapping)
        });
        fold_best(&mut p.best, win);
        if p.covered >= self.hi {
            self.done.store(true, Ordering::Release);
        }
    }

    /// The ledger as it stands, for the tune's merge.
    fn finish(&self) -> Progress {
        self.progress.lock().clone()
    }
}

/// How one wire attempt ended.
enum AttemptEnd {
    /// The range is fully covered (this attempt merged the last piece
    /// or witnessed it happen).
    Covered,
    /// Transport/verification failure; any parts this attempt merged
    /// before failing remain merged (`saved` counts them).
    Failed {
        /// Candidates this attempt streamed back before dying — work a
        /// blocking protocol would have discarded.
        saved: u64,
    },
    /// The range resolved elsewhere or the tune was cancelled — exit
    /// without blaming the shard.
    Abandoned,
}

/// Why an attempt stopped reading before a whole reply frame arrived.
enum ReadStop {
    /// The range resolved elsewhere, the tune was cancelled, or the
    /// shard left the roster — exit without blaming the shard.
    Abandoned,
    /// The frame deadline passed (the shard is slow), or the transport
    /// failed: blame the shard.
    Failed,
}

impl From<WireError> for ReadStop {
    fn from(_: WireError) -> ReadStop {
        ReadStop::Failed
    }
}

impl Fleet {
    /// Build a coordinator over `config.shards`, seeding weights and
    /// breaker state from the ledger when one loads.
    pub fn new(config: FleetConfig) -> Arc<Fleet> {
        let membership = Membership::new(
            &config.shards,
            config.weight_ledger.clone(),
            WEIGHT_DECAY_TUNES,
            config.breaker_cooldown,
        );
        Arc::new(Fleet {
            config,
            epoch: AtomicU64::new(1),
            membership,
        })
    }

    /// The living roster `ShardJoin`/`ShardLeave` change, and the
    /// fleet's `Stats` section ([`Membership::stats`]). A member that
    /// leaves has its in-flight ranges re-dispatched from their covered
    /// watermark the moment their attempts notice.
    pub fn membership(&self) -> &Membership {
        &self.membership
    }

    /// Should this request take the fleet path? Cache users and
    /// convergence-window users stay local (see the module docs); tiny
    /// candidate lists are not worth the network round-trip. An empty
    /// roster still takes the fleet path so churn down to zero members
    /// degrades to coordinator-local evaluation, not a refusal.
    pub fn eligible(&self, req: &TuneRequest) -> bool {
        req.convergence_window.is_none() && !req.use_cache && req.candidates.len() >= MIN_RANGE * 2
    }

    /// May an attempt go to `member` right now? Closed passes; open
    /// passes only once its cooldown elapsed (becoming the half-open
    /// probe); half-open refuses (a probe is already out).
    fn try_acquire(&self, member: &Member) -> bool {
        let mut b = member.breaker.lock();
        match *b {
            Breaker::Closed { .. } => true,
            Breaker::Open { until } if Instant::now() >= until => {
                *b = Breaker::HalfOpen;
                true
            }
            Breaker::Open { .. } | Breaker::HalfOpen => false,
        }
    }

    fn report_success(&self, member: &Member) {
        self.membership
            .count_shard(member, |row| row.successes += 1);
        *member.breaker.lock() = Breaker::Closed {
            consecutive_failures: 0,
        };
    }

    fn report_failure(&self, member: &Member) {
        self.membership.count_shard(member, |row| row.failures += 1);
        let mut b = member.breaker.lock();
        let consecutive_failures = match *b {
            Breaker::Closed {
                consecutive_failures,
            } => consecutive_failures + 1,
            Breaker::HalfOpen => u32::MAX, // failed probe: straight back open
            Breaker::Open { .. } => return,
        };
        if consecutive_failures >= self.config.breaker_threshold.max(1) {
            self.trip(member, &mut b);
        } else {
            *b = Breaker::Closed {
                consecutive_failures,
            };
        }
    }

    /// Trip `member`'s breaker (`b`, held locked) open for one
    /// cooldown.
    fn trip(&self, member: &Member, b: &mut Breaker) {
        *b = Breaker::Open {
            until: Instant::now() + self.config.breaker_cooldown,
        };
        self.membership
            .count_shard(member, |row| row.breaker_opens += 1);
    }

    /// Charge `member` one throughput-cliff trip, and quarantine it —
    /// trip its breaker open for one cooldown, whatever its
    /// consecutive-failure count — every
    /// [`FleetConfig::cliff_quarantine_trips`] trips. A collapsing
    /// shard's attempts keep *succeeding*, so the failure breaker
    /// never sees them, but each collapse costs a speculative
    /// re-dispatch; quarantine routes primaries elsewhere until the
    /// half-open probe shows the shard recovered.
    fn charge_cliff(&self, member: &Member) {
        let trips = self.membership.count_shard(member, |row| {
            row.cliff_trips += 1;
            row.cliff_trips
        });
        let every = u64::from(self.config.cliff_quarantine_trips);
        if every > 0 && trips.is_multiple_of(every) {
            self.trip(member, &mut member.breaker.lock());
            self.membership.count(|s| s.cliff_quarantines += 1);
        }
    }

    /// Next breaker-available member scanning the *live* roster from
    /// `*rotation`, skipping `exclude`; advances the rotation past the
    /// pick. Taking a fresh roster snapshot per call is what makes
    /// newly joined shards eligible for suffix re-dispatch mid-tune.
    fn next_available(
        &self,
        rotation: &mut usize,
        exclude: Option<&Arc<Member>>,
    ) -> Option<Arc<Member>> {
        let roster = self.membership.roster();
        let n = roster.len();
        for step in 0..n {
            let idx = (*rotation + step) % n;
            if exclude.is_some_and(|e| Arc::ptr_eq(e, &roster[idx])) {
                continue;
            }
            if self.try_acquire(&roster[idx]) {
                *rotation = idx + 1;
                return Some(Arc::clone(&roster[idx]));
            }
        }
        None
    }

    /// Run one `Tune` request through the fleet. Exact same reply
    /// contract as the local path, minus cache participation.
    /// `evaluator` charges the request's validated cost model: local
    /// fallback and refinement must score as the shards do, or merged
    /// winners would mix scoring rules.
    pub fn tune(
        self: &Arc<Fleet>,
        req: &TuneRequest,
        evaluator: &Evaluator<'_>,
        cancel: &CancelToken,
        deadline: Option<Instant>,
        pool: &ThreadPool,
    ) -> TuneReply {
        let start = Instant::now();
        self.membership.count(|s| s.fleet_tunes += 1);
        self.membership.begin_tune();

        let offered = req.candidates.len();
        let cap = req
            .max_candidates
            .map_or(offered, |n| (n as usize).min(offered));
        let ctx = TuneCtx {
            fleet: self,
            req,
            evaluator,
            epoch: self.epoch.fetch_add(1, Ordering::Relaxed),
            deadline,
            cancel,
            pool,
        };

        // Freeze the roster for partitioning; attempts inside each
        // range still consult the live roster, so members joining
        // mid-tune pick up re-dispatched suffixes. Unweighted, the
        // partitioner sees no weights and cuts the equal split. With
        // no members the whole list is one range with no preferred
        // member, which `run_range` evaluates locally: slower, same
        // answer.
        let roster = self.membership.roster();
        let plan: Vec<(usize, usize, usize)> = if roster.is_empty() {
            vec![(0, cap, 0)]
        } else {
            let weights = match self.config.weighted {
                true => self.membership.live_weights(&roster),
                false => Vec::new(),
            };
            partition_weighted(cap, roster.len(), MIN_RANGE, &weights)
        };
        let outcomes: Vec<Progress> = std::thread::scope(|s| {
            let handles: Vec<_> = plan
                .iter()
                .enumerate()
                .map(|(ri, &(lo, hi, pos))| {
                    let (ctx, preferred) = (&ctx, roster.get(pos));
                    s.spawn(move || run_range(ctx, ri, lo, hi, preferred, pos))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| Progress {
                        cancelled: true,
                        ..Progress::default()
                    })
                })
                .collect()
        });

        // Merge in ascending range order with a strict `<`: identical
        // tie-breaking to the tuner frontier's flat scan.
        let mut best: Option<(u64, TunedMapping)> = None;
        let mut evaluated = 0u64;
        let mut cancelled = cancel.is_cancelled();
        let mut all_local = !outcomes.is_empty();
        for o in outcomes {
            evaluated += o.evaluated;
            cancelled |= o.cancelled;
            all_local &= o.local;
            fold_best(&mut best, o.best);
        }
        if all_local {
            self.membership.count(|s| s.degraded_tunes += 1);
        }

        // Nothing legal anywhere: the same default-mapper fallback a
        // single-machine tune produces, built once for the whole list
        // (ranges and shard chunks report only in-range winners).
        let mut fell_back = false;
        let mut best_mapping = match best {
            Some((_, b)) => Some(b),
            None => {
                let report = Tuner::new(evaluator, &req.graph, &req.machine, req.fom).tune(&[]);
                fell_back = report.fell_back;
                report.best
            }
        };

        // Refinement runs on the coordinator, exactly as the local path
        // applies it to its own winner (never on cancelled runs, and
        // discarded if the request's token interrupts it).
        if let Some(b) = best_mapping.as_mut() {
            if !cancelled {
                if let Some(r) = req.refinement {
                    cancelled = Tuner::new(evaluator, &req.graph, &req.machine, req.fom)
                        .with_pool(pool)
                        .with_refinement(r)
                        .with_cancel(cancel.clone())
                        .refine_winner(b);
                }
            }
        }

        TuneReply {
            best: best_mapping,
            offered: offered as u64,
            evaluated,
            pruned: (offered as u64).saturating_sub(evaluated),
            cache: "disabled".to_string(),
            fell_back,
            cancelled,
            wall_ms: start.elapsed().as_secs_f64() * 1e3,
        }
    }
}

/// Latency-weighted split: `[0, cap)` into at most `nshards`
/// contiguous ranges sized by largest-remainder apportionment over
/// per-shard EWMA throughput `weights` (candidates/second; 0 = cold).
/// Returns `(lo, hi, preferred_shard)` per range.
///
/// Deterministic fallbacks keep cold starts exact: a cold shard's
/// weight is the mean of the warm ones, and an all-cold, uniform or
/// empty `weights` gives the equal split — range `i` on shard `i`,
/// sizes differing by at most one, the longer ranges first. `min_per`
/// is enforced after apportionment by transferring candidates from the
/// largest range, so a near-zero weight shrinks a range to the floor,
/// never below it.
fn partition_weighted(
    cap: usize,
    nshards: usize,
    min_per: usize,
    weights: &[f64],
) -> Vec<(usize, usize, usize)> {
    if cap == 0 || nshards == 0 {
        return Vec::new();
    }
    let nranges = (cap / min_per.max(1)).clamp(1, nshards);
    // Effective weights: cold/broken entries take the warm mean.
    let mut w: Vec<f64> = (0..nshards)
        .map(|i| weights.get(i).copied().unwrap_or(0.0))
        .collect();
    let warm: Vec<f64> = w
        .iter()
        .copied()
        .filter(|x| x.is_finite() && *x > 0.0)
        .collect();
    let fill = if warm.is_empty() {
        1.0
    } else {
        warm.iter().sum::<f64>() / warm.len() as f64
    };
    for x in &mut w {
        if !x.is_finite() || *x <= 0.0 {
            *x = fill;
        }
    }
    // Fastest `nranges` shards get the work; ties prefer lower index
    // (which also makes the uniform case place range i on shard i).
    let mut order: Vec<usize> = (0..nshards).collect();
    order.sort_by(|&a, &b| {
        w[b].partial_cmp(&w[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut chosen = order[..nranges].to_vec();
    chosen.sort_unstable();
    // Largest-remainder apportionment of `cap` over the chosen
    // weights. With uniform weights every remainder ties and the
    // leftovers go to the lowest positions: the equal split.
    let total: f64 = chosen.iter().map(|&i| w[i]).sum();
    let mut sizes: Vec<usize> = Vec::with_capacity(nranges);
    let mut rems: Vec<(f64, usize)> = Vec::with_capacity(nranges);
    for (pos, &shard) in chosen.iter().enumerate() {
        let quota = cap as f64 * w[shard] / total;
        let floor = quota.floor() as usize;
        sizes.push(floor.min(cap));
        rems.push((quota - floor as f64, pos));
    }
    let assigned: usize = sizes.iter().sum();
    let mut leftover = cap.saturating_sub(assigned);
    rems.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.1.cmp(&b.1))
    });
    let mut next = 0usize;
    while leftover > 0 {
        sizes[rems[next % rems.len()].1] += 1;
        leftover -= 1;
        next += 1;
    }
    // Enforce the floor: top up starved ranges from the largest. The
    // partitioner never makes more ranges than `cap / min_per`, so
    // this always converges.
    let floor = min_per.max(1).min(cap / nranges.max(1)).max(1);
    loop {
        let (min_pos, &min_size) = sizes
            .iter()
            .enumerate()
            .min_by_key(|&(_, s)| *s)
            .expect("nranges >= 1");
        if min_size >= floor {
            break;
        }
        let (max_pos, &max_size) = sizes
            .iter()
            .enumerate()
            .max_by_key(|&(_, s)| *s)
            .expect("nranges >= 1");
        if max_size <= floor {
            break;
        }
        let move_n = (floor - min_size).min(max_size - floor);
        sizes[max_pos] -= move_n;
        sizes[min_pos] += move_n;
    }
    let mut ranges = Vec::with_capacity(nranges);
    let mut lo = 0;
    for (pos, &shard) in chosen.iter().enumerate() {
        let hi = lo + sizes[pos];
        ranges.push((lo, hi, shard));
        lo = hi;
    }
    ranges
}

/// Deterministic backoff for wave `wave` of range `range`: exponential
/// in the wave, plus splitmix64 jitter in `[0, half the backoff)`.
fn backoff_with_jitter(config: &FleetConfig, epoch: u64, range: usize, wave: u32) -> Duration {
    let exp = config
        .backoff_base
        .saturating_mul(1u32 << wave.min(16))
        .min(config.backoff_max);
    let half = exp.as_nanos().max(2) as u64 / 2;
    let jitter =
        mix64(JITTER_SEED ^ epoch.rotate_left(17) ^ (range as u64) << 8 ^ wave as u64) % half;
    exp / 2 + Duration::from_nanos(half / 2 + jitter / 2) // in [exp/2, exp]
}

/// Why a range sends an attempt after its first.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Reason {
    /// Every attempt of the last wave failed.
    Retry,
    /// The range has been overdue for `hedge_after`.
    Hedge,
    /// The primary attempt's member fell off its throughput cliff.
    Cliff,
    /// An attempt's member left the roster.
    Departed,
}

/// Drive one sub-range to a verified result in one event loop. The
/// first attempt goes to the first breaker-available member from the
/// partition's pick; every later one takes the one re-dispatch step —
/// a retry wave once every attempt failed (after a backoff), a hedge
/// or cliff re-dispatch while the range stalls, a departed member's
/// suffix at once. Whatever the network leaves uncovered is evaluated
/// locally. `preferred` is the member the partition gave the range,
/// `None` when the roster was empty.
fn run_range(
    ctx: &TuneCtx<'_>,
    range_idx: usize,
    lo: usize,
    hi: usize,
    preferred: Option<&Arc<Member>>,
    preferred_pos: usize,
) -> Progress {
    let (fleet, cancel, config) = (ctx.fleet, ctx.cancel, &ctx.fleet.config);
    let mut rotation = preferred_pos;
    let first = (!cancel.is_cancelled()).then(|| fleet.next_available(&mut rotation, None));
    let Some(first) = first.flatten() else {
        // No member can take the range, so it never builds a request.
        return finish_locally(ctx, Progress::at(lo), hi);
    };
    let range = RangeShared::new(
        ctx.req,
        lo,
        hi,
        ctx.epoch,
        config.stream_every,
        ctx.deadline,
    );
    let range = Arc::new(range);
    let (tx, rx) = mpsc::channel();
    // Send the range's uncovered suffix to `member` on its own thread;
    // returns the absolute index the suffix starts at.
    let send = |member: Arc<Member>, speculative: bool| {
        let from = range.covered();
        let (fleet, range) = (Arc::clone(fleet), Arc::clone(&range));
        let (cancel, tx) = (cancel.clone(), tx.clone());
        std::thread::Builder::new()
            .name("fm-fleet-attempt".to_string())
            .spawn(move || {
                let end = run_attempt(&fleet, &member, &range, from, &cancel);
                let _ = tx.send((member, speculative, end));
            })
            .expect("spawn fleet attempt thread");
        from
    };
    // The one re-dispatch step: the next breaker-available member other
    // than `replaces`, the reason's counter (a cliff also charges
    // `replaces`, the primary's member, one trip), and the suffix from
    // the covered watermark. `None` when no member is available.
    let mut redispatch = |reason: Reason, replaces: Option<&Arc<Member>>| {
        let member = fleet.next_available(&mut rotation, replaces)?;
        if let (Reason::Cliff, Some(sick)) = (reason, replaces) {
            fleet.charge_cliff(sick);
        }
        let from = send(Arc::clone(&member), reason != Reason::Retry);
        fleet.membership.count(|s| {
            *match reason {
                Reason::Retry => &mut s.retries,
                Reason::Hedge => &mut s.hedges,
                Reason::Cliff => &mut s.cliff_redispatches,
                Reason::Departed => &mut s.departed_redispatches,
            } += 1;
            s.suffix_redispatches += u64::from(from > lo);
        });
        Some((member, from))
    };
    send(Arc::clone(&first), false);
    // The member running the range's primary attempt: the first one,
    // then each attempt started while none runs.
    let mut primary = Some(first);
    let (mut in_flight, mut wave, mut wave_start) = (1u32, 0u32, Instant::now());
    // The speculative reasons' shared gate: when the last one fired,
    // and the watermark it started from. Another may fire only once
    // the watermark has advanced past that (someone is alive but
    // slow), so one stall never sprays duplicates.
    let mut gate: Option<(Instant, usize)> = None;
    // When the covered watermark last moved, for the cliff check.
    let (mut seen, mut advanced) = (lo, Instant::now());
    loop {
        let started = match rx.recv_timeout(Duration::from_millis(25)) {
            Ok((member, speculative, end)) => {
                in_flight -= 1;
                if primary.as_ref().is_some_and(|p| Arc::ptr_eq(p, &member)) {
                    primary = None;
                }
                let departed = match end {
                    AttemptEnd::Covered => {
                        let reassigned = !preferred.is_some_and(|p| Arc::ptr_eq(&member, p));
                        fleet.membership.count(|s| {
                            s.hedge_wins += u64::from(speculative);
                            s.reassignments += u64::from(reassigned);
                        });
                        return range.finish();
                    }
                    AttemptEnd::Failed { saved } => {
                        fleet
                            .membership
                            .count(|s| s.prefix_candidates_saved += saved);
                        false
                    }
                    AttemptEnd::Abandoned => member.is_departed(),
                };
                if range.is_done() {
                    // The ending attempt's parts (or another's)
                    // completed the range though no terminal verified.
                    return range.finish();
                }
                // A member that left the roster abandons its attempt
                // without blame; its suffix goes to a healthy member
                // at once instead of waiting out the wave.
                match departed && !cancel.is_cancelled() {
                    true => redispatch(Reason::Departed, Some(&member)),
                    false => None,
                }
            }
            Err(_) => {
                if cancel.is_cancelled() {
                    break;
                }
                let covered = range.covered();
                if covered > seen {
                    (seen, advanced) = (covered, Instant::now());
                }
                let open = |wait: Duration| {
                    gate.is_none_or(|(at, from)| covered > from && at.elapsed() >= wait)
                };
                let hedge = config
                    .hedge_after
                    .is_some_and(|h| wave_start.elapsed() >= h && open(h));
                // Throughput collapse: the watermark stalled and the
                // primary's member runs below the configured fraction
                // of its trailing peak. The stall also *implies* a
                // rate (one chunk in `stalled`), so a shard that
                // simply stopped streaming is caught before its slow
                // EWMA catches down to it.
                let stalled = advanced.elapsed();
                let chunk = range.request.stream_every.unwrap_or((hi - lo) as u64);
                let implied = chunk.max(1) as f64 / stalled.as_secs_f64();
                let cliff = stalled >= config.cliff_stall
                    && open(config.cliff_stall)
                    && primary
                        .as_ref()
                        .is_some_and(|p| p.in_cliff(config.cliff_fraction, implied));
                let reason = match (hedge, cliff) {
                    (true, _) => Reason::Hedge,
                    (false, true) => Reason::Cliff,
                    (false, false) => continue,
                };
                redispatch(reason, primary.as_ref())
            }
        };
        if let Some((member, from)) = started {
            in_flight += 1;
            primary.get_or_insert(member);
            gate = Some((Instant::now(), from));
        }
        if in_flight == 0 {
            // The whole wave failed: back off (cancellably), then
            // retry on the next member in the rotation.
            wave += 1;
            if wave >= config.attempts.max(1) {
                break;
            }
            let mut left = backoff_with_jitter(config, ctx.epoch, range_idx, wave - 1);
            while left > Duration::ZERO && !cancel.is_cancelled() {
                let step = left.min(Duration::from_millis(20));
                std::thread::sleep(step);
                left = left.saturating_sub(step);
            }
            let retry = (!cancel.is_cancelled()).then(|| redispatch(Reason::Retry, None));
            let Some((member, _)) = retry.flatten() else {
                break; // cancelled, or every breaker is open
            };
            (in_flight, primary, gate) = (1, Some(member), None);
            (wave_start, seen, advanced) = (Instant::now(), range.covered(), Instant::now());
        }
    }
    range.done.store(true, Ordering::Release); // abandon any straggler attempt
    finish_locally(ctx, range.finish(), hi)
}

/// Finish a range the network could not: as banked when it is covered
/// (or cancelled), else by scoring the uncovered suffix right here.
/// Slower, never wrong — the same pure evaluation the shard would have
/// run, minus everything streamed parts already banked.
fn finish_locally(ctx: &TuneCtx<'_>, mut p: Progress, hi: usize) -> Progress {
    p.cancelled = ctx.cancel.is_cancelled();
    if p.cancelled || p.covered >= hi {
        return p;
    }
    ctx.fleet.membership.count(|s| s.local_fallback_ranges += 1);
    let (req, from) = (ctx.req, p.covered);
    let locals: Vec<MappingCandidate> = req.candidates[from..hi]
        .iter()
        .map(|c| MappingCandidate::new(c.label.clone(), c.mapping.clone()))
        .collect();
    let mut budget = Budget::unlimited();
    budget.deadline = ctx
        .deadline
        .map(|d| d.saturating_duration_since(Instant::now()));
    let report = Tuner::new(ctx.evaluator, &req.graph, &req.machine, req.fom)
        .with_pool(ctx.pool)
        .with_budget(budget)
        .with_cancel(ctx.cancel.clone())
        .tune_range(&locals);
    p.evaluated += report.evaluated as u64;
    let win = report.best_index.zip(report.best);
    fold_best(&mut p.best, win.map(|(i, b)| ((from + i) as u64, b)));
    (p.cancelled, p.local) = (report.cancelled, true);
    p
}

/// Dial one shard with the configured connect timeout, clamped by the
/// attempt deadline, trying every resolved address. Every coordinator
/// → shard connection goes through here — a black-holed shard costs at
/// most `connect_timeout` per address, never the OS default.
fn dial(fleet: &Fleet, member: &Member, until: Instant) -> Option<TcpStream> {
    let budget = until.saturating_duration_since(Instant::now());
    if budget.is_zero() {
        return None;
    }
    let timeout = fleet.config.connect_timeout.min(budget);
    for addr in member.addr().to_socket_addrs().ok()? {
        if Instant::now() >= until {
            return None;
        }
        if let Ok(stream) = TcpStream::connect_timeout(&addr, timeout) {
            let _ = stream.set_nodelay(true);
            return Some(stream);
        }
    }
    None
}

/// One wire attempt against one shard: connect (bounded), send the
/// request for the still-uncovered suffix `[attempt_lo, hi)`, then
/// consume frames — folding verified streamed parts into the range's
/// ledger as they arrive — until the range is covered, the terminal
/// reply lands, or something breaks. Reports breaker outcomes, EWMA
/// throughput observations, and discard metrics itself.
fn run_attempt(
    fleet: &Fleet,
    member: &Arc<Member>,
    range: &RangeShared,
    attempt_lo: usize,
    cancel: &CancelToken,
) -> AttemptEnd {
    let membership = &fleet.membership;
    membership.count_shard(member, |row| row.sends += 1);
    let frame_deadline = || {
        let cap = Instant::now() + fleet.config.attempt_timeout;
        range.deadline.map_or(cap, |d| cap.min(d))
    };
    let mut until = frame_deadline();

    let Some(mut stream) = dial(fleet, member, until) else {
        fleet.report_failure(member);
        return AttemptEnd::Failed { saved: 0 };
    };
    // Shard links skip the Hello handshake: the envelope is sniffed
    // per frame on both ends, so the coordinator just speaks binary
    // (correlation id = epoch) unless this shard is known JSON-only.
    // Skipping the handshake also keeps reply-frame indices stable for
    // the frame-indexed fault scripts in the chaos suite.
    let binary = fleet.config.binary_links && !member.json_only.load(Ordering::Acquire);
    let deadline_ms = range
        .deadline
        .map(|d| (d.saturating_duration_since(Instant::now()).as_millis() as u64).max(1));
    let payload = encode_tune_shard_suffix(&range.request, attempt_lo, deadline_ms, binary);
    if write_frame(&mut stream, &payload).is_err() {
        fleet.report_failure(member);
        return AttemptEnd::Failed { saved: 0 };
    }
    let epoch = range.request.epoch;

    // Per-frame consume loop. `saved` counts candidates this attempt
    // merged; if the attempt later dies they are the streamed prefix a
    // blocking protocol would have re-evaluated.
    let mut saved = 0u64;
    let mut last_mark = Instant::now();
    let fail = |flaw: Option<&ShardReplyFlaw>, saved: u64| {
        if let Some(flaw) = flaw {
            membership.count(|s| {
                *match flaw {
                    ShardReplyFlaw::BadChecksum { .. } => &mut s.corrupt_discarded,
                    ShardReplyFlaw::StaleEpoch { .. } => &mut s.stale_discarded,
                    ShardReplyFlaw::Incomplete { .. } => &mut s.incomplete_discarded,
                } += 1;
            });
        }
        fleet.report_failure(member);
        AttemptEnd::Failed { saved }
    };
    // The read timeout sets how often a silent shard's read wakes to
    // watch the range's `done` latch, the tune's cancel token, the
    // member's `departed` flag (a `ShardLeave` mid-attempt abandons the
    // read so the suffix can re-dispatch at once) and the frame
    // deadline.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(25)));
    loop {
        let frame = read_frame_polled(&mut stream, DEFAULT_MAX_FRAME, |_| {
            if range.done.load(Ordering::Acquire) || cancel.is_cancelled() || member.is_departed() {
                Some(ReadStop::Abandoned)
            } else {
                (Instant::now() >= until).then_some(ReadStop::Failed)
            }
        });
        match frame {
            Ok(bytes) => match decode_response_any(&bytes).map(|(_, r, _)| r) {
                Ok(Response::TuneShardPart(part)) => {
                    // A part that fails its seal, or does not fit the
                    // ledger, is discarded and fails the attempt.
                    let flaw = part.verify(epoch).err();
                    match flaw.is_none().then(|| range.merge_part(&part.body)) {
                        Some(PartMerge::Merged) => {
                            membership.count_shard(member, |row| row.parts += 1);
                            member.observe_rate(part.body.count, last_mark.elapsed());
                            member.mark_fresh(membership.generation());
                            last_mark = Instant::now();
                            saved += part.body.count;
                            if range.is_done() {
                                fleet.report_success(member);
                                return AttemptEnd::Covered;
                            }
                        }
                        // A hedge already banked this chunk; the frame
                        // still proves the shard is alive.
                        Some(PartMerge::Duplicate) => {}
                        Some(PartMerge::OutOfSync) | None => {
                            membership.count(|s| s.parts_discarded += 1);
                            return fail(flaw.as_ref(), saved);
                        }
                    }
                    until = frame_deadline(); // a live stream resets the clock
                }
                Ok(Response::TuneSharded(reply)) => {
                    return match reply.verify(epoch) {
                        Ok(()) => {
                            // The suffix past this attempt's own
                            // streamed parts was evaluated since the
                            // last mark (the whole span, if none).
                            member.observe_rate(
                                reply.body.count.saturating_sub(saved),
                                last_mark.elapsed(),
                            );
                            member.mark_fresh(membership.generation());
                            range.merge_terminal(&reply.body);
                            fleet.report_success(member);
                            if range.is_done() {
                                AttemptEnd::Covered
                            } else {
                                // A complete terminal that does not
                                // close the range means the ledger and
                                // the stream disagree; retry the
                                // suffix.
                                AttemptEnd::Failed { saved }
                            }
                        }
                        Err(flaw) => fail(Some(&flaw), saved),
                    };
                }
                // A protocol failure for a binary request means the
                // shard predates the envelope: remember that and let
                // the retry waves redial it in JSON.
                Ok(Response::Failed(f)) if binary && f.kind == "protocol" => {
                    member.json_only.store(true, Ordering::Release);
                    return fail(None, saved);
                }
                // Busy, ShuttingDown, Failed, or protocol confusion:
                // this path is unusable right now.
                Ok(_) | Err(_) => return fail(None, saved),
            },
            Err(ReadStop::Failed) => return fail(None, saved),
            // Abandoned attempts blame nobody: the shard may be
            // healthy, the range just resolved without it (or the tune
            // was cancelled). Dropping the socket is what tells the
            // shard to cancel its sub-search.
            Err(ReadStop::Abandoned) => return AttemptEnd::Abandoned,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{
        decode_request_any, encode_request, encode_request_binary, Request, WireCandidate,
    };
    use fm_core::affine::IdxExpr;
    use fm_core::dataflow::{CExpr, DataflowGraph};
    use fm_core::machine::MachineConfig;
    use fm_core::mapping::{AffineMap, Mapping, PlaceExpr};
    use fm_core::search::FigureOfMerit;
    use fm_core::value::Value;

    #[test]
    fn weighted_partition_covers_exactly_and_respects_minimum() {
        let weight_sets: &[&[f64]] = &[
            &[],
            &[0.0, 0.0, 0.0, 0.0, 0.0],
            &[100.0, 1.0, 50.0, 0.0, 7.5],
            &[1e-9, 1e9, 3.0, 3.0, 3.0],
            &[f64::NAN, 10.0, f64::INFINITY, 2.0, 0.5],
        ];
        for &weights in weight_sets {
            for cap in 0..40 {
                for nshards in 1..6 {
                    let plan = partition_weighted(cap, nshards, 3, weights);
                    let mut expect = 0;
                    for &(lo, hi, shard) in &plan {
                        assert_eq!(lo, expect, "weights {weights:?} cap {cap}");
                        assert!(hi > lo, "empty range for weights {weights:?} cap {cap}");
                        assert!(shard < nshards);
                        expect = hi;
                    }
                    assert_eq!(
                        expect, cap,
                        "weights {weights:?} cap {cap} nshards {nshards}"
                    );
                    assert!(plan.len() <= nshards);
                    if plan.len() > 1 {
                        for &(lo, hi, _) in &plan {
                            assert!(hi - lo >= 3, "range {lo}..{hi} under minimum");
                        }
                    }
                    // Preferred shards are distinct.
                    let mut shards: Vec<usize> = plan.iter().map(|&(_, _, s)| s).collect();
                    shards.dedup();
                    assert_eq!(shards.len(), plan.len());
                }
            }
        }
    }

    #[test]
    fn weighted_partition_degenerates_to_equal_split_when_uniform() {
        for cap in 1..60 {
            for nshards in 1..6 {
                // The plain split: as many ranges as shards allow with
                // at least 2 candidates each, the first `cap % n` one
                // longer.
                let n = (cap / 2).clamp(1, nshards);
                let mut equal = Vec::new();
                for i in 0..n {
                    let lo = i * (cap / n) + i.min(cap % n);
                    equal.push((lo, lo + cap / n + usize::from(i < cap % n)));
                }
                for weights in [vec![], vec![5.0; nshards], vec![0.0; nshards]] {
                    let plan = partition_weighted(cap, nshards, 2, &weights);
                    let sizes: Vec<(usize, usize)> =
                        plan.iter().map(|&(lo, hi, _)| (lo, hi)).collect();
                    assert_eq!(
                        sizes, equal,
                        "uniform weights {weights:?} must equal the plain split \
                         (cap {cap}, {nshards} shards)"
                    );
                    // And the placement is the old round-robin: range i
                    // on shard i.
                    for (i, &(_, _, shard)) in plan.iter().enumerate() {
                        assert_eq!(shard, i);
                    }
                }
            }
        }
        assert_eq!(
            partition_weighted(7, 3, 2, &[]),
            vec![(0, 3, 0), (3, 5, 1), (5, 7, 2)]
        );
        assert_eq!(partition_weighted(5, 4, 2, &[]), vec![(0, 3, 0), (3, 5, 1)]);
    }

    #[test]
    fn weighted_partition_gives_fast_shards_more_and_slow_shards_the_floor() {
        // Shard 1 is 9× faster than shard 0: with 100 candidates split
        // two ways it should take the lion's share, while shard 0
        // still gets at least the floor.
        let plan = partition_weighted(100, 2, 4, &[10.0, 90.0]);
        assert_eq!(plan.len(), 2);
        let size_of = |shard: usize| {
            plan.iter()
                .find(|&&(_, _, s)| s == shard)
                .map(|&(lo, hi, _)| hi - lo)
                .unwrap()
        };
        assert_eq!(size_of(0) + size_of(1), 100);
        assert_eq!(size_of(0), 10);
        assert_eq!(size_of(1), 90);
        // An extreme weight cannot starve a range below the floor.
        let plan = partition_weighted(20, 2, 4, &[1e-6, 1e6]);
        let sizes: Vec<usize> = plan.iter().map(|&(lo, hi, _)| hi - lo).collect();
        assert!(sizes.iter().all(|&s| s >= 4), "sizes {sizes:?}");
        assert_eq!(sizes.iter().sum::<usize>(), 20);
    }

    /// A small tune request: `n` candidates over an 8-node graph, with
    /// a cost model so every field of the shard request is exercised.
    fn tune_request(n: usize) -> TuneRequest {
        let mut graph = DataflowGraph::new("suffix", 32);
        for i in 0..8 {
            graph.add_node(CExpr::konst(Value::real(i as f64)), vec![], vec![i]);
        }
        let candidates = (0..n)
            .map(|i| WireCandidate {
                label: format!("c{i}"),
                mapping: Mapping::Affine(AffineMap {
                    place: PlaceExpr::row0(IdxExpr::i()),
                    time: IdxExpr::c(i as i64),
                }),
            })
            .collect();
        TuneRequest {
            graph,
            machine: MachineConfig::linear(4),
            fom: FigureOfMerit::Energy,
            candidates,
            deadline_ms: None,
            max_candidates: None,
            convergence_window: None,
            refinement: None,
            use_cache: false,
            cost_model: Some("roofline".to_string()),
        }
    }

    #[test]
    fn every_attempt_sends_the_request_for_its_own_suffix() {
        let req = tune_request(12);
        let (lo, hi, epoch) = (4, 12, 7);
        let range = RangeShared::new(&req, lo, hi, epoch, Some(4), None);
        for attempt_lo in [lo, lo + 3] {
            // The attempt's request, built field by field from the tune
            // request.
            let expected = Request::TuneShard(TuneShardRequest {
                graph: req.graph.clone(),
                machine: req.machine.clone(),
                fom: req.fom,
                candidates: req.candidates[attempt_lo..hi].to_vec(),
                start_index: attempt_lo as u64,
                epoch,
                deadline_ms: None,
                stream_every: Some(4),
                cost_model: req.cost_model.clone(),
            });
            for binary in [false, true] {
                let payload = encode_tune_shard_suffix(&range.request, attempt_lo, None, binary);
                let (corr, decoded, was_binary) = decode_request_any(&payload).unwrap();
                assert_eq!(
                    decoded, expected,
                    "attempt at {attempt_lo}, binary {binary}"
                );
                assert_eq!(was_binary, binary);
                let old = match binary {
                    true => {
                        assert_eq!(corr, epoch);
                        encode_request_binary(epoch, &expected)
                    }
                    false => encode_request(&expected),
                };
                assert_eq!(payload, old, "byte-identical to the whole-request encoding");
            }
        }
    }

    #[test]
    fn range_progress_merges_contiguous_parts_and_flags_the_rest() {
        let range = RangeShared::new(&tune_request(16), 8, 16, 1, Some(4), None);
        let part = |start: u64, count: u64| TuneShardPartBody {
            start_index: start,
            count,
            best: None,
        };
        // Ahead of the watermark: out of sync.
        assert!(matches!(
            range.merge_part(&part(12, 4)),
            PartMerge::OutOfSync
        ));
        // Contiguous: merges and advances.
        assert!(matches!(range.merge_part(&part(8, 4)), PartMerge::Merged));
        assert_eq!(range.covered(), 12);
        // Replay of a covered chunk (hedge duplicate): ignored.
        assert!(matches!(
            range.merge_part(&part(8, 4)),
            PartMerge::Duplicate
        ));
        // Overhang past `hi`: out of sync.
        assert!(matches!(
            range.merge_part(&part(12, 8)),
            PartMerge::OutOfSync
        ));
        // Final chunk completes the range and latches `done`.
        assert!(!range.is_done());
        assert!(matches!(range.merge_part(&part(12, 4)), PartMerge::Merged));
        assert!(range.is_done());
        assert_eq!(range.finish().evaluated, 8);
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let config = FleetConfig::new(vec!["127.0.0.1:1".to_string()]);
        for wave in 0..6 {
            let a = backoff_with_jitter(&config, 7, 2, wave);
            let b = backoff_with_jitter(&config, 7, 2, wave);
            assert_eq!(a, b, "jitter must be reproducible");
            assert!(a <= config.backoff_max);
        }
    }

    #[test]
    fn breaker_trips_after_threshold_and_probes_after_cooldown() {
        let mut config = FleetConfig::new(vec!["127.0.0.1:1".to_string()]);
        config.breaker_threshold = 2;
        config.breaker_cooldown = Duration::from_millis(30);
        let fleet = Fleet::new(config);
        let member = &fleet.membership.roster()[0];
        assert!(fleet.try_acquire(member));
        fleet.report_failure(member);
        assert!(
            fleet.try_acquire(member),
            "one failure is under the threshold"
        );
        fleet.report_failure(member);
        // Tripped: quarantined until the cooldown.
        assert!(!fleet.try_acquire(member));
        std::thread::sleep(Duration::from_millis(40));
        // Cooldown over: exactly one probe gets through.
        assert!(fleet.try_acquire(member));
        assert!(
            !fleet.try_acquire(member),
            "second probe refused in half-open"
        );
        // Failed probe: straight back open.
        fleet.report_failure(member);
        assert!(!fleet.try_acquire(member));
        std::thread::sleep(Duration::from_millis(40));
        assert!(fleet.try_acquire(member));
        fleet.report_success(member);
        // Healed: closed again, acquires freely.
        assert!(fleet.try_acquire(member));
        assert!(fleet.try_acquire(member));
        let snap = fleet.membership().stats();
        assert_eq!(snap.shards[0].breaker_opens, 2);
        assert_eq!(snap.shards[0].breaker, "closed");
    }

    #[test]
    fn admit_and_retire_reshape_the_roster_and_rotation() {
        let config = FleetConfig::new(vec!["127.0.0.1:1".to_string(), "127.0.0.1:2".to_string()]);
        let fleet = Fleet::new(config);
        let roster = fleet.membership();
        assert_eq!(roster.members(), vec!["127.0.0.1:1", "127.0.0.1:2"]);
        // next_available sees joiners immediately and honors exclude.
        let (epoch, changed) = roster.join("127.0.0.1:3");
        assert!(changed);
        assert_eq!(epoch, 2, "the first join after startup");
        let first = &fleet.membership.roster()[0];
        let mut rotation = 0usize;
        let pick = fleet.next_available(&mut rotation, Some(first)).unwrap();
        assert_ne!(pick.addr(), first.addr());
        // Retiring flags the member departed; a second retire is a
        // no-op.
        assert!(roster.leave("127.0.0.1:2").1);
        assert!(!roster.leave("127.0.0.1:2").1);
        assert_eq!(roster.members(), vec!["127.0.0.1:1", "127.0.0.1:3"]);
        let snap = fleet.membership().stats();
        assert_eq!(snap.members, 2);
        assert_eq!(snap.joins, 1);
        assert_eq!(snap.leaves, 1);
        let row = snap.shards.iter().find(|s| s.addr.ends_with(":2")).unwrap();
        assert!(row.departed, "retired member's row survives, flagged");
    }
}
