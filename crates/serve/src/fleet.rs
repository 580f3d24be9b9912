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
//!   winner ([`Tuner::refine_winner`]) is bit-equal to a local tune
//!   applying it to the same winner.
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
//! metrics registry (persisted across requests); range sizes are then
//! apportioned to shards by largest-remainder on those weights, so a
//! chronically slow shard gets a proportionally small range instead of
//! stalling the whole tune. Cold shards inherit the warm mean; an
//! all-cold fleet deterministically degenerates to the equal split.
//!
//! Robustness plumbing, per sub-range: bounded retries with
//! exponential backoff and deterministic jitter, hedged duplicate
//! requests past a straggler threshold (re-hedging is allowed once the
//! previous hedge demonstrably made progress), a per-shard circuit
//! breaker (closed → open on consecutive failures → half-open probe
//! after a cooldown), re-assignment of a failed shard's suffix to
//! survivors, and — when every shard path is down — local evaluation
//! of the *uncovered suffix only* on the coordinator's own pool.
//! Degradation changes latency, never the answer.
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
use fm_core::dataflow::DataflowGraph;
use fm_core::machine::MachineConfig;
use fm_core::search::{FigureOfMerit, MappingCandidate};
use fm_costmodel::CostModelKind;
use fm_workspan::ThreadPool;

use crate::fault::mix64;
use crate::membership::{Breaker, Member, Membership};
use crate::metrics::{breaker_state, FleetMetrics};
use crate::protocol::{
    decode_response_any, encode_request, encode_request_binary, read_frame_polled, write_frame,
    Request, Response, ShardBest, ShardReplyFlaw, TuneReply, TuneRequest, TuneShardBody,
    TuneShardPartBody, TuneShardRequest, WireCandidate, WireError, DEFAULT_MAX_FRAME,
};

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
    /// Minimum candidates per sub-range: below `2 ×` this a request is
    /// not worth sharding at all, and the partitioner never cuts a
    /// range smaller than this (weighted or not).
    pub min_shard_candidates: usize,
    /// Seed for deterministic backoff jitter (and nothing else — the
    /// *answer* never depends on it).
    pub jitter_seed: u64,
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
    /// uncovered suffix when its shard's EWMA throughput drops below
    /// this fraction of the shard's trailing peak while the range
    /// watermark stalls. `0.0` disables cliff detection.
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
    /// Fleet tunes without a fresh sample before a member's persisted
    /// weight decays fully back to cold (`0` disables decay).
    pub weight_decay_tunes: u64,
    /// Path of the crash-persistent weight ledger (`None` disables
    /// persistence). Written after every fleet tune; read once at
    /// startup with the autotune cache's corrupt-tolerant discipline.
    pub weight_ledger: Option<PathBuf>,
    /// Extra shard addresses admitted into the roster right after
    /// startup (the `--fleet-admit` re-dial list) — equivalent to a
    /// `ShardJoin` frame per address.
    pub admit: Vec<String>,
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
            min_shard_candidates: 2,
            jitter_seed: 0x5EED,
            stream_every: Some(16),
            weighted: true,
            binary_links: true,
            cliff_fraction: 0.35,
            cliff_stall: Duration::from_millis(200),
            cliff_quarantine_trips: 3,
            weight_decay_tunes: 64,
            weight_ledger: None,
            admit: Vec::new(),
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
    /// The living shard roster (elastic membership, weight ledger).
    membership: Membership,
    metrics: Arc<FleetMetrics>,
}

/// What one sub-range dispatch produced.
struct RangeOutcome {
    /// Candidates scored for this range (by shards, locally, or both).
    evaluated: u64,
    /// The range's winner as `(absolute index, mapping)`; `None` when
    /// nothing in the range was legal (or the range was cancelled).
    win: Option<(u64, TunedMapping)>,
    /// Whether cancellation cut this range short.
    cancelled: bool,
    /// Whether a shard other than the range's first choice answered.
    reassigned: bool,
    /// Whether the range (or its suffix) fell back to local
    /// evaluation.
    local: bool,
}

/// Shared per-range state: the request materials every attempt needs,
/// plus the merge ledger streamed parts fold into.
struct RangeShared {
    graph: DataflowGraph,
    machine: MachineConfig,
    fom: FigureOfMerit,
    /// The range's candidate slice; `candidates[0]` is absolute `lo`.
    candidates: Vec<WireCandidate>,
    lo: usize,
    hi: usize,
    epoch: u64,
    deadline: Option<Instant>,
    stream_every: Option<u64>,
    /// Cost backend name forwarded verbatim to every shard attempt
    /// (validated at coordinator admission).
    cost_model: Option<String>,
    progress: Mutex<Progress>,
    /// Latched once `covered == hi`: every attempt still in flight
    /// abandons (dropping its socket cancels the shard's sub-search).
    done: AtomicBool,
}

/// The merge ledger for one range. `covered` is the exclusive absolute
/// watermark: every candidate in `[lo, covered)` has been scored and
/// folded exactly once, by a verified frame or the local fallback.
struct Progress {
    covered: usize,
    evaluated: u64,
    best: Option<(u64, TunedMapping)>,
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

impl RangeShared {
    fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    fn covered(&self) -> usize {
        self.progress.lock().covered
    }

    /// Fold `(index, mapping)` into `best` with the ascending-order
    /// strict `<` that reproduces a flat scan's first minimum.
    fn fold_best(best: &mut Option<(u64, TunedMapping)>, win: Option<(u64, TunedMapping)>) {
        if let Some((idx, w)) = win {
            let better = match best {
                Some((_, b)) => w.score < b.score,
                None => true,
            };
            if better {
                *best = Some((idx, w));
            }
        }
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
        p.covered = end;
        p.evaluated += body.count;
        Self::fold_best(&mut p.best, body.best.clone().map(shard_best_to_win));
        if p.covered >= self.hi {
            self.done.store(true, Ordering::Release);
        }
        PartMerge::Merged
    }

    /// Merge a verified-complete terminal reply covering
    /// `[start_index, hi)`. Idempotent past the watermark: candidates
    /// already covered by streamed parts are not recounted, and the
    /// reply's best — the first minimum over its whole span — folds as
    /// a no-op against chunk bests already merged (equal scores lose
    /// to the earlier entry under strict `<`).
    fn merge_terminal(&self, body: &TuneShardBody) {
        let mut p = self.progress.lock();
        let span_end = (body.start_index + body.count) as usize;
        if span_end > p.covered {
            p.evaluated += (span_end - p.covered) as u64;
            p.covered = span_end;
        }
        Self::fold_best(&mut p.best, body.best.clone().map(shard_best_to_win));
        if p.covered >= self.hi {
            self.done.store(true, Ordering::Release);
        }
    }

    /// Fold the local fallback's report over the suffix starting at
    /// absolute index `suffix_lo`.
    fn merge_local(&self, suffix_lo: usize, report: fm_autotune::TuneReport) {
        let mut p = self.progress.lock();
        p.evaluated += report.evaluated as u64;
        p.covered = self.hi.min(suffix_lo + report.evaluated);
        Self::fold_best(
            &mut p.best,
            report
                .best_index
                .zip(report.best)
                .map(|(i, b)| ((suffix_lo + i) as u64, b)),
        );
        if p.covered >= self.hi {
            self.done.store(true, Ordering::Release);
        }
    }

    fn outcome(&self, cancelled: bool, reassigned: bool, local: bool) -> RangeOutcome {
        let p = self.progress.lock();
        RangeOutcome {
            evaluated: p.evaluated,
            win: p.best.clone(),
            cancelled,
            reassigned,
            local,
        }
    }
}

fn shard_best_to_win(b: ShardBest) -> (u64, TunedMapping) {
    (
        b.index,
        TunedMapping {
            label: b.label,
            resolved: b.resolved,
            report: b.report,
            score: b.score,
        },
    )
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
    /// Build a coordinator over `config.shards` (plus `config.admit`),
    /// seeding weights and breaker state from the ledger when one
    /// loads.
    pub fn new(config: FleetConfig) -> Arc<Fleet> {
        let metrics = Arc::new(FleetMetrics::new());
        let membership = Membership::new(
            &config.shards,
            Arc::clone(&metrics),
            config.weight_ledger.clone(),
            config.weight_decay_tunes,
            config.breaker_cooldown,
        );
        for addr in &config.admit {
            membership.join(addr);
        }
        Arc::new(Fleet {
            config,
            epoch: AtomicU64::new(1),
            membership,
            metrics,
        })
    }

    /// The coordinator's metrics registry (for the `Stats` endpoint).
    pub fn metrics(&self) -> Arc<FleetMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Admit a shard into the running fleet (`ShardJoin`). Idempotent;
    /// returns `(membership epoch, changed)`.
    pub fn admit(&self, addr: &str) -> (u64, bool) {
        self.membership.join(addr)
    }

    /// Retire a shard from the running fleet (`ShardLeave`). Its
    /// in-flight ranges are re-dispatched from their covered watermark
    /// the moment their attempts notice. Idempotent; returns
    /// `(membership epoch, changed)`.
    pub fn retire(&self, addr: &str) -> (u64, bool) {
        self.membership.leave(addr)
    }

    /// Live member addresses, in roster order.
    pub fn members(&self) -> Vec<String> {
        self.membership.members()
    }

    /// Current membership epoch.
    pub fn membership_epoch(&self) -> u64 {
        self.membership.epoch()
    }

    /// Should this request take the fleet path? Cache users and
    /// convergence-window users stay local (see the module docs); tiny
    /// candidate lists are not worth the network round-trip. An empty
    /// roster still takes the fleet path so churn down to zero members
    /// degrades to coordinator-local evaluation, not a refusal.
    pub fn eligible(&self, req: &TuneRequest) -> bool {
        req.convergence_window.is_none()
            && !req.use_cache
            && req.candidates.len() >= self.config.min_shard_candidates.max(1) * 2
    }

    /// May an attempt go to `member` right now? Closed passes; open
    /// passes only once its cooldown elapsed (becoming the half-open
    /// probe); half-open refuses (a probe is already out).
    fn try_acquire(&self, member: &Member) -> bool {
        let mut b = member.breaker.lock();
        match *b {
            Breaker::Closed { .. } => true,
            Breaker::HalfOpen => false,
            Breaker::Open { until } => {
                if Instant::now() >= until {
                    *b = Breaker::HalfOpen;
                    member
                        .metrics
                        .state
                        .store(breaker_state::HALF_OPEN, Ordering::Relaxed);
                    true
                } else {
                    false
                }
            }
        }
    }

    fn report_success(&self, member: &Member) {
        member.metrics.successes.fetch_add(1, Ordering::Relaxed);
        let mut b = member.breaker.lock();
        *b = Breaker::Closed {
            consecutive_failures: 0,
        };
        member
            .metrics
            .state
            .store(breaker_state::CLOSED, Ordering::Relaxed);
    }

    fn report_failure(&self, member: &Member) {
        member.metrics.failures.fetch_add(1, Ordering::Relaxed);
        let mut b = member.breaker.lock();
        let trip = match *b {
            Breaker::Closed {
                consecutive_failures,
            } => {
                let n = consecutive_failures + 1;
                if n >= self.config.breaker_threshold.max(1) {
                    true
                } else {
                    *b = Breaker::Closed {
                        consecutive_failures: n,
                    };
                    false
                }
            }
            Breaker::HalfOpen => true, // failed probe: straight back open
            Breaker::Open { .. } => false,
        };
        if trip {
            *b = Breaker::Open {
                until: Instant::now() + self.config.breaker_cooldown,
            };
            member
                .metrics
                .state
                .store(breaker_state::OPEN, Ordering::Relaxed);
            member.metrics.breaker_opens.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Quarantine `member`: trip its breaker open for one cooldown,
    /// regardless of its consecutive-failure count. Fired by the cliff
    /// detector once a shard has collapsed
    /// [`FleetConfig::cliff_quarantine_trips`] times — its attempts
    /// keep *succeeding* (so the failure breaker never trips) but each
    /// collapse costs a speculative re-dispatch; opening the breaker
    /// routes primaries elsewhere until the half-open probe shows the
    /// shard recovered.
    fn quarantine(&self, member: &Member) {
        let mut b = member.breaker.lock();
        *b = Breaker::Open {
            until: Instant::now() + self.config.breaker_cooldown,
        };
        member
            .metrics
            .state
            .store(breaker_state::OPEN, Ordering::Relaxed);
        member.metrics.breaker_opens.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .cliff_quarantines
            .fetch_add(1, Ordering::Relaxed);
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
        if n == 0 {
            return None;
        }
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
    pub fn tune(
        self: &Arc<Fleet>,
        req: &TuneRequest,
        cancel: &CancelToken,
        deadline: Option<Instant>,
        pool: &ThreadPool,
    ) -> TuneReply {
        let start = Instant::now();
        self.metrics.fleet_tunes.fetch_add(1, Ordering::Relaxed);
        self.membership.begin_tune();
        let epoch = self.epoch.fetch_add(1, Ordering::Relaxed);

        let offered = req.candidates.len();
        let cap = req
            .max_candidates
            .map_or(offered, |n| (n as usize).min(offered));
        // The coordinator's model was validated at admission; local
        // fallback evaluation must charge the same backend the shards
        // were asked for, or merged winners would mix scoring rules.
        let cost_model = req
            .cost_model
            .as_deref()
            .and_then(CostModelKind::from_name)
            .unwrap_or_default();
        let evaluator = Evaluator::new(&req.graph, &req.machine).with_cost_model(cost_model);
        let local_candidates: Vec<MappingCandidate> = req.candidates[..cap]
            .iter()
            .map(|c| MappingCandidate::new(c.label.clone(), c.mapping.clone()))
            .collect();

        // Freeze the roster for partitioning; attempts inside each
        // range still consult the live roster, so members joining
        // mid-tune pick up re-dispatched suffixes.
        let roster = self.membership.roster();
        if roster.is_empty() {
            // Churned down to zero members: coordinator-local
            // evaluation. Slower, same answer.
            self.metrics.degraded_tunes.fetch_add(1, Ordering::Relaxed);
            let mut budget = Budget::unlimited();
            if let Some(d) = deadline {
                budget.deadline = Some(d.saturating_duration_since(Instant::now()));
            }
            let report = Tuner::new(&evaluator, &req.graph, &req.machine, req.fom)
                .with_pool(pool)
                .with_budget(budget)
                .with_cancel(cancel.clone())
                .tune(&local_candidates);
            let mut best = report.best;
            let mut cancelled = report.cancelled;
            if let Some(b) = best.as_mut() {
                if !cancelled {
                    if let Some(r) = req.refinement {
                        cancelled = Tuner::new(&evaluator, &req.graph, &req.machine, req.fom)
                            .with_pool(pool)
                            .with_refinement(r)
                            .with_cancel(cancel.clone())
                            .refine_winner(b);
                    }
                }
            }
            self.membership.persist();
            return TuneReply {
                best,
                offered: offered as u64,
                evaluated: report.evaluated as u64,
                pruned: (offered as u64).saturating_sub(report.evaluated as u64),
                cache: "disabled".to_string(),
                fell_back: report.fell_back,
                cancelled,
                wall_ms: start.elapsed().as_secs_f64() * 1e3,
            };
        }
        let plan: Vec<(usize, usize, usize)> = if self.config.weighted {
            partition_weighted(
                cap,
                roster.len(),
                self.config.min_shard_candidates,
                &self.membership.live_weights(&roster),
            )
        } else {
            partition(cap, roster.len(), self.config.min_shard_candidates)
                .into_iter()
                .enumerate()
                .map(|(i, (lo, hi))| (lo, hi, i % roster.len().max(1)))
                .collect()
        };
        let outcomes: Vec<RangeOutcome> = std::thread::scope(|s| {
            let handles: Vec<_> = plan
                .iter()
                .enumerate()
                .map(|(ri, &(lo, hi, preferred_pos))| {
                    let fleet = Arc::clone(self);
                    let req = &*req;
                    let locals = &local_candidates[lo..hi];
                    let evaluator = &evaluator;
                    let preferred = Arc::clone(&roster[preferred_pos]);
                    s.spawn(move || {
                        run_range(
                            &fleet,
                            req,
                            evaluator,
                            locals,
                            lo,
                            hi,
                            ri,
                            preferred,
                            preferred_pos,
                            epoch,
                            deadline,
                            cancel,
                            pool,
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or(RangeOutcome {
                        evaluated: 0,
                        win: None,
                        cancelled: true,
                        reassigned: false,
                        local: false,
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
            if o.reassigned {
                self.metrics.reassignments.fetch_add(1, Ordering::Relaxed);
            }
            if let Some((idx, win)) = o.win {
                let better = match &best {
                    Some((_, b)) => win.score < b.score,
                    None => true,
                };
                if better {
                    best = Some((idx, win));
                }
            }
        }
        if all_local {
            self.metrics.degraded_tunes.fetch_add(1, Ordering::Relaxed);
        }
        // Bank what this tune learned about the machines: a restarted
        // coordinator partitions its first tune weighted, not cold.
        self.membership.persist();

        // Nothing legal anywhere: the same default-mapper fallback a
        // single-machine tune produces.
        let mut fell_back = false;
        let mut best_mapping = match best {
            Some((_, b)) => Some(b),
            None => {
                let report = Tuner::new(&evaluator, &req.graph, &req.machine, req.fom).tune(&[]);
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
                    cancelled = Tuner::new(&evaluator, &req.graph, &req.machine, req.fom)
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

/// Split `[0, cap)` into at most `nshards` contiguous ranges of at
/// least `min_per` candidates each (the last takes the remainder).
fn partition(cap: usize, nshards: usize, min_per: usize) -> Vec<(usize, usize)> {
    if cap == 0 || nshards == 0 {
        return Vec::new();
    }
    let nranges = (cap / min_per.max(1)).clamp(1, nshards);
    let base = cap / nranges;
    let extra = cap % nranges;
    let mut ranges = Vec::with_capacity(nranges);
    let mut lo = 0;
    for i in 0..nranges {
        let len = base + usize::from(i < extra);
        ranges.push((lo, lo + len));
        lo += len;
    }
    ranges
}

/// Latency-weighted split: `[0, cap)` into at most `nshards`
/// contiguous ranges sized by largest-remainder apportionment over
/// per-shard EWMA throughput `weights` (candidates/second; 0 = cold).
/// Returns `(lo, hi, preferred_shard)` per range.
///
/// Deterministic fallbacks keep cold starts exact: a cold shard's
/// weight is the mean of the warm ones, and an all-cold (or uniform)
/// fleet produces byte-identical sizes to [`partition`], preferring
/// shards in index order. `min_per` is enforced after apportionment by
/// transferring candidates from the largest range, so a near-zero
/// weight shrinks a range to the floor, never below it.
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
    // (which also makes the uniform case identical to the unweighted
    // round-robin placement).
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
    // leftovers go to the lowest positions — exactly `partition`'s
    // `i < extra` rule.
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
        mix64(config.jitter_seed ^ epoch.rotate_left(17) ^ (range as u64) << 8 ^ wave as u64)
            % half;
    exp / 2 + Duration::from_nanos(half / 2 + jitter / 2) // in [exp/2, exp]
}

/// Drive one sub-range to a verified result: waves of shard attempts
/// (with progress-aware hedging, throughput-cliff re-dispatch, and
/// departure re-dispatch inside a wave, backoff between waves), each
/// dispatching only the still-uncovered suffix, then local evaluation
/// of whatever remains when the network is out of options.
#[allow(clippy::too_many_arguments)]
fn run_range(
    fleet: &Arc<Fleet>,
    req: &TuneRequest,
    evaluator: &Evaluator,
    locals: &[MappingCandidate],
    lo: usize,
    hi: usize,
    range_idx: usize,
    preferred: Arc<Member>,
    preferred_pos: usize,
    epoch: u64,
    deadline: Option<Instant>,
    cancel: &CancelToken,
    pool: &ThreadPool,
) -> RangeOutcome {
    let range = Arc::new(RangeShared {
        graph: req.graph.clone(),
        machine: req.machine.clone(),
        fom: req.fom,
        candidates: req.candidates[lo..hi].to_vec(),
        lo,
        hi,
        epoch,
        deadline,
        stream_every: fleet.config.stream_every.filter(|&k| k > 0),
        cost_model: req.cost_model.clone(),
        progress: Mutex::new(Progress {
            covered: lo,
            evaluated: 0,
            best: None,
        }),
        done: AtomicBool::new(false),
    });
    let (tx, rx) = mpsc::channel::<(Arc<Member>, bool, AttemptEnd)>();

    let spawn_attempt = |member: Arc<Member>, hedge: bool, attempt_lo: usize| {
        let fleet = Arc::clone(fleet);
        let range = Arc::clone(&range);
        let cancel = cancel.clone();
        let tx = tx.clone();
        if attempt_lo > lo {
            fleet
                .metrics
                .suffix_redispatches
                .fetch_add(1, Ordering::Relaxed);
        }
        std::thread::Builder::new()
            .name("fm-fleet-attempt".to_string())
            .spawn(move || {
                let result = run_attempt(&fleet, &member, &range, attempt_lo, &cancel);
                let _ = tx.send((member, hedge, result));
            })
            .expect("spawn fleet attempt thread");
    };

    let mut rotation = preferred_pos;
    let mut wave = 0u32;
    'waves: while wave < fleet.config.attempts.max(1) {
        if cancel.is_cancelled() || range.is_done() {
            break;
        }
        let Some(primary) = fleet.next_available(&mut rotation, None) else {
            break; // every breaker is open: the network has no path
        };
        if wave > 0 {
            fleet.metrics.retries.fetch_add(1, Ordering::Relaxed);
        }
        let wave_start = Instant::now();
        spawn_attempt(Arc::clone(&primary), false, range.covered());
        let mut in_flight = 1u32;
        // Progress-aware hedging: the first hedge fires once the wave
        // is overdue; a further hedge is allowed each time the covered
        // watermark has advanced since the last one (someone is alive
        // but slow) and another hedge interval has elapsed. Cliff and
        // departure re-dispatches share the same gate, so one stall
        // never sprays duplicates.
        let mut last_hedge: Option<Instant> = None;
        let mut covered_at_last_hedge = 0usize;
        // Cliff detection watches how long the covered watermark has
        // sat still.
        let mut covered_last_seen = range.covered();
        let mut last_advance = Instant::now();
        while in_flight > 0 {
            match rx.recv_timeout(Duration::from_millis(25)) {
                Ok((member, was_hedge, AttemptEnd::Covered)) => {
                    range.done.store(true, Ordering::Release);
                    if was_hedge {
                        fleet.metrics.hedge_wins.fetch_add(1, Ordering::Relaxed);
                    }
                    return range.outcome(false, !Arc::ptr_eq(&member, &preferred), false);
                }
                Ok((_, _, AttemptEnd::Failed { saved })) => {
                    if saved > 0 {
                        fleet
                            .metrics
                            .prefix_candidates_saved
                            .fetch_add(saved, Ordering::Relaxed);
                    }
                    if range.is_done() {
                        // The failing attempt's parts completed the
                        // range even though its terminal never
                        // verified.
                        return range.outcome(false, false, false);
                    }
                    in_flight -= 1;
                }
                Ok((member, _, AttemptEnd::Abandoned)) => {
                    if range.is_done() {
                        return range.outcome(false, false, false);
                    }
                    in_flight -= 1;
                    // A member that left the roster abandons its
                    // attempt without blame; pick its uncovered suffix
                    // up on a healthy member right away instead of
                    // waiting out the wave.
                    if member.metrics.is_departed() && !cancel.is_cancelled() {
                        if let Some(buddy) = fleet.next_available(&mut rotation, Some(&member)) {
                            fleet
                                .metrics
                                .departed_redispatches
                                .fetch_add(1, Ordering::Relaxed);
                            let covered_now = range.covered();
                            spawn_attempt(buddy, true, covered_now);
                            in_flight += 1;
                            last_hedge = Some(Instant::now());
                            covered_at_last_hedge = covered_now;
                        }
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if cancel.is_cancelled() {
                        break 'waves;
                    }
                    let covered_now = range.covered();
                    if covered_now > covered_last_seen {
                        covered_last_seen = covered_now;
                        last_advance = Instant::now();
                    }
                    let hedge_fire = match fleet.config.hedge_after {
                        None => false,
                        Some(hedge_after) => match last_hedge {
                            None => wave_start.elapsed() >= hedge_after,
                            Some(at) => {
                                covered_now > covered_at_last_hedge && at.elapsed() >= hedge_after
                            }
                        },
                    };
                    // Speculative re-partition on throughput collapse:
                    // the primary's EWMA fell below the configured
                    // fraction of its trailing peak while the range
                    // watermark stalled. The stall also *implies* a
                    // rate bound (one chunk in `stalled` seconds), so a
                    // shard that simply stopped streaming is caught
                    // before the slow EWMA catches down to it.
                    let stalled = last_advance.elapsed();
                    let fraction = fleet.config.cliff_fraction;
                    let in_cliff = fraction > 0.0 && stalled >= fleet.config.cliff_stall && {
                        let m = &preferred.metrics;
                        let (ewma, peak) = (m.ewma_rate(), m.peak_rate());
                        let chunk = range.stream_every.unwrap_or((hi - lo) as u64).max(1);
                        let implied = chunk as f64 / stalled.as_secs_f64();
                        ewma > 0.0 && peak > 0.0 && ewma.min(implied) < fraction * peak
                    };
                    let cliff_fire = in_cliff
                        && match last_hedge {
                            None => true,
                            Some(at) => {
                                covered_now > covered_at_last_hedge
                                    && at.elapsed() >= fleet.config.cliff_stall
                            }
                        };
                    if hedge_fire || cliff_fire {
                        if let Some(buddy) = fleet.next_available(&mut rotation, Some(&primary)) {
                            if cliff_fire && !hedge_fire {
                                fleet
                                    .metrics
                                    .cliff_redispatches
                                    .fetch_add(1, Ordering::Relaxed);
                                // Repeated collapse → quarantine: the
                                // shard's attempts succeed (the
                                // failure breaker never sees them),
                                // so the cliff count is what takes a
                                // chronically slow shard out of
                                // rotation.
                                let trips = preferred
                                    .metrics
                                    .cliff_trips
                                    .fetch_add(1, Ordering::Relaxed)
                                    + 1;
                                let quarantine_at = fleet.config.cliff_quarantine_trips;
                                if quarantine_at > 0
                                    && trips.is_multiple_of(u64::from(quarantine_at))
                                {
                                    fleet.quarantine(&preferred);
                                }
                            } else {
                                fleet.metrics.hedges.fetch_add(1, Ordering::Relaxed);
                            }
                            spawn_attempt(buddy, true, covered_now);
                            in_flight += 1;
                            last_hedge = Some(Instant::now());
                            covered_at_last_hedge = covered_now;
                        }
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => break 'waves,
            }
        }
        // The whole wave failed: back off (cancellably), then retry.
        wave += 1;
        if wave < fleet.config.attempts {
            let mut left = backoff_with_jitter(&fleet.config, epoch, range_idx, wave - 1);
            while left > Duration::ZERO && !cancel.is_cancelled() {
                let step = left.min(Duration::from_millis(20));
                std::thread::sleep(step);
                left = left.saturating_sub(step);
            }
        }
    }
    range.done.store(true, Ordering::Release); // abandon any straggler attempt

    if cancel.is_cancelled() {
        return range.outcome(true, false, false);
    }
    if range.covered() >= hi {
        return range.outcome(false, false, false);
    }

    // Graceful degradation: score the *uncovered suffix* right here.
    // Slower, never wrong — the same pure evaluation the shard would
    // have run, minus everything streamed parts already banked.
    fleet
        .metrics
        .local_fallback_ranges
        .fetch_add(1, Ordering::Relaxed);
    let suffix_lo = range.covered();
    let mut budget = Budget::unlimited();
    if let Some(d) = deadline {
        budget.deadline = Some(d.saturating_duration_since(Instant::now()));
    }
    let report = Tuner::new(evaluator, &req.graph, &req.machine, req.fom)
        .with_pool(pool)
        .with_budget(budget)
        .with_cancel(cancel.clone())
        .tune(&locals[suffix_lo - lo..]);
    let cancelled = report.cancelled;
    range.merge_local(suffix_lo, report);
    range.outcome(cancelled, false, true)
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
    let m = &member.metrics;
    m.sends.fetch_add(1, Ordering::Relaxed);
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
    let request = Request::TuneShard(TuneShardRequest {
        graph: range.graph.clone(),
        machine: range.machine.clone(),
        fom: range.fom,
        candidates: range.candidates[attempt_lo - range.lo..].to_vec(),
        start_index: attempt_lo as u64,
        epoch: range.epoch,
        deadline_ms: range
            .deadline
            .map(|d| (d.saturating_duration_since(Instant::now()).as_millis() as u64).max(1)),
        stream_every: range.stream_every,
        cost_model: range.cost_model.clone(),
    });
    let payload = if binary {
        encode_request_binary(range.epoch, &request)
    } else {
        encode_request(&request)
    };
    if write_frame(&mut stream, &payload).is_err() {
        fleet.report_failure(member);
        return AttemptEnd::Failed { saved: 0 };
    }

    // Per-frame consume loop. `saved` counts candidates this attempt
    // merged; if the attempt later dies they are the streamed prefix a
    // blocking protocol would have re-evaluated.
    let mut saved = 0u64;
    let mut last_mark = Instant::now();
    let fail = |flaw: Option<&ShardReplyFlaw>, saved: u64| {
        if let Some(flaw) = flaw {
            let counter = match flaw {
                ShardReplyFlaw::BadChecksum { .. } => &fleet.metrics.corrupt_discarded,
                ShardReplyFlaw::StaleEpoch { .. } => &fleet.metrics.stale_discarded,
                ShardReplyFlaw::Incomplete { .. } => &fleet.metrics.incomplete_discarded,
            };
            counter.fetch_add(1, Ordering::Relaxed);
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
            if range.done.load(Ordering::Acquire)
                || cancel.is_cancelled()
                || m.departed.load(Ordering::Acquire)
            {
                Some(ReadStop::Abandoned)
            } else {
                (Instant::now() >= until).then_some(ReadStop::Failed)
            }
        });
        match frame {
            Ok(bytes) => match decode_response_any(&bytes).map(|(_, r, _)| r) {
                Ok(Response::TuneShardPart(part)) => {
                    if let Err(flaw) = part.verify(range.epoch) {
                        fleet
                            .metrics
                            .parts_discarded
                            .fetch_add(1, Ordering::Relaxed);
                        return fail(Some(&flaw), saved);
                    }
                    match range.merge_part(&part.body) {
                        PartMerge::Merged => {
                            fleet.metrics.parts_merged.fetch_add(1, Ordering::Relaxed);
                            m.parts.fetch_add(1, Ordering::Relaxed);
                            m.observe_rate(part.body.count, last_mark.elapsed());
                            m.mark_fresh(fleet.membership.generation());
                            last_mark = Instant::now();
                            saved += part.body.count;
                            if range.is_done() {
                                fleet.report_success(member);
                                return AttemptEnd::Covered;
                            }
                            until = frame_deadline(); // progress resets the clock
                        }
                        PartMerge::Duplicate => {
                            // A hedge already banked this chunk; the
                            // frame still proves the shard is alive.
                            until = frame_deadline();
                        }
                        PartMerge::OutOfSync => {
                            fleet
                                .metrics
                                .parts_discarded
                                .fetch_add(1, Ordering::Relaxed);
                            return fail(None, saved);
                        }
                    }
                }
                Ok(Response::TuneSharded(reply)) => {
                    return match reply.verify(range.epoch) {
                        Ok(()) => {
                            // The suffix past this attempt's own
                            // streamed parts was evaluated since the
                            // last mark (the whole span, if none).
                            m.observe_rate(
                                reply.body.count.saturating_sub(saved),
                                last_mark.elapsed(),
                            );
                            m.mark_fresh(fleet.membership.generation());
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

    #[test]
    fn partition_covers_exactly_and_respects_minimum() {
        for cap in 0..40 {
            for nshards in 1..6 {
                let ranges = partition(cap, nshards, 3);
                // Coverage: contiguous, exact.
                let mut expect = 0;
                for &(lo, hi) in &ranges {
                    assert_eq!(lo, expect);
                    assert!(hi > lo);
                    expect = hi;
                }
                assert_eq!(expect, cap);
                assert!(ranges.len() <= nshards);
                // Minimum size (single-range lists may be smaller).
                if ranges.len() > 1 {
                    for &(lo, hi) in &ranges {
                        assert!(hi - lo >= 3, "range {lo}..{hi} under minimum");
                    }
                }
            }
        }
    }

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
                let equal = partition(cap, nshards, 2);
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

    #[test]
    fn range_progress_merges_contiguous_parts_and_flags_the_rest() {
        let range = RangeShared {
            graph: DataflowGraph::new("progress", 32),
            machine: MachineConfig::linear(4),
            fom: FigureOfMerit::Time,
            candidates: Vec::new(),
            lo: 8,
            hi: 16,
            epoch: 1,
            deadline: None,
            stream_every: Some(4),
            cost_model: None,
            progress: Mutex::new(Progress {
                covered: 8,
                evaluated: 0,
                best: None,
            }),
            done: AtomicBool::new(false),
        };
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
        assert_eq!(range.outcome(false, false, false).evaluated, 8);
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
        let snap = fleet.metrics().snapshot();
        assert_eq!(snap.shards[0].breaker_opens, 2);
        assert_eq!(snap.shards[0].breaker, "closed");
    }

    #[test]
    fn admit_and_retire_reshape_the_roster_and_rotation() {
        let mut config = FleetConfig::new(vec!["127.0.0.1:1".to_string()]);
        config.admit = vec!["127.0.0.1:2".to_string()];
        let fleet = Fleet::new(config);
        assert_eq!(fleet.members(), vec!["127.0.0.1:1", "127.0.0.1:2"]);
        assert_eq!(fleet.membership_epoch(), 2, "the admit list counts");
        // next_available sees joiners immediately and honors exclude.
        let (epoch, changed) = fleet.admit("127.0.0.1:3");
        assert!(changed);
        assert_eq!(epoch, 3);
        let first = &fleet.membership.roster()[0];
        let mut rotation = 0usize;
        let pick = fleet.next_available(&mut rotation, Some(first)).unwrap();
        assert_ne!(pick.addr(), first.addr());
        // Retiring flags the member departed; a second retire is a
        // no-op.
        assert!(fleet.retire("127.0.0.1:2").1);
        assert!(!fleet.retire("127.0.0.1:2").1);
        assert_eq!(fleet.members(), vec!["127.0.0.1:1", "127.0.0.1:3"]);
        let snap = fleet.metrics().snapshot();
        assert_eq!(snap.members, 2);
        assert_eq!(snap.joins, 2);
        assert_eq!(snap.leaves, 1);
        let row = snap.shards.iter().find(|s| s.addr.ends_with(":2")).unwrap();
        assert!(row.departed, "retired member's row survives, flagged");
    }
}
