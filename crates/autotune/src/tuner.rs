//! The tuner: budgeted candidate evaluation with deterministic winner
//! selection, optional parallel fan-out, and cache replay.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use fm_core::cost::{CostReport, Evaluator};
use fm_core::dataflow::DataflowGraph;
use fm_core::delta::DeltaCandidates;
use fm_core::flat::BatchEvaluator;
use fm_core::legality::check;
use fm_core::machine::MachineConfig;
use fm_core::mapping::ResolvedMapping;
use fm_core::mutate::AppliedEdit;
use fm_core::search::{
    anneal_until, assemble_outcome, default_mapper, AnnealBackend, CandidateEval, FigureOfMerit,
    MappingCandidate, SearchOutcome,
};
use fm_workspan::{par_map, par_map_until_cancel, ThreadPool};

use crate::cache::{CacheEntry, TuningCache, CACHE_SCHEMA_VERSION};
use crate::fingerprint::fingerprint_with_model;

/// Evaluation budgets. The default is unlimited: every candidate is
/// evaluated, exactly like [`fm_core::search::search`].
///
/// Budget decisions are taken **per candidate, in index order** — the
/// serial loop and the work-stealing parallel path share the same
/// ordered reduction ([`fm_workspan::par_map_until`]), so both stop at
/// the identical candidate for the deterministic budgets.
#[derive(Debug, Clone, Copy, Default)]
pub struct Budget {
    /// Evaluate at most this many candidates (a deterministic prefix
    /// of the candidate list).
    pub max_candidates: Option<usize>,
    /// Stop evaluating at the first candidate whose ordered reduction
    /// lands past this wall-clock deadline. Timing-dependent by nature:
    /// the one budget under which serial and parallel runs may see
    /// different prefixes.
    pub deadline: Option<Duration>,
    /// Early-stop once this many consecutive candidates have failed to
    /// improve the best score (checked per candidate in index order, so
    /// the stopping point is deterministic and schedule-independent).
    pub convergence_window: Option<usize>,
}

/// A shared, clonable cancellation flag.
///
/// Hand one copy to [`Tuner::with_cancel`] and keep another on the
/// thread that knows when the result is no longer wanted (a deadline
/// watchdog, a disconnect detector). The tuner checks it **between
/// candidate evaluations** — before each candidate starts on the serial
/// path, and via [`fm_workspan::par_map_until_cancel`]'s pre-check on
/// the parallel path — and before every annealing move of a
/// refinement, so a cancelled tune stops burning cores promptly and
/// returns a well-formed partial [`TuneReport`] (with
/// [`TuneReport::cancelled`] set) instead of running its budget out.
///
/// Cancellation is a one-way latch: there is no reset. Build a fresh
/// token per request.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Latch the token. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Has [`CancelToken::cancel`] been called on any clone?
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }

    /// The underlying flag (for `fm-workspan`'s cancel-aware loops).
    pub fn as_atomic(&self) -> &AtomicBool {
        &self.0
    }
}

impl Budget {
    /// No limits (the default).
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// Cap the number of candidates evaluated.
    pub fn with_max_candidates(mut self, n: usize) -> Budget {
        self.max_candidates = Some(n);
        self
    }

    /// Set a wall-clock deadline.
    pub fn with_deadline(mut self, d: Duration) -> Budget {
        self.deadline = Some(d);
        self
    }

    /// Stop after `window` candidates without improvement.
    pub fn with_convergence_window(mut self, window: usize) -> Budget {
        self.convergence_window = Some(window);
        self
    }
}

/// Multi-chain annealing refinement applied to the tuner's winner.
///
/// `chains` independent annealing runs start from the winning mapping
/// with seeds `seed`, `seed + 1`, …; the lowest-scoring chain (ties →
/// lowest chain index) replaces the winner iff it strictly improves the
/// score. Winner selection depends only on the seeds, never on the
/// thread schedule, so refined results stay reproducible and cacheable.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Refinement {
    /// Number of independent annealing chains.
    pub chains: usize,
    /// Iterations per chain.
    pub iters: u32,
    /// Base RNG seed; chain `k` uses `seed + k`.
    pub seed: u64,
}

/// What a [`Refinement`] did to the winner (see
/// [`TuneReport::refinement`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefinementOutcome {
    /// Annealing chains run.
    pub chains: usize,
    /// The best chain's score (lowest; ties go to the lowest chain).
    pub best_score: f64,
    /// Whether that chain replaced the winner (it scored strictly
    /// lower).
    pub replaced: bool,
}

/// A refinement the tuner's [`CancelToken`] interrupted.
struct Interrupted;

/// Shared best-so-far bookkeeping. Fed with candidate evaluations in
/// strict index order — by the serial loop directly, and by the
/// parallel path through `par_map_until`'s ordered reduction — so both
/// make identical budget decisions and stop at the identical candidate.
struct Frontier<'b> {
    budget: &'b Budget,
    cancel: Option<&'b CancelToken>,
    start: Instant,
    best_idx: Option<usize>,
    best_score: f64,
    last_improvement: usize,
    trajectory: Vec<(usize, f64)>,
}

impl<'b> Frontier<'b> {
    fn new(budget: &'b Budget, cancel: Option<&'b CancelToken>, start: Instant) -> Self {
        Frontier {
            budget,
            cancel,
            start,
            best_idx: None,
            best_score: f64::INFINITY,
            last_improvement: 0,
            trajectory: Vec::new(),
        }
    }

    /// Fold in candidate `i`'s evaluation; `true` means stop after it.
    fn feed(&mut self, i: usize, eval: &CandidateEval) -> bool {
        if let CandidateEval::Legal { score, .. } = eval {
            // Strict `<`: ties keep the earlier candidate, the same
            // rule as assemble_outcome's stable sort.
            if *score < self.best_score {
                self.best_score = *score;
                self.best_idx = Some(i);
                self.last_improvement = i;
                self.trajectory.push((i, *score));
            }
        }
        if let Some(window) = self.budget.convergence_window {
            if self.best_idx.is_some() && (i + 1) - self.last_improvement >= window {
                return true;
            }
        }
        if let Some(deadline) = self.budget.deadline {
            if self.start.elapsed() >= deadline {
                return true;
            }
        }
        if let Some(token) = self.cancel {
            if token.is_cancelled() {
                return true;
            }
        }
        false
    }
}

/// How the cache participated in a tuning run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// No cache configured.
    Disabled,
    /// No usable entry; searched cold (and stored the result).
    Miss,
    /// Entry replayed; candidate evaluation skipped entirely.
    Hit,
    /// Entry found but its mapping is no longer legal; searched cold.
    Stale,
}

impl std::fmt::Display for CacheStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CacheStatus::Disabled => "disabled",
            CacheStatus::Miss => "miss",
            CacheStatus::Hit => "hit",
            CacheStatus::Stale => "stale",
        })
    }
}

/// A winning mapping: what the cache persists and the tuner returns.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TunedMapping {
    /// Label of the winning candidate (or `"default-mapper (fallback)"`).
    pub label: String,
    /// The resolved mapping, replayable without re-searching.
    pub resolved: ResolvedMapping,
    /// Its cost report.
    pub report: CostReport,
    /// Its score under the tuning objective (lower is better).
    pub score: f64,
}

/// Counters and results from one [`Tuner::tune`] call.
#[derive(Debug, Clone)]
pub struct TuneReport {
    /// Objective tuned for.
    pub fom: FigureOfMerit,
    /// Total candidates offered.
    pub offered: usize,
    /// Candidates actually evaluated.
    pub evaluated: usize,
    /// Candidates skipped by budgets (`offered - evaluated`).
    pub pruned: usize,
    /// How the cache participated.
    pub cache: CacheStatus,
    /// Whether the winner came from the default-mapper fallback.
    pub fell_back: bool,
    /// Whether a [`CancelToken`] aborted the run early. The report is
    /// still well-formed: `outcome`/`trajectory`/`best` cover the
    /// prefix that was evaluated before the abort (refinement is
    /// skipped, or discarded if the abort interrupted it, and nothing
    /// is written to the cache).
    pub cancelled: bool,
    /// Wall-clock time of the whole call.
    pub wall: Duration,
    /// Best-so-far trajectory: (candidate index, score) at each
    /// improvement, in evaluation order.
    pub trajectory: Vec<(usize, f64)>,
    /// Full search outcome over the evaluated prefix (empty on a cache
    /// hit — the point of the cache is not re-evaluating).
    pub outcome: SearchOutcome,
    /// Index into the offered candidate list of the winning candidate.
    /// `None` when the winner is the default-mapper fallback, when no
    /// mapping was legal, or on a cache hit (the cache stores the
    /// winner, not its position). Distributed searches merge sub-range
    /// winners by `(score, index)`, so the index travels with the
    /// report.
    pub best_index: Option<usize>,
    /// The winner, if any mapping (candidate or fallback) was legal.
    pub best: Option<TunedMapping>,
    /// What refinement did to the winner. `None` when no refinement
    /// ran, when it was cancelled, and on a cache hit.
    pub refinement: Option<RefinementOutcome>,
}

impl TuneReport {
    /// Multi-line human-readable summary (what `fm-tune` prints).
    pub fn summary(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "objective {:?}: {} offered, {} evaluated, {} pruned; cache {}{}\n",
            self.fom,
            self.offered,
            self.evaluated,
            self.pruned,
            self.cache,
            if self.fell_back {
                "; FELL BACK to default mapper"
            } else {
                ""
            },
        ));
        if self.cancelled {
            s.push_str("CANCELLED: partial result over the evaluated prefix\n");
        }
        s.push_str(&format!(
            "wall time: {:.3} ms\n",
            self.wall.as_secs_f64() * 1e3
        ));
        if !self.trajectory.is_empty() {
            s.push_str("best-so-far trajectory:\n");
            for (i, score) in &self.trajectory {
                s.push_str(&format!("  after candidate {i:>4}: {score:.4e}\n"));
            }
        }
        if !self.outcome.results.is_empty() {
            s.push_str("ranked candidates:\n");
            for (rank, r) in self.outcome.results.iter().enumerate() {
                s.push_str(&format!(
                    "  #{:<3} {:<24} score {:.4e}  {} cycles  {:.1} pJ\n",
                    rank + 1,
                    r.label,
                    r.score,
                    r.report.cycles,
                    r.report.energy().raw() / 1e3,
                ));
            }
        }
        match &self.best {
            Some(b) => s.push_str(&format!(
                "winner: {} (score {:.4e}, {} cycles, {:.1} pJ)\n",
                b.label,
                b.score,
                b.report.cycles,
                b.report.energy().raw() / 1e3,
            )),
            None => s.push_str("winner: none (no legal mapping)\n"),
        }
        if let Some(r) = &self.refinement {
            s.push_str(&format!(
                "refinement: {} chains, best chain score {:.4e}, {}\n",
                r.chains,
                r.best_score,
                if r.replaced {
                    "replaced the winner"
                } else {
                    "kept the search winner"
                },
            ));
        }
        s
    }
}

/// The autotuner. Borrowing the same inputs as
/// [`fm_core::search::search`], plus optional parallelism, cache, and
/// budgets.
pub struct Tuner<'a> {
    evaluator: &'a Evaluator<'a>,
    graph: &'a DataflowGraph,
    machine: &'a MachineConfig,
    fom: FigureOfMerit,
    pool: Option<&'a ThreadPool>,
    cache: Option<TuningCache>,
    budget: Budget,
    refinement: Option<Refinement>,
    cancel: Option<CancelToken>,
}

impl<'a> Tuner<'a> {
    /// A serial, uncached, unbudgeted tuner — behaves exactly like
    /// [`fm_core::search::search`] plus a report.
    pub fn new(
        evaluator: &'a Evaluator<'a>,
        graph: &'a DataflowGraph,
        machine: &'a MachineConfig,
        fom: FigureOfMerit,
    ) -> Self {
        Tuner {
            evaluator,
            graph,
            machine,
            fom,
            pool: None,
            cache: None,
            budget: Budget::default(),
            refinement: None,
            cancel: None,
        }
    }

    /// Fan candidate evaluation across `pool`.
    pub fn with_pool(mut self, pool: &'a ThreadPool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Persist results in (and replay from) `cache`.
    pub fn with_cache(mut self, cache: TuningCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Apply evaluation budgets.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Refine the winner with multi-chain annealing (parallel across
    /// the pool when one is configured; same winner either way).
    pub fn with_refinement(mut self, refinement: Refinement) -> Self {
        self.refinement = Some(refinement);
        self
    }

    /// Abort early when `token` is cancelled (checked between candidate
    /// evaluations and between refinement moves). The tune then returns
    /// a partial report with [`TuneReport::cancelled`] set; see
    /// [`CancelToken`].
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Tune over a candidate list.
    pub fn tune(&self, candidates: &[MappingCandidate]) -> TuneReport {
        self.tune_with(candidates, true)
    }

    /// [`Tuner::tune`] over one range of a larger candidate list: the
    /// same evaluation and report, except that when nothing in the
    /// range is legal, `best` stays `None` instead of taking the
    /// default-mapper fallback. A caller that merges ranges (a fleet
    /// coordinator, a shard's streamed chunks) builds the fallback
    /// once, for the whole list, when no range found a winner.
    pub fn tune_range(&self, candidates: &[MappingCandidate]) -> TuneReport {
        self.tune_with(candidates, false)
    }

    /// [`Tuner::tune`], with or without the default-mapper fallback.
    fn tune_with(&self, candidates: &[MappingCandidate], fallback: bool) -> TuneReport {
        let start = Instant::now();
        let offered = candidates.len();

        // Cache probe: replay iff the stored mapping is still shaped
        // for this graph and still legal on this machine. The
        // fingerprint serializes the whole problem, so it is only
        // computed when a cache is actually configured.
        let mut cache_status = CacheStatus::Disabled;
        let mut fp = 0u64;
        if let Some(cache) = &self.cache {
            fp = fingerprint_with_model(
                self.graph,
                self.machine,
                self.fom,
                candidates,
                self.refinement,
                self.evaluator.cost_model(),
            );
            match cache.load(fp) {
                Some(entry) if self.replayable(&entry.best.resolved) => {
                    return TuneReport {
                        fom: self.fom,
                        offered,
                        evaluated: 0,
                        pruned: offered,
                        cache: CacheStatus::Hit,
                        fell_back: false,
                        cancelled: false,
                        wall: start.elapsed(),
                        trajectory: entry.trajectory,
                        outcome: entry.outcome,
                        best_index: None,
                        best: Some(entry.best),
                        refinement: None,
                    };
                }
                Some(_) => cache_status = CacheStatus::Stale,
                None => cache_status = CacheStatus::Miss,
            }
        }

        // Budgeted evaluation: candidates fan out per-candidate (work
        // stealing when a pool is configured), budget decisions fold in
        // through the ordered frontier.
        let cap = self.budget.max_candidates.unwrap_or(offered).min(offered);
        let mut frontier = Frontier::new(&self.budget, self.cancel.as_ref(), start);
        let never = AtomicBool::new(false);
        let cancel_flag = self
            .cancel
            .as_ref()
            .map(CancelToken::as_atomic)
            .unwrap_or(&never);
        // One flat-engine context per tune: the consumer lists, cost
        // prefixes, and off-chip totals shared by every candidate are
        // hoisted here, and each worker thread checks out a persistent
        // scratch arena — steady-state candidate evaluation allocates
        // nothing, and `search::search` scores the same way.
        let batch = BatchEvaluator::new(self.evaluator, self.graph, self.machine, self.fom);
        let evals: Vec<CandidateEval> = match self.pool {
            Some(pool) => par_map_until_cancel(
                pool,
                cap,
                |i| batch.evaluate_candidate(&candidates[i]),
                |i, eval| frontier.feed(i, eval),
                cancel_flag,
            ),
            None => {
                let mut evals = Vec::with_capacity(cap);
                for (i, cand) in candidates.iter().enumerate().take(cap) {
                    // Cancellation aborts *between* candidate
                    // evaluations: checked here before each candidate
                    // starts, and again in `feed` after it lands.
                    if cancel_flag.load(Ordering::Acquire) {
                        break;
                    }
                    let eval = batch.evaluate_candidate(cand);
                    let stop = frontier.feed(i, &eval);
                    evals.push(eval);
                    if stop {
                        break;
                    }
                }
                evals
            }
        };
        let resolve = |i: usize| {
            candidates[i]
                .mapping
                .resolve(self.graph, self.machine)
                .expect("a legal candidate resolves")
        };
        let mut report = self.finish(candidates, evals, frontier, cache_status, resolve, fallback);
        if let (Some(cache), Some(best)) = (&self.cache, &report.best) {
            if !report.fell_back && !report.cancelled {
                let _ = cache.store(&CacheEntry {
                    version: CACHE_SCHEMA_VERSION,
                    fingerprint: fp,
                    best: best.clone(),
                    evaluated: report.evaluated,
                    complete: report.evaluated == offered,
                    outcome: report.outcome.clone(),
                    trajectory: report.trajectory.clone(),
                });
                // The store is part of the call.
                report.wall = start.elapsed();
            }
        }
        report
    }

    /// Warm re-tune: like [`Tuner::tune`], but candidate evaluations
    /// are served from a [`WarmCache`] whose per-candidate legality
    /// counters and cost trees were *repaired* across graph edits
    /// ([`fm_core::delta::DeltaCandidates`]) instead of re-derived.
    ///
    /// The winner is bit-identical to a cold [`Tuner::tune`] of the
    /// cache's candidate list against the current graph (with no
    /// persistent cache configured): the warm cache yields exactly the
    /// evals [`BatchEvaluator::evaluate_candidate`] would, and they
    /// feed the same ordered frontier. Like the cold path, the
    /// evaluations carry reports and scores but no mappings; only the
    /// winner's mapping is resolved, once, from its candidate. What
    /// keeps that guarantee crisp:
    ///
    /// * the tuner's evaluator/graph/machine must wrap the *same*
    ///   post-edit state the cache's edits were applied against, with
    ///   the same evaluator configuration the cache was built with;
    /// * the persistent [`TuningCache`] is neither probed nor stored —
    ///   a warm tune is about incremental in-process state, not
    ///   cross-process replay — so the report says
    ///   [`CacheStatus::Disabled`];
    /// * evaluation is serial even when a pool is configured (repair
    ///   state is exclusive); budgets (candidate cap, convergence
    ///   window, deadline) and cancellation behave exactly as on the
    ///   serial cold path, and refinement (if configured) runs on the
    ///   winner as usual.
    ///
    /// Whether the tune was actually warm is observable through
    /// [`WarmCache::rebuilds`]: if the counter is unchanged across the
    /// call, no candidate fell back to a cold from-scratch rebuild.
    pub fn tune_warm(&self, warm: &mut WarmCache) -> TuneReport {
        let start = Instant::now();
        let WarmCache { candidates, delta } = warm;
        let offered = candidates.len();

        let cap = self.budget.max_candidates.unwrap_or(offered).min(offered);
        let mut frontier = Frontier::new(&self.budget, self.cancel.as_ref(), start);
        let never = AtomicBool::new(false);
        let cancel_flag = self
            .cancel
            .as_ref()
            .map(CancelToken::as_atomic)
            .unwrap_or(&never);
        let mut evals: Vec<CandidateEval> = Vec::with_capacity(cap);
        for i in 0..cap {
            // Same cancellation points as the serial cold path: before
            // each candidate, and in `feed` after it lands.
            if cancel_flag.load(Ordering::Acquire) {
                break;
            }
            let eval = delta.evaluate(i, self.evaluator, self.fom);
            let stop = frontier.feed(i, &eval);
            evals.push(eval);
            if stop {
                break;
            }
        }
        // The winner's mapping is read off its warm state, which holds
        // every node's time and PE, so no place or time expression is
        // evaluated.
        let resolve = |i: usize| {
            delta
                .resolved(i)
                .expect("an evaluated candidate keeps its state")
        };
        self.finish(
            candidates,
            evals,
            frontier,
            CacheStatus::Disabled,
            resolve,
            true,
        )
    }

    /// What both tunes do after evaluation: pick the winner (with
    /// `fallback`, the default mapper when nothing in budget was legal),
    /// refine it, and report over the evaluated prefix. `resolve` gives
    /// candidate `i`'s resolved mapping against the tuned graph and
    /// machine.
    fn finish(
        &self,
        candidates: &[MappingCandidate],
        evals: Vec<CandidateEval>,
        frontier: Frontier<'_>,
        cache: CacheStatus,
        resolve: impl Fn(usize) -> ResolvedMapping,
        fallback: bool,
    ) -> TuneReport {
        let mut cancelled = self.cancel.as_ref().is_some_and(CancelToken::is_cancelled);
        let offered = candidates.len();
        let evaluated = evals.len();
        let best_idx = frontier.best_idx;
        let mut best = match best_idx {
            Some(i) => {
                let CandidateEval::Legal { report, score } = &evals[i] else {
                    unreachable!("best index always points at a legal eval")
                };
                // Evaluations carry no mapping: resolve the winner's
                // once, against the same graph and machine the
                // evaluation saw.
                Some(TunedMapping {
                    label: candidates[i].label.clone(),
                    resolved: resolve(i),
                    report: report.clone(),
                    score: *score,
                })
            }
            // Nothing legal in budget: fall back to the default mapper,
            // which is legal by construction for any graph.
            None if fallback => self.fallback(),
            None => None,
        };
        let fell_back = best_idx.is_none() && best.is_some();

        // A cancelled run neither refines (more cores burned for a
        // result nobody wants) nor caches (the evaluated prefix is
        // schedule-dependent, so its winner is not reproducible). A
        // refinement the token interrupts is discarded.
        let mut refinement = None;
        if let Some(b) = best.as_mut() {
            if !cancelled {
                match self.refine(b) {
                    Ok(outcome) => refinement = outcome,
                    Err(Interrupted) => cancelled = true,
                }
            }
        }

        TuneReport {
            fom: self.fom,
            offered,
            evaluated,
            pruned: offered - evaluated,
            cache,
            fell_back,
            cancelled,
            wall: frontier.start.elapsed(),
            trajectory: frontier.trajectory,
            outcome: assemble_outcome(&candidates[..evaluated], evals),
            best_index: best_idx,
            best,
            refinement,
        }
    }

    /// Apply this tuner's configured [`Refinement`] (if any) to an
    /// externally-produced winner, exactly as [`Tuner::tune`] would to
    /// its own. Distributed searches use this to refine the mapping
    /// merged from shard winners: refinement depends only on the winner
    /// and the seeds, so refining the merged winner here is bit-equal
    /// to refining the same winner inside a single-machine tune.
    /// Returns `true` when the tuner's [`CancelToken`] interrupted the
    /// refinement; `best` is then left as it was.
    pub fn refine_winner(&self, best: &mut TunedMapping) -> bool {
        self.refine(best).is_err()
    }

    /// Multi-chain annealing around the winner: chain `k` anneals from
    /// the winner with seed `refinement.seed + k`; the lowest-scoring
    /// chain (ties → lowest index) replaces the winner iff strictly
    /// better. Annealing never increases the storage-violation count,
    /// so a legal winner stays legal (which cache replay re-checks).
    /// Every chain polls the cancel token before each move; if any
    /// chain is interrupted the whole refinement is discarded. Returns
    /// what the refinement did, or `None` when there was none to run.
    fn refine(&self, best: &mut TunedMapping) -> Result<Option<RefinementOutcome>, Interrupted> {
        let Some(r) = self.refinement else {
            return Ok(None);
        };
        if r.chains == 0 || r.iters == 0 || self.graph.is_empty() {
            return Ok(None);
        }
        let never = AtomicBool::new(false);
        let cancel = self.cancel.as_ref().map_or(&never, CancelToken::as_atomic);
        let run = |k: usize| {
            anneal_until(
                self.evaluator,
                self.graph,
                self.machine,
                &best.resolved,
                self.fom,
                r.iters,
                r.seed + k as u64,
                AnnealBackend::Incremental,
                cancel,
            )
        };
        let chains: Option<Vec<_>> = match self.pool {
            Some(pool) => par_map(pool, r.chains, 1, run).into_iter().collect(),
            None => (0..r.chains).map(run).collect(),
        };
        let Some(chains) = chains else {
            return Err(Interrupted);
        };
        let mut winner: Option<(usize, f64)> = None;
        for (k, (_, report)) in chains.iter().enumerate() {
            let score = self.evaluator.score(self.fom, report);
            if winner.is_none_or(|(_, w)| score < w) {
                winner = Some((k, score));
            }
        }
        let (k, best_score) = winner.expect("at least one chain ran");
        let replaced = best_score < best.score;
        if replaced {
            let (resolved, report) = chains.into_iter().nth(k).expect("winner index in range");
            best.label = format!("{} +anneal#{k}", best.label);
            best.resolved = resolved;
            best.report = report;
            best.score = best_score;
        }
        Ok(Some(RefinementOutcome {
            chains: r.chains,
            best_score,
            replaced,
        }))
    }

    /// Is a cached mapping shaped for this graph and legal on this
    /// machine? Guards both stale entries and fingerprint collisions.
    fn replayable(&self, rm: &ResolvedMapping) -> bool {
        rm.place.len() == self.graph.len()
            && rm.time.len() == self.graph.len()
            && check(self.graph, rm, self.machine).is_legal()
    }

    /// The default mapper's mapping, when legal, with its report from
    /// one flat verdict-and-cost pass.
    fn fallback(&self) -> Option<TunedMapping> {
        if self.graph.is_empty() {
            return None;
        }
        let rm = default_mapper(self.graph, self.machine);
        let report = self.evaluator.evaluate_checked(&rm).ok()?;
        let score = self.evaluator.score(self.fom, &report);
        Some(TunedMapping {
            label: "default-mapper (fallback)".to_string(),
            resolved: rm,
            report,
            score,
        })
    }
}

/// Per-candidate evaluation state that survives structural edits.
///
/// Built once when a serving session opens ([`WarmCache::new`]
/// cold-derives counters for every resolvable candidate), then
/// *repaired* in O(edit cone) per [`AppliedEdit`]
/// ([`WarmCache::apply_edit`]) instead of re-derived in O(V + E).
/// [`Tuner::tune_warm`] drains it to pick a winner bit-identical to a
/// cold tune of the current graph.
///
/// The evaluator handed to every method must wrap the session's
/// *current* graph and machine (post-edit for [`WarmCache::apply_edit`])
/// and be configured identically — same writeback setting, same cost
/// model — across the cache's whole life. Candidates the repair path
/// cannot keep warm (table mappings after a length change, affine
/// mappings once a node has no index) are invalidated and rebuilt
/// lazily at the next tune, bumping [`WarmCache::rebuilds`].
pub struct WarmCache {
    candidates: Vec<MappingCandidate>,
    delta: DeltaCandidates,
}

impl WarmCache {
    /// Build warm state for a candidate list by cold-deriving each
    /// resolvable candidate's counters against the evaluator's current
    /// graph and machine.
    pub fn new(ev: &Evaluator<'_>, candidates: Vec<MappingCandidate>) -> WarmCache {
        let mappings = candidates.iter().map(|c| c.mapping.clone()).collect();
        WarmCache {
            delta: DeltaCandidates::new(ev, mappings),
            candidates,
        }
    }

    /// The candidate list the cache was built over, in offer order.
    pub fn candidates(&self) -> &[MappingCandidate] {
        &self.candidates
    }

    /// Number of candidates in the cache.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// Is the candidate list empty?
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// Repair every candidate's cached counters for one applied edit.
    ///
    /// `ev` must wrap the graph/machine *after* the edit. Returns the
    /// edit's dirty-cone size (see [`AppliedEdit::cone_size`]) so
    /// callers can account incremental work done.
    pub fn apply_edit(&mut self, ev: &Evaluator<'_>, edit: &AppliedEdit) -> u64 {
        self.delta.apply(ev, edit);
        edit.cone_size(ev.graph())
    }

    /// Total number of candidates that have fallen back to a cold
    /// from-scratch rebuild since construction. A
    /// [`Tuner::tune_warm`] call was fully warm iff this counter is
    /// unchanged across it.
    pub fn rebuilds(&self) -> u64 {
        self.delta.rebuilds()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::fingerprint;
    use fm_core::affine::IdxExpr;
    use fm_core::dataflow::CExpr;
    use fm_core::mapping::{AffineMap, Mapping, PlaceExpr};
    use fm_core::search::search;
    use fm_core::value::Value;

    fn wide(n: usize) -> DataflowGraph {
        let mut g = DataflowGraph::new("wide", 32);
        for i in 0..n {
            g.add_node(CExpr::konst(Value::real(i as f64)), vec![], vec![i as i64]);
        }
        g
    }

    fn chain(n: usize) -> DataflowGraph {
        let mut g = DataflowGraph::new("chain", 32);
        let mut prev: Option<u32> = None;
        for i in 0..n {
            let id = match prev {
                None => g.add_node(CExpr::konst(Value::ZERO), vec![], vec![i as i64]),
                Some(p) => g.add_node(
                    CExpr::dep(0).add(CExpr::konst(Value::real(1.0))),
                    vec![p],
                    vec![i as i64],
                ),
            };
            prev = Some(id);
        }
        g
    }

    fn families(g: &DataflowGraph) -> Vec<MappingCandidate> {
        vec![
            MappingCandidate::new("serial", Mapping::serial(g)),
            MappingCandidate::new(
                "spread",
                Mapping::Affine(AffineMap {
                    place: PlaceExpr::row0(IdxExpr::i()),
                    time: IdxExpr::c(0),
                }),
            ),
            MappingCandidate::new(
                "diag",
                Mapping::Affine(AffineMap {
                    place: PlaceExpr::row0(IdxExpr::i()),
                    time: IdxExpr::i(),
                }),
            ),
        ]
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!(
            "fm-autotune-tuner-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn serial_tuner_matches_search_exactly() {
        let g = wide(16);
        let m = MachineConfig::linear(16);
        let ev = Evaluator::new(&g, &m);
        let cands = families(&g);
        let from_search = search(&ev, &g, &m, &cands, FigureOfMerit::Time);
        let report = Tuner::new(&ev, &g, &m, FigureOfMerit::Time).tune(&cands);
        assert_eq!(report.evaluated, cands.len());
        assert_eq!(report.outcome.legal, from_search.legal);
        assert_eq!(
            report.best.as_ref().unwrap().label,
            from_search.best().unwrap().label
        );
        assert_eq!(
            report.best.as_ref().unwrap().score,
            from_search.best().unwrap().score
        );
        assert_eq!(report.cache, CacheStatus::Disabled);
        assert!(!report.fell_back);
        assert_winner_replays(&ev, &report);
    }

    #[test]
    fn parallel_tuner_picks_same_winner() {
        let g = wide(32);
        let m = MachineConfig::linear(16);
        let ev = Evaluator::new(&g, &m);
        let cands = families(&g);
        let pool = ThreadPool::with_threads(4);
        let serial = Tuner::new(&ev, &g, &m, FigureOfMerit::Edp).tune(&cands);
        let parallel = Tuner::new(&ev, &g, &m, FigureOfMerit::Edp)
            .with_pool(&pool)
            .tune(&cands);
        assert_winner_replays(&ev, &serial);
        assert_winner_replays(&ev, &parallel);
        let (s, p) = (serial.best.unwrap(), parallel.best.unwrap());
        assert_eq!(s.label, p.label);
        assert_eq!(s.score, p.score);
        assert_eq!(s.resolved, p.resolved);
        // And the full outcomes agree order-for-order.
        let labels = |o: &SearchOutcome| {
            o.results
                .iter()
                .map(|r| r.label.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(labels(&serial.outcome), labels(&parallel.outcome));
    }

    #[test]
    fn max_candidates_prunes_a_prefix() {
        let g = wide(8);
        let m = MachineConfig::linear(8);
        let ev = Evaluator::new(&g, &m);
        let cands = families(&g);
        let report = Tuner::new(&ev, &g, &m, FigureOfMerit::Time)
            .with_budget(Budget::unlimited().with_max_candidates(1))
            .tune(&cands);
        assert_eq!(report.evaluated, 1);
        assert_eq!(report.pruned, 2);
        assert_eq!(report.best.unwrap().label, "serial");
    }

    #[test]
    fn convergence_window_stops_early() {
        // Many identical candidates after the first: no improvement
        // past index 0, so a window of 16 stops after 16 candidates.
        let g = wide(4);
        let m = MachineConfig::linear(4);
        let ev = Evaluator::new(&g, &m);
        let mut cands = vec![MappingCandidate::new(
            "spread",
            Mapping::Affine(AffineMap {
                place: PlaceExpr::row0(IdxExpr::i()),
                time: IdxExpr::c(0),
            }),
        )];
        for i in 0..100 {
            cands.push(MappingCandidate::new(
                format!("serial-{i}"),
                Mapping::serial(&g),
            ));
        }
        let report = Tuner::new(&ev, &g, &m, FigureOfMerit::Time)
            .with_budget(Budget::unlimited().with_convergence_window(16))
            .tune(&cands);
        assert_eq!(report.evaluated, 16, "window checked per candidate");
        assert!(report.pruned > 0);
        assert_eq!(report.best.unwrap().label, "spread");
        assert_eq!(report.trajectory.len(), 1);
    }

    #[test]
    fn convergence_window_identical_serial_and_parallel() {
        let g = wide(8);
        let m = MachineConfig::linear(8);
        let ev = Evaluator::new(&g, &m);
        let mut cands = Vec::new();
        // Improvements at scattered indices; the stopping point must be
        // schedule-independent.
        for i in 0..60 {
            cands.push(MappingCandidate::new(
                format!("serial-{i}"),
                Mapping::serial(&g),
            ));
        }
        cands.insert(
            3,
            MappingCandidate::new(
                "spread",
                Mapping::Affine(AffineMap {
                    place: PlaceExpr::row0(IdxExpr::i()),
                    time: IdxExpr::c(0),
                }),
            ),
        );
        let pool = ThreadPool::with_threads(8);
        let budget = Budget::unlimited().with_convergence_window(9);
        let serial = Tuner::new(&ev, &g, &m, FigureOfMerit::Time)
            .with_budget(budget)
            .tune(&cands);
        let parallel = Tuner::new(&ev, &g, &m, FigureOfMerit::Time)
            .with_budget(budget)
            .with_pool(&pool)
            .tune(&cands);
        assert_eq!(serial.evaluated, parallel.evaluated);
        assert_eq!(serial.trajectory, parallel.trajectory);
        let (s, p) = (serial.best.unwrap(), parallel.best.unwrap());
        assert_eq!(s.label, p.label);
        assert_eq!(s.score, p.score);
        assert_eq!(s.resolved, p.resolved);
    }

    #[test]
    fn refinement_improves_deterministically_and_in_parallel() {
        // An anneal-able problem: a chain spread badly across a grid.
        let g = chain(12);
        let m = MachineConfig::n5(4, 3);
        let ev = Evaluator::new(&g, &m);
        let cands = vec![MappingCandidate::new("serial", Mapping::serial(&g))];
        let r = Refinement {
            chains: 4,
            iters: 200,
            seed: 13,
        };
        let base = Tuner::new(&ev, &g, &m, FigureOfMerit::Energy).tune(&cands);
        let serial = Tuner::new(&ev, &g, &m, FigureOfMerit::Energy)
            .with_refinement(r)
            .tune(&cands);
        let pool = ThreadPool::with_threads(4);
        let parallel = Tuner::new(&ev, &g, &m, FigureOfMerit::Energy)
            .with_refinement(r)
            .with_pool(&pool)
            .tune(&cands);
        assert_eq!(base.refinement, None, "no refinement configured");
        assert!(serial.summary().contains("refinement: 4 chains"));
        let outcome = serial.refinement.expect("the refinement ran");
        assert_eq!(parallel.refinement, Some(outcome));
        let (b, s, p) = (
            base.best.unwrap(),
            serial.best.unwrap(),
            parallel.best.unwrap(),
        );
        assert!(s.score <= b.score, "refinement must not regress");
        assert_eq!(s.label, p.label, "winner chain is seed-indexed");
        assert_eq!(s.score, p.score);
        assert_eq!(s.resolved, p.resolved);
        assert!(check(&g, &s.resolved, &m).is_legal());
        assert_eq!(outcome.chains, 4);
        assert_eq!(outcome.replaced, s.score < b.score);
        if outcome.replaced {
            assert!(s.label.contains("+anneal#"), "label records the chain");
            assert_eq!(outcome.best_score.to_bits(), s.score.to_bits());
        } else {
            assert!(outcome.best_score >= b.score);
        }
    }

    #[test]
    fn cache_hit_replays_full_ranked_outcome() {
        let g = wide(16);
        let m = MachineConfig::linear(16);
        let ev = Evaluator::new(&g, &m);
        let cands = families(&g);
        let dir = tmpdir("outcome");

        let cold = Tuner::new(&ev, &g, &m, FigureOfMerit::Edp)
            .with_cache(TuningCache::open(&dir).unwrap())
            .tune(&cands);
        let warm = Tuner::new(&ev, &g, &m, FigureOfMerit::Edp)
            .with_cache(TuningCache::open(&dir).unwrap())
            .tune(&cands);
        assert_eq!(warm.cache, CacheStatus::Hit);
        assert_eq!(warm.evaluated, 0);
        // The whole ranked table and trajectory replay, not just the
        // winner — warm runs can reprint reports with zero evaluation.
        assert_eq!(warm.trajectory, cold.trajectory);
        assert_eq!(warm.outcome.evaluated, cold.outcome.evaluated);
        assert_eq!(warm.outcome.legal, cold.outcome.legal);
        assert_eq!(warm.outcome.pareto, cold.outcome.pareto);
        let labels = |o: &SearchOutcome| {
            o.results
                .iter()
                .map(|r| (r.label.clone(), r.score))
                .collect::<Vec<_>>()
        };
        assert_eq!(labels(&warm.outcome), labels(&cold.outcome));
        assert!(warm.summary().contains("ranked candidates"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_hit_replays_a_refined_winner_without_an_outcome() {
        let g = chain(12);
        let m = MachineConfig::n5(4, 3);
        let ev = Evaluator::new(&g, &m);
        let cands = vec![MappingCandidate::new("serial", Mapping::serial(&g))];
        let r = Refinement {
            chains: 2,
            iters: 100,
            seed: 5,
        };
        let dir = tmpdir("refined");
        let tune = || {
            Tuner::new(&ev, &g, &m, FigureOfMerit::Energy)
                .with_refinement(r)
                .with_cache(TuningCache::open(&dir).unwrap())
                .tune(&cands)
        };
        let cold = tune();
        let warm = tune();
        assert_eq!(warm.cache, CacheStatus::Hit);
        assert!(cold.refinement.is_some());
        assert_eq!(warm.refinement, None, "a cache hit refines nothing");
        let (c, w) = (cold.best.unwrap(), warm.best.unwrap());
        assert_eq!((c.label, c.score.to_bits()), (w.label, w.score.to_bits()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deadline_of_zero_still_evaluates_one_round() {
        let g = wide(4);
        let m = MachineConfig::linear(4);
        let ev = Evaluator::new(&g, &m);
        let cands = families(&g);
        let report = Tuner::new(&ev, &g, &m, FigureOfMerit::Time)
            .with_budget(Budget::unlimited().with_deadline(Duration::ZERO))
            .tune(&cands);
        // One round always runs (deadline checked at round boundaries),
        // and the family fits in one round, so everything is evaluated.
        assert!(report.evaluated >= 1);
        assert!(report.best.is_some());
    }

    #[test]
    fn falls_back_to_default_mapper_when_nothing_legal() {
        let g = chain(4);
        let m = MachineConfig::linear(4);
        let ev = Evaluator::new(&g, &m);
        // Dependent nodes forced simultaneous: illegal.
        let cands = vec![MappingCandidate::new(
            "all-at-once",
            Mapping::Affine(AffineMap {
                place: PlaceExpr::row0(IdxExpr::i()),
                time: IdxExpr::c(0),
            }),
        )];
        let tuner = Tuner::new(&ev, &g, &m, FigureOfMerit::Time);
        let report = tuner.tune(&cands);
        assert!(report.fell_back);
        let best = report.best.unwrap();
        assert_eq!(best.label, "default-mapper (fallback)");
        assert!(check(&g, &best.resolved, &m).is_legal());
        assert_eq!(report.outcome.legal, 0);
        // A range of a larger list reports no winner instead: its
        // caller builds the fallback once, for the whole list.
        let range = tuner.tune_range(&cands);
        assert!(range.best.is_none() && !range.fell_back);
        assert_eq!((range.evaluated, range.outcome.legal), (1, 0));
    }

    #[test]
    fn cache_hit_skips_evaluation_and_replays_same_winner() {
        let g = wide(16);
        let m = MachineConfig::linear(16);
        let ev = Evaluator::new(&g, &m);
        let cands = families(&g);
        let dir = tmpdir("hit");

        let cold = Tuner::new(&ev, &g, &m, FigureOfMerit::Edp)
            .with_cache(TuningCache::open(&dir).unwrap())
            .tune(&cands);
        assert_eq!(cold.cache, CacheStatus::Miss);
        assert_eq!(cold.evaluated, cands.len());

        let warm = Tuner::new(&ev, &g, &m, FigureOfMerit::Edp)
            .with_cache(TuningCache::open(&dir).unwrap())
            .tune(&cands);
        assert_eq!(warm.cache, CacheStatus::Hit);
        assert_eq!(warm.evaluated, 0, "hit must skip all evaluation");
        assert_eq!(warm.pruned, cands.len());
        let (c, w) = (cold.best.unwrap(), warm.best.unwrap());
        assert_eq!(c.label, w.label);
        assert_eq!(c.score, w.score);
        assert_eq!(c.resolved, w.resolved);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_cache_entry_degrades_to_cold_search() {
        let g = wide(8);
        let m = MachineConfig::linear(8);
        let ev = Evaluator::new(&g, &m);
        let cands = families(&g);
        let dir = tmpdir("corrupt");

        let cache = TuningCache::open(&dir).unwrap();
        let cold = Tuner::new(&ev, &g, &m, FigureOfMerit::Edp)
            .with_cache(cache.clone())
            .tune(&cands);
        // Smash every cache file.
        for f in std::fs::read_dir(&dir).unwrap() {
            std::fs::write(f.unwrap().path(), b"]]garbage[[").unwrap();
        }
        let after = Tuner::new(&ev, &g, &m, FigureOfMerit::Edp)
            .with_cache(cache)
            .tune(&cands);
        assert_eq!(after.cache, CacheStatus::Miss);
        assert_eq!(after.evaluated, cands.len());
        assert_eq!(after.best.unwrap().label, cold.best.unwrap().label);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_cache_entry_is_rechecked_and_rejected() {
        let g = wide(8);
        let m = MachineConfig::linear(8);
        let ev = Evaluator::new(&g, &m);
        let cands = families(&g);
        let dir = tmpdir("stale");
        let cache = TuningCache::open(&dir).unwrap();

        let cold = Tuner::new(&ev, &g, &m, FigureOfMerit::Edp)
            .with_cache(cache.clone())
            .tune(&cands);
        let fp = fingerprint(&g, &m, FigureOfMerit::Edp, &cands, None);
        // Forge an entry whose mapping no longer fits the graph.
        let mut entry = cache.load(fp).unwrap();
        entry.best.resolved.place.pop();
        entry.best.resolved.time.pop();
        cache.store(&entry).unwrap();

        let warm = Tuner::new(&ev, &g, &m, FigureOfMerit::Edp)
            .with_cache(cache)
            .tune(&cands);
        assert_eq!(warm.cache, CacheStatus::Stale);
        assert_eq!(warm.evaluated, cands.len());
        assert_eq!(warm.best.unwrap().label, cold.best.unwrap().label);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pre_cancelled_tune_returns_promptly_with_fallback() {
        let g = wide(32);
        let m = MachineConfig::linear(16);
        let ev = Evaluator::new(&g, &m);
        // A long candidate list that would take a while to grind through.
        let mut cands = Vec::new();
        for i in 0..500 {
            cands.push(MappingCandidate::new(
                format!("serial-{i}"),
                Mapping::serial(&g),
            ));
        }
        let token = CancelToken::new();
        token.cancel();
        let report = Tuner::new(&ev, &g, &m, FigureOfMerit::Time)
            .with_cancel(token)
            .tune(&cands);
        assert!(report.cancelled);
        assert_eq!(report.evaluated, 0, "no candidate starts after cancel");
        // The report is still useful: the default-mapper fallback is
        // legal for any graph.
        assert!(report.fell_back);
        let best = report.best.unwrap();
        assert!(check(&g, &best.resolved, &m).is_legal());
    }

    #[test]
    fn cancel_mid_refinement_discards_it_and_reports_cancelled() {
        // Independent nodes serialized on one PE: annealing spreads them
        // and wins, so a discarded refinement is visible in the winner.
        let g = wide(12);
        let m = MachineConfig::n5(4, 3);
        let ev = Evaluator::new(&g, &m);
        let cands = vec![MappingCandidate::new("serial", Mapping::serial(&g))];
        let fom = FigureOfMerit::Time;
        let refine = |iters| Refinement {
            chains: 1,
            iters,
            seed: 7,
        };
        let unrefined = Tuner::new(&ev, &g, &m, fom).tune(&cands).best.unwrap();
        let refined = Tuner::new(&ev, &g, &m, fom)
            .with_refinement(refine(200))
            .tune(&cands);
        let outcome = refined.refinement.expect("the refinement ran");
        let refined = refined.best.unwrap();
        assert!(refined.score < unrefined.score, "the problem refines");
        assert!(outcome.replaced && outcome.chains == 1);
        assert_eq!(outcome.best_score.to_bits(), refined.score.to_bits());

        // One chain sized per profile to run far past the cancel: debug
        // builds re-check every move against a full re-evaluation.
        let iters = if cfg!(debug_assertions) {
            10_000
        } else {
            1_000_000
        };
        let token = CancelToken::new();
        let t2 = token.clone();
        let watchdog = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            t2.cancel();
        });
        let report = Tuner::new(&ev, &g, &m, fom)
            .with_refinement(refine(iters))
            .with_cancel(token)
            .tune(&cands);
        watchdog.join().unwrap();
        assert!(
            report.cancelled,
            "an interrupted refinement reports cancelled"
        );
        assert_eq!(
            report.refinement, None,
            "a cancelled refinement has no outcome"
        );
        assert_eq!(report.evaluated, 1, "the cancel landed after the search");
        let best = report.best.unwrap();
        assert_eq!(best.label, unrefined.label, "the refinement is discarded");
        assert_eq!(best.score.to_bits(), unrefined.score.to_bits());
        assert_eq!(best.resolved, unrefined.resolved);
    }

    #[test]
    fn mid_run_cancel_aborts_between_candidates_with_partial_outcome() {
        let g = wide(24);
        let m = MachineConfig::linear(8);
        let ev = Evaluator::new(&g, &m);
        let mut cands = families(&g);
        for i in 0..2000 {
            cands.push(MappingCandidate::new(
                format!("serial-{i}"),
                Mapping::serial(&g),
            ));
        }
        let token = CancelToken::new();
        // Cancel from "outside" (what a deadline watchdog or disconnect
        // detector does): another thread latches the token after a
        // short nap, as the server's per-request watchdog would.
        let t2 = token.clone();
        let watchdog = std::thread::spawn(move || {
            // Latch almost immediately; the tune below takes far longer
            // than this if it cannot be cancelled.
            std::thread::sleep(Duration::from_millis(2));
            t2.cancel();
        });
        let report = Tuner::new(&ev, &g, &m, FigureOfMerit::Edp)
            .with_cancel(token.clone())
            .tune(&cands);
        watchdog.join().unwrap();
        if report.cancelled {
            assert!(
                report.evaluated < cands.len(),
                "cancelled run must not evaluate the whole list"
            );
            assert_eq!(report.pruned, cands.len() - report.evaluated);
            // Partial outcome is well-formed over the evaluated prefix.
            assert_eq!(report.outcome.evaluated, report.evaluated);
            assert!(report.best.is_some());
        }
        // Whether or not the race cancelled in time, the winner (if the
        // prefix contained a legal candidate) is one of the offered
        // labels or the fallback.
        let best = report.best.unwrap();
        assert!(
            cands.iter().any(|c| c.label == best.label) || best.label.contains("default-mapper")
        );
    }

    #[test]
    fn cancelled_parallel_tune_stops_early_and_skips_cache_store() {
        let g = wide(16);
        let m = MachineConfig::linear(8);
        let ev = Evaluator::new(&g, &m);
        let mut cands = Vec::new();
        for i in 0..800 {
            cands.push(MappingCandidate::new(
                format!("serial-{i}"),
                Mapping::serial(&g),
            ));
        }
        let dir = tmpdir("cancel");
        let pool = ThreadPool::with_threads(4);
        let token = CancelToken::new();
        token.cancel();
        let report = Tuner::new(&ev, &g, &m, FigureOfMerit::Time)
            .with_pool(&pool)
            .with_cache(TuningCache::open(&dir).unwrap())
            .with_cancel(token)
            .tune(&cands);
        assert!(report.cancelled);
        assert_eq!(report.evaluated, 0);
        // Nothing was persisted: a later uncancelled run misses.
        let rerun = Tuner::new(&ev, &g, &m, FigureOfMerit::Time)
            .with_cache(TuningCache::open(&dir).unwrap())
            .tune(&cands);
        assert_eq!(rerun.cache, CacheStatus::Miss);
        assert!(!rerun.cancelled);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trajectory_is_monotone_decreasing() {
        let g = wide(16);
        let m = MachineConfig::linear(16);
        let ev = Evaluator::new(&g, &m);
        let cands = families(&g);
        let report = Tuner::new(&ev, &g, &m, FigureOfMerit::Edp).tune(&cands);
        assert!(!report.trajectory.is_empty());
        for pair in report.trajectory.windows(2) {
            assert!(pair[1].1 < pair[0].1, "strict improvements only");
            assert!(pair[1].0 > pair[0].0, "indices ascend");
        }
        let last = report.trajectory.last().unwrap();
        assert_eq!(last.1, report.best.unwrap().score);
    }

    /// Bit-level equality of everything a warm tune promises to
    /// reproduce from the cold path (wall-clock excluded, obviously).
    /// A winner's report is what evaluating its resolved mapping gives,
    /// bit for bit.
    fn assert_winner_replays(ev: &Evaluator<'_>, report: &TuneReport) {
        if let Some(b) = &report.best {
            assert_eq!(ev.evaluate(&b.resolved), b.report, "winner {}", b.label);
        }
    }

    fn assert_reports_match(ev: &Evaluator<'_>, warm: &TuneReport, cold: &TuneReport) {
        assert_winner_replays(ev, warm);
        assert_winner_replays(ev, cold);
        assert_eq!(warm.evaluated, cold.evaluated);
        assert_eq!(warm.pruned, cold.pruned);
        assert_eq!(warm.best_index, cold.best_index);
        assert_eq!(warm.fell_back, cold.fell_back);
        assert_eq!(warm.trajectory.len(), cold.trajectory.len());
        for (w, c) in warm.trajectory.iter().zip(&cold.trajectory) {
            assert_eq!(w.0, c.0);
            assert_eq!(w.1.to_bits(), c.1.to_bits());
        }
        match (&warm.best, &cold.best) {
            (Some(w), Some(c)) => {
                assert_eq!(w.label, c.label);
                assert_eq!(w.score.to_bits(), c.score.to_bits());
                assert_eq!(w.resolved, c.resolved);
                assert_eq!(
                    serde_json::to_string(&w.report).unwrap(),
                    serde_json::to_string(&c.report).unwrap()
                );
            }
            (None, None) => {}
            _ => panic!("warm and cold disagree on having a winner"),
        }
        assert_eq!(
            serde_json::to_string(&warm.outcome).unwrap(),
            serde_json::to_string(&cold.outcome).unwrap()
        );
    }

    #[test]
    fn warm_tune_matches_cold_tune_across_an_edit_stream() {
        use fm_core::mutate::{apply_edit, GraphEdit};
        let mut g = chain(8);
        let mut m = MachineConfig::linear(16);
        let cands = families(&g);
        let mut warm = {
            let ev = Evaluator::new(&g, &m);
            WarmCache::new(&ev, cands.clone())
        };
        assert_eq!(warm.len(), cands.len());
        assert!(!warm.is_empty());

        let grow = CExpr::dep(0).add(CExpr::konst(Value::real(1.0)));
        let edits = vec![
            GraphEdit::AddNode {
                expr: grow.clone(),
                deps: vec![7],
                index: vec![8],
                output: false,
            },
            GraphEdit::ResizeTile { tile_bits: 256 },
            GraphEdit::RetargetEdge {
                node: 8,
                slot: 0,
                new_dep: 3,
            },
            GraphEdit::ResizeTile {
                tile_bits: 64 * 1024 * 1024,
            },
            GraphEdit::AddNode {
                expr: grow.clone(),
                deps: vec![8],
                index: vec![9],
                output: true,
            },
            GraphEdit::RemoveNode { id: 9 },
        ];
        let budget = Budget::unlimited().with_convergence_window(2);
        for edit in &edits {
            let receipt = apply_edit(&mut g, &mut m, edit).unwrap();
            let ev = Evaluator::new(&g, &m);
            let cone = warm.apply_edit(&ev, &receipt);
            assert_eq!(cone, receipt.cone_size(&g));
            let w = Tuner::new(&ev, &g, &m, FigureOfMerit::Edp)
                .with_budget(budget)
                .tune_warm(&mut warm);
            let c = Tuner::new(&ev, &g, &m, FigureOfMerit::Edp)
                .with_budget(budget)
                .tune(&cands);
            assert_eq!(w.cache, CacheStatus::Disabled);
            assert_reports_match(&ev, &w, &c);
        }
    }

    #[test]
    fn warm_tune_fallback_is_bit_equal_to_cold() {
        // Only illegal candidates on offer: both paths must fall back
        // to the default mapper with identical reports.
        let g = chain(6);
        let m = MachineConfig::linear(8);
        let ev = Evaluator::new(&g, &m);
        let cands = vec![MappingCandidate::new(
            "spread",
            Mapping::Affine(AffineMap {
                place: PlaceExpr::row0(IdxExpr::i()),
                time: IdxExpr::c(0),
            }),
        )];
        let mut warm = WarmCache::new(&ev, cands.clone());
        let w = Tuner::new(&ev, &g, &m, FigureOfMerit::Time).tune_warm(&mut warm);
        let c = Tuner::new(&ev, &g, &m, FigureOfMerit::Time).tune(&cands);
        assert!(w.fell_back && c.fell_back);
        assert_reports_match(&ev, &w, &c);
        assert_eq!(warm.rebuilds(), 0);
    }

    #[test]
    fn warm_tune_counts_cold_rebuilds_after_invalidation() {
        use fm_core::mutate::{apply_edit, GraphEdit};
        let mut g = chain(6);
        let mut m = MachineConfig::linear(16);
        let cands = families(&g); // includes the "serial" table candidate
        let mut warm = {
            let ev = Evaluator::new(&g, &m);
            WarmCache::new(&ev, cands.clone())
        };

        // A length change drops the table candidate from the warm set;
        // it stays Unresolvable (no rebuild) while lengths mismatch.
        let add = GraphEdit::AddNode {
            expr: CExpr::dep(0).add(CExpr::konst(Value::real(1.0))),
            deps: vec![5],
            index: vec![6],
            output: false,
        };
        let receipt = apply_edit(&mut g, &mut m, &add).unwrap();
        {
            let ev = Evaluator::new(&g, &m);
            warm.apply_edit(&ev, &receipt);
            let w = Tuner::new(&ev, &g, &m, FigureOfMerit::Edp).tune_warm(&mut warm);
            let c = Tuner::new(&ev, &g, &m, FigureOfMerit::Edp).tune(&cands);
            assert_reports_match(&ev, &w, &c);
            assert_eq!(warm.rebuilds(), 0);
        }

        // Removing the node restores the table's length: the next warm
        // tune rebuilds exactly that one candidate cold and says so.
        let receipt = apply_edit(&mut g, &mut m, &GraphEdit::RemoveNode { id: 6 }).unwrap();
        {
            let ev = Evaluator::new(&g, &m);
            warm.apply_edit(&ev, &receipt);
            let w = Tuner::new(&ev, &g, &m, FigureOfMerit::Edp).tune_warm(&mut warm);
            let c = Tuner::new(&ev, &g, &m, FigureOfMerit::Edp).tune(&cands);
            assert_reports_match(&ev, &w, &c);
            assert_eq!(warm.rebuilds(), 1);
        }
    }
}
