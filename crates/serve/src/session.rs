//! Live-mutation sessions: server-held (graph, machine, candidates)
//! state that clients edit in place and re-tune warm.
//!
//! A session is the serving-side answer to a workload that *changes
//! shape while being mapped* — an interactive compiler growing a
//! kernel, a scheduler retargeting edges as operators fuse. Re-sending
//! the whole graph per revision and cold-evaluating every candidate
//! is O(V + E) × candidates per keystroke; a session instead keeps a
//! [`WarmCache`] (per-candidate legality counters, per-PE max-live
//! indexes and cost trees, see [`fm_core::delta::DeltaCandidates`])
//! that each [`GraphEdit`] repairs in work about the size of the edit,
//! and [`fm_autotune::Tuner::tune_warm`] drains that state into a
//! winner **bit-identical** to a cold tune of the current graph —
//! asserted here in debug builds on every session tune. An edit batch
//! is atomic by undo: nothing is copied to rehearse it (see
//! [`SessionState::apply_batch`]).
//!
//! Concurrency model: the registry maps `session_id →
//! Arc<Mutex<SessionState>>`. Lookups clone the `Arc` and drop the
//! registry lock immediately, so requests against *different* sessions
//! run concurrently across the worker pool while requests against the
//! *same* session serialize on its own mutex (edits and tunes mutate
//! shared warm state — interleaving them would corrupt it). The
//! idle-TTL sweeper ([`SessionRegistry::evict_idle`]) uses `try_lock`:
//! a session whose mutex is held is mid-request, hence not idle.
//!
//! Transport note: sealed edit batches checksum their *canonical JSON*
//! text ([`SessionEditRequest::seal`](crate::protocol::SessionEditRequest::seal)),
//! and the binary wire envelope encodes the same value tree the JSON
//! form serializes — so a batch sealed by a JSON client verifies
//! unchanged when it arrives over a negotiated binary connection, and
//! vice versa. Session requests are exempt from tune deduplication:
//! they mutate per-session state, so collapsing them would be wrong.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use fm_autotune::{Budget, CancelToken, TuneReport, Tuner, WarmCache};
use fm_core::cost::Evaluator;
use fm_core::dataflow::{DataflowGraph, MutationError};
use fm_core::machine::MachineConfig;
use fm_core::mutate::{apply_edit, undo_edit, AppliedEdit, GraphEdit};
use fm_core::search::{FigureOfMerit, MappingCandidate};
use fm_costmodel::CostModelKind;

/// One live session: the mutable (graph, machine) pair, the candidate
/// list, and the warm per-candidate state repaired across edits.
pub struct SessionState {
    graph: DataflowGraph,
    machine: MachineConfig,
    fom: FigureOfMerit,
    budget: Budget,
    cost_model: CostModelKind,
    warm: WarmCache,
    /// Bumped once per applied edit batch; edit requests must quote it.
    pub epoch: u64,
    /// Individual edits applied over the session's life.
    pub edits_applied: u64,
    /// Tunes served over the session's life.
    pub tunes: u64,
    last_touch: Instant,
}

/// How an edit batch landed.
#[derive(Debug)]
pub enum EditOutcome {
    /// The whole batch applied; the epoch advanced.
    Applied {
        /// The session's epoch after the batch.
        epoch: u64,
        /// Edits applied (== batch length).
        applied: u64,
        /// Total dirty-cone size across the batch.
        cone: u64,
    },
    /// The request quoted an epoch other than the session's current
    /// one (concurrent editor or lost reply); nothing was applied.
    StaleEpoch {
        /// Epoch the request quoted.
        got: u64,
        /// The session's current epoch.
        expected: u64,
    },
    /// An edit in the batch is invalid against the graph it would see;
    /// nothing was applied (batches are all-or-nothing).
    Rejected {
        /// Index of the offending edit within the batch.
        index: usize,
        /// Why it was refused.
        error: MutationError,
    },
}

/// What a session tune produced.
pub struct SessionTuneOutcome {
    /// The epoch the tuned graph is at.
    pub epoch: u64,
    /// Whether no candidate fell back to a cold rebuild.
    pub warm: bool,
    /// Candidates cold-rebuilt during this tune.
    pub rebuilds: u64,
    /// The full tuner report (winner, counters, trajectory).
    pub report: TuneReport,
}

impl SessionState {
    /// Open a session: cold-derive warm state for every candidate
    /// against the initial graph and machine.
    pub fn open(
        graph: DataflowGraph,
        machine: MachineConfig,
        fom: FigureOfMerit,
        candidates: Vec<MappingCandidate>,
        budget: Budget,
        cost_model: CostModelKind,
    ) -> SessionState {
        let warm = {
            let ev = Evaluator::new(&graph, &machine).with_cost_model(cost_model);
            WarmCache::new(&ev, candidates)
        };
        SessionState {
            graph,
            machine,
            fom,
            budget,
            cost_model,
            warm,
            epoch: 0,
            edits_applied: 0,
            tunes: 0,
            last_touch: Instant::now(),
        }
    }

    /// Current number of graph nodes (for smoke checks and logs).
    pub fn graph_len(&self) -> usize {
        self.graph.len()
    }

    /// The cost backend every tune in this session runs under (baked
    /// at open).
    pub fn cost_model(&self) -> CostModelKind {
        self.cost_model
    }

    /// The evaluator this session's tunes run under: its current graph
    /// and machine, charged under its cost backend.
    pub fn evaluator(&self) -> Evaluator<'_> {
        Evaluator::new(&self.graph, &self.machine).with_cost_model(self.cost_model)
    }

    /// Apply one edit batch atomically: every edit applies and the
    /// epoch bumps by one, or none do. Atomicity is by undo. The edits
    /// apply to the live graph and machine, each keeping its receipt;
    /// at a refused edit the receipts are undone in reverse, which
    /// leaves the session exactly as it was, warm state untouched. A
    /// valid batch is undone too and then replayed one edit at a time,
    /// so that each edit's repair of the warm state sees the graph and
    /// machine as of that edit. Nothing is copied: a tail edit costs
    /// O(1) to apply or undo, and the batch costs its repairs.
    pub fn apply_batch(&mut self, epoch: u64, edits: &[GraphEdit]) -> EditOutcome {
        self.last_touch = Instant::now();
        if epoch != self.epoch {
            return EditOutcome::StaleEpoch {
                got: epoch,
                expected: self.epoch,
            };
        }
        let mut receipts = Vec::with_capacity(edits.len());
        for (index, edit) in edits.iter().enumerate() {
            match apply_edit(&mut self.graph, &mut self.machine, edit) {
                Ok(receipt) => receipts.push(receipt),
                Err(error) => {
                    self.undo(receipts);
                    return EditOutcome::Rejected { index, error };
                }
            }
        }
        self.undo(receipts);
        let mut cone = 0u64;
        for edit in edits {
            let receipt =
                apply_edit(&mut self.graph, &mut self.machine, edit).expect("the batch applied");
            let ev = Evaluator::new(&self.graph, &self.machine).with_cost_model(self.cost_model);
            cone += self.warm.apply_edit(&ev, &receipt);
        }
        self.epoch += 1;
        self.edits_applied += edits.len() as u64;
        EditOutcome::Applied {
            epoch: self.epoch,
            applied: edits.len() as u64,
            cone,
        }
    }

    /// Undo applied edits, latest first.
    fn undo(&mut self, receipts: Vec<AppliedEdit>) {
        for receipt in receipts.into_iter().rev() {
            undo_edit(&mut self.graph, &mut self.machine, receipt);
        }
    }

    /// Re-tune the current graph, seeded from the warm state.
    ///
    /// In debug builds, a deterministic tune (no deadline, not
    /// cancelled) is re-run cold and the winner asserted bit-identical
    /// — the session subsystem's core invariant, paid only where
    /// assertions are on.
    pub fn tune(&mut self, deadline: Option<Instant>, cancel: &CancelToken) -> SessionTuneOutcome {
        self.last_touch = Instant::now();
        let mut budget = self.budget;
        if let Some(d) = deadline {
            budget.deadline = Some(d.saturating_duration_since(Instant::now()));
        }
        let rebuilds_before = self.warm.rebuilds();
        let report = {
            let ev = Evaluator::new(&self.graph, &self.machine).with_cost_model(self.cost_model);
            let report = Tuner::new(&ev, &self.graph, &self.machine, self.fom)
                .with_budget(budget)
                .with_cancel(cancel.clone())
                .tune_warm(&mut self.warm);

            #[cfg(debug_assertions)]
            if !report.cancelled && deadline.is_none() {
                let cold = Tuner::new(&ev, &self.graph, &self.machine, self.fom)
                    .with_budget(self.budget)
                    .tune(self.warm.candidates());
                debug_assert_eq!(
                    report.best_index, cold.best_index,
                    "warm tune picked a different candidate than a cold tune"
                );
                match (&report.best, &cold.best) {
                    (Some(w), Some(c)) => {
                        debug_assert_eq!(w.label, c.label);
                        debug_assert_eq!(
                            w.score.to_bits(),
                            c.score.to_bits(),
                            "warm winner score is not bit-identical to cold"
                        );
                        debug_assert_eq!(w.resolved, c.resolved);
                    }
                    (None, None) => {}
                    _ => debug_assert!(false, "warm and cold disagree on having a winner"),
                }
            }

            report
        };
        let rebuilds = self.warm.rebuilds() - rebuilds_before;
        self.tunes += 1;
        self.last_touch = Instant::now();
        SessionTuneOutcome {
            epoch: self.epoch,
            warm: rebuilds == 0,
            rebuilds,
            report,
        }
    }

    /// Has this session been untouched for at least `ttl`?
    fn idle_for(&self, ttl: Duration, now: Instant) -> bool {
        now.duration_since(self.last_touch) >= ttl
    }
}

/// The server's session table. See the module docs for the locking
/// discipline.
pub struct SessionRegistry {
    next_id: AtomicU64,
    table: Mutex<HashMap<u64, Arc<Mutex<SessionState>>>>,
}

impl Default for SessionRegistry {
    fn default() -> Self {
        SessionRegistry {
            next_id: AtomicU64::new(0),
            table: Mutex::new(HashMap::new()),
        }
    }
}

impl SessionRegistry {
    /// Register a session; returns its id (ids start at 1 and are
    /// never reused, so a stale id can only miss, not alias).
    pub fn open(&self, state: SessionState) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        self.table.lock().insert(id, Arc::new(Mutex::new(state)));
        id
    }

    /// Look up a session. Clones the `Arc` and releases the table lock
    /// before returning, so the caller's work on one session never
    /// blocks requests for others.
    pub fn get(&self, id: u64) -> Option<Arc<Mutex<SessionState>>> {
        self.table.lock().get(&id).cloned()
    }

    /// Remove a session (close). The state is returned so the caller
    /// can report lifetime counters.
    pub fn remove(&self, id: u64) -> Option<Arc<Mutex<SessionState>>> {
        self.table.lock().remove(&id)
    }

    /// Sessions currently held: the `Stats` open-sessions gauge.
    pub fn len(&self) -> usize {
        self.table.lock().len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.table.lock().is_empty()
    }

    /// Drop every session idle for at least `ttl`; returns how many.
    /// A session whose mutex is currently held is mid-request and is
    /// skipped regardless of its clock.
    pub fn evict_idle(&self, ttl: Duration) -> u64 {
        let now = Instant::now();
        let mut evicted = 0u64;
        self.table.lock().retain(|_, slot| {
            match slot.try_lock() {
                Some(state) if state.idle_for(ttl, now) => {
                    evicted += 1;
                    false
                }
                // Busy (locked) or recently touched: keep.
                _ => true,
            }
        });
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fm_core::dataflow::CExpr;
    use fm_core::mapping::Mapping;
    use fm_core::value::Value;

    fn chain(n: usize) -> DataflowGraph {
        let mut g = DataflowGraph::new("chain", 32);
        g.add_node(CExpr::konst(Value::ZERO), vec![], vec![0]);
        for i in 1..n {
            g.add_node(
                CExpr::dep(0).add(CExpr::konst(Value::real(1.0))),
                vec![(i - 1) as u32],
                vec![i as i64],
            );
        }
        g
    }

    fn state() -> SessionState {
        let g = chain(5);
        let cands = vec![MappingCandidate::new("serial", Mapping::serial(&g))];
        SessionState::open(
            g,
            MachineConfig::n5(2, 2),
            FigureOfMerit::Edp,
            cands,
            Budget::unlimited(),
            CostModelKind::Analytic,
        )
    }

    #[test]
    fn batch_is_all_or_nothing() {
        let mut s = state();
        let before_len = s.graph_len();
        // Second edit is invalid (node 0 has consumers): the first
        // must not stick.
        let batch = vec![
            GraphEdit::ResizeTile { tile_bits: 999 },
            GraphEdit::RemoveNode { id: 0 },
        ];
        match s.apply_batch(0, &batch) {
            EditOutcome::Rejected { index: 1, .. } => {}
            _ => panic!("expected Rejected at index 1"),
        }
        assert_eq!(s.epoch, 0);
        assert_eq!(s.graph_len(), before_len);
        assert_ne!(s.machine.tile_bits, 999, "a refused batch is undone");
    }

    /// What a session tune decided, bit for bit (everything but the
    /// wall clock).
    fn decided(out: &SessionTuneOutcome) -> String {
        let r = &out.report;
        let best = r.best.as_ref().map(|b| {
            (
                &b.label,
                b.score.to_bits(),
                &b.resolved,
                format!("{:?}", b.report),
            )
        });
        let trajectory: Vec<(usize, u64)> = r
            .trajectory
            .iter()
            .map(|&(i, s)| (i, s.to_bits()))
            .collect();
        format!(
            "{:?} {} {} {} {} {} {:?} {:?} {:?} {:?} {:?} {:?}",
            r.fom,
            r.offered,
            r.evaluated,
            r.pruned,
            r.fell_back,
            r.cancelled,
            trajectory,
            r.outcome,
            r.best_index,
            best,
            r.refinement,
            (out.epoch, out.warm, out.rebuilds),
        )
    }

    #[test]
    fn a_refused_batch_leaves_no_trace_at_any_position() {
        // A session with outputs, several candidates and a length-bound
        // table, edited once so its warm state is not the cold one.
        fn open() -> SessionState {
            let mut g = chain(12);
            g.mark_output(11);
            g.add_node(CExpr::dep(0).add(CExpr::dep(1)), vec![3, 7], vec![12]);
            let stretch = |w: i64| {
                Mapping::Affine(fm_core::mapping::AffineMap {
                    place: fm_core::mapping::PlaceExpr::row0(IdxExpr::i() % w),
                    time: IdxExpr::i() * w,
                })
            };
            let cands = vec![
                MappingCandidate::new("serial", Mapping::serial(&g)),
                MappingCandidate::new("stretch-2", stretch(2)),
                MappingCandidate::new("stretch-3", stretch(3)),
            ];
            let mut s = SessionState::open(
                g,
                MachineConfig::n5(3, 1),
                FigureOfMerit::Edp,
                cands,
                Budget::unlimited(),
                CostModelKind::Analytic,
            );
            let warmup = [GraphEdit::RetargetEdge {
                node: 12,
                slot: 0,
                new_dep: 2,
            }];
            assert!(matches!(
                s.apply_batch(0, &warmup),
                EditOutcome::Applied { epoch: 1, .. }
            ));
            s
        }
        use fm_core::affine::IdxExpr;
        let valid = [
            // Mid-graph: the chain's tail, node 11, feeds nothing, so
            // it goes and node 12 becomes node 11.
            GraphEdit::RemoveNode { id: 11 },
            GraphEdit::AddNode {
                expr: CExpr::dep(0).add(CExpr::dep(1)),
                deps: vec![4, 11],
                index: vec![12],
                output: true,
            },
            GraphEdit::RetargetEdge {
                node: 5,
                slot: 0,
                new_dep: 2,
            },
            GraphEdit::ResizeTile { tile_bits: 64 },
            GraphEdit::RemoveNode { id: 12 },
        ];
        let invalid = [
            GraphEdit::RemoveNode { id: 0 },
            GraphEdit::RetargetEdge {
                node: 3,
                slot: 0,
                new_dep: 9,
            },
            GraphEdit::AddNode {
                expr: CExpr::dep(1),
                deps: vec![0],
                index: vec![99],
                output: false,
            },
        ];
        let mut untouched = open();
        let want = (untouched.graph.clone(), untouched.machine.clone());
        let want_rebuilds = untouched.warm.rebuilds();
        let want_tune = decided(&untouched.tune(None, &CancelToken::new()));
        for at in 0..=valid.len() {
            for bad in &invalid {
                let mut s = open();
                let mut batch = valid[..at].to_vec();
                batch.push(bad.clone());
                batch.extend_from_slice(&valid[at..]);
                match s.apply_batch(1, &batch) {
                    EditOutcome::Rejected { index, .. } => assert_eq!(index, at),
                    other => panic!("{bad:?} at {at}: expected Rejected, got {other:?}"),
                }
                assert_eq!((&s.graph, &s.machine), (&want.0, &want.1), "at {at}");
                assert_eq!((s.epoch, s.edits_applied), (1, 1), "at {at}");
                assert_eq!(s.warm.rebuilds(), want_rebuilds, "at {at}");
                let tune = s.tune(None, &CancelToken::new());
                assert_eq!(decided(&tune), want_tune, "{bad:?} at {at}");
            }
        }
        // The valid batch itself applies, and tunes as a fresh session
        // over the same graph would.
        let mut s = open();
        assert!(matches!(
            s.apply_batch(1, &valid),
            EditOutcome::Applied {
                epoch: 2,
                applied: 5,
                ..
            }
        ));
        assert_eq!(s.graph_len(), 12);
        let out = s.tune(None, &CancelToken::new());
        assert!(out.warm && out.report.best.is_some());
    }

    #[test]
    fn stale_epoch_is_refused_without_applying() {
        let mut s = state();
        let batch = vec![GraphEdit::ResizeTile { tile_bits: 4096 }];
        match s.apply_batch(7, &batch) {
            EditOutcome::StaleEpoch {
                got: 7,
                expected: 0,
            } => {}
            _ => panic!("expected StaleEpoch"),
        }
        match s.apply_batch(0, &batch) {
            EditOutcome::Applied {
                epoch: 1,
                applied: 1,
                cone: 0,
            } => {}
            _ => panic!("expected Applied"),
        }
        assert_eq!(s.machine.tile_bits, 4096);
    }

    #[test]
    fn tune_after_edits_stays_warm_and_matches_cold() {
        // The debug-assert inside tune() *is* the parity check; this
        // test drives it through an edit stream.
        let mut s = state();
        let batch = vec![GraphEdit::AddNode {
            expr: CExpr::dep(0).add(CExpr::konst(Value::real(1.0))),
            deps: vec![4],
            index: vec![5],
            output: false,
        }];
        match s.apply_batch(0, &batch) {
            EditOutcome::Applied { epoch: 1, .. } => {}
            _ => panic!("expected Applied"),
        }
        // The length change makes the table candidate unresolvable —
        // that is not a rebuild, so the tune is warm but falls back.
        let out = s.tune(None, &CancelToken::new());
        assert!(out.warm);
        assert_eq!(out.rebuilds, 0);
        assert!(out.report.fell_back);
        assert!(out.report.best.is_some());
        // Removing the added node restores the length: the candidate
        // is lazily rebuilt cold, exactly once.
        match s.apply_batch(1, &[GraphEdit::RemoveNode { id: 5 }]) {
            EditOutcome::Applied { epoch: 2, .. } => {}
            _ => panic!("expected Applied"),
        }
        let out = s.tune(None, &CancelToken::new());
        assert!(!out.warm);
        assert_eq!(out.rebuilds, 1);
        assert!(!out.report.fell_back);
        // A further tune with no intervening edits is fully warm.
        let out = s.tune(None, &CancelToken::new());
        assert!(out.warm);
        assert_eq!(out.rebuilds, 0);
        assert_eq!(s.tunes, 3);
    }

    #[test]
    fn registry_evicts_only_idle_sessions() {
        let reg = SessionRegistry::default();
        let a = reg.open(state());
        let b = reg.open(state());
        assert_ne!(a, b);
        assert_eq!(reg.len(), 2);
        // Touch b; with a generous ttl nothing is idle yet.
        assert_eq!(reg.evict_idle(Duration::from_secs(3600)), 0);
        std::thread::sleep(Duration::from_millis(30));
        {
            let slot = reg.get(b).unwrap();
            let mut s = slot.lock();
            match s.apply_batch(0, &[GraphEdit::ResizeTile { tile_bits: 512 }]) {
                EditOutcome::Applied { .. } => {}
                _ => panic!("expected Applied"),
            }
        }
        // a has been idle ≥ 30 ms, b was just touched.
        assert_eq!(reg.evict_idle(Duration::from_millis(25)), 1);
        assert!(reg.get(a).is_none());
        assert!(reg.get(b).is_some());
        // A held lock shields a session from eviction.
        let slot = reg.get(b).unwrap();
        let _busy = slot.lock();
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(reg.evict_idle(Duration::from_millis(1)), 0);
        assert_eq!(reg.len(), 1);
    }
}
