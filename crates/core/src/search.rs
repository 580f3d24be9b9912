//! Mapping-space search.
//!
//! "For each function there are many possible mappings that range from
//! completely serial to minimum-depth parallel with many points
//! between. One can systematically search the space of possible
//! mappings to optimize a given figure of merit: execution time, energy
//! per op, memory footprint, or some combination."
//!
//! Three engines:
//!
//! * [`search`] — exhaustive evaluation of an explicit candidate list
//!   (a *mapping family*), keeping every legal result, the best under a
//!   [`FigureOfMerit`], and the time/energy Pareto front;
//! * [`default_mapper`] — the paper's "default mapper" for programmers
//!   who "don't want to bother with mapping": a greedy list scheduler
//!   that places each element where it becomes ready earliest,
//!   producing a legal table mapping for *any* graph;
//! * [`anneal`] — a simulated-annealing refiner over placements (times
//!   re-derived by list scheduling), for irregular graphs where no
//!   affine family applies.

use std::sync::atomic::{AtomicBool, Ordering};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::cost::{CostReport, Evaluator};
use crate::dataflow::DataflowGraph;
use crate::delta::DeltaEvaluator;
use crate::legality::check;
use crate::machine::MachineConfig;
use crate::mapping::{Mapping, ResolvedMapping};

/// What to optimize.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FigureOfMerit {
    /// Execution time (ps).
    Time,
    /// Total energy (fJ).
    Energy,
    /// Energy-delay product.
    Edp,
    /// Peak tile footprint (bits).
    Footprint,
}

impl FigureOfMerit {
    /// Scalar score (lower is better).
    pub fn score(self, r: &CostReport) -> f64 {
        match self {
            FigureOfMerit::Time => r.time_ps.raw(),
            FigureOfMerit::Energy => r.energy().raw(),
            FigureOfMerit::Edp => r.edp(),
            FigureOfMerit::Footprint => r.peak_tile_bits as f64,
        }
    }
}

/// A named candidate mapping.
#[derive(Debug, Clone)]
pub struct MappingCandidate {
    /// Label for reports (e.g. `"P=8 skewed"`).
    pub label: String,
    /// The mapping.
    pub mapping: Mapping,
}

impl MappingCandidate {
    /// Construct.
    pub fn new(label: impl Into<String>, mapping: Mapping) -> Self {
        MappingCandidate {
            label: label.into(),
            mapping,
        }
    }
}

/// A family of candidate mappings. Kernel crates implement this for
/// their recurrences (e.g. "anti-diagonal with P ∈ {1,2,4,…}, skew ∈
/// {paper, corrected}").
pub trait MappingFamily {
    /// Enumerate the family.
    fn candidates(&self, machine: &MachineConfig) -> Vec<MappingCandidate>;
}

/// One evaluated legal mapping.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SearchResult {
    /// Candidate label.
    pub label: String,
    /// Cost report.
    pub report: CostReport,
    /// Score under the search's figure of merit (lower is better).
    pub score: f64,
}

/// The outcome of a search.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SearchOutcome {
    /// Candidates evaluated.
    pub evaluated: usize,
    /// Candidates that were legal.
    pub legal: usize,
    /// Labels of illegal candidates (with violation counts).
    pub rejected: Vec<(String, u64)>,
    /// Legal results sorted by ascending score.
    pub results: Vec<SearchResult>,
    /// Indices into `results` forming the time/energy Pareto front,
    /// sorted by ascending time.
    pub pareto: Vec<usize>,
}

impl SearchOutcome {
    /// The best legal result, if any.
    pub fn best(&self) -> Option<&SearchResult> {
        self.results.first()
    }
}

/// The outcome of evaluating one candidate in isolation: the pure
/// resolve → legality-check → cost step that [`search`] runs per
/// candidate, exposed so callers (e.g. the `fm-autotune` tuner) can fan
/// candidates across threads and still assemble a [`SearchOutcome`]
/// identical to the serial one via [`assemble_outcome`].
///
/// A legal evaluation carries no mapping: a tune ranks every candidate
/// but keeps only its winner's, which `MappingCandidate::mapping`
/// resolves again on demand. Evaluating a candidate therefore
/// allocates nothing whose size depends on the graph.
#[derive(Debug, Clone, PartialEq)]
pub enum CandidateEval {
    /// Legal: the cost report and its score.
    Legal {
        /// The evaluator's cost report.
        report: CostReport,
        /// Score under the figure of merit (lower is better).
        score: f64,
    },
    /// The mapping failed to resolve on this machine.
    Unresolvable,
    /// The mapping resolved but violated legality (violation count).
    Illegal(u64),
}

/// Evaluate a single candidate: resolve, legality-check, cost.
///
/// Pure in the sense that it reads only its arguments, so calls for
/// distinct candidates may run concurrently.
pub fn evaluate_candidate(
    evaluator: &Evaluator<'_>,
    graph: &DataflowGraph,
    machine: &MachineConfig,
    candidate: &MappingCandidate,
    fom: FigureOfMerit,
) -> CandidateEval {
    let rm = match candidate.mapping.resolve(graph, machine) {
        Ok(rm) => rm,
        Err(_) => return CandidateEval::Unresolvable,
    };
    let rep = check(graph, &rm, machine);
    if !rep.is_legal() {
        return CandidateEval::Illegal(rep.total_violations);
    }
    let report = evaluator.evaluate(&rm);
    let score = evaluator.score(fom, &report);
    CandidateEval::Legal { report, score }
}

/// The reference (pre-flat-engine) candidate evaluation: resolve with
/// fresh buffers, `HashMap`-based legality, and the per-call
/// leaf-rebuild cost path (`Evaluator::evaluate_ref`). Kept as the
/// bit-exactness oracle for the flat engine's debug asserts, parity
/// tests, and the E22 baseline arm — not a hot path.
#[doc(hidden)]
pub fn evaluate_candidate_ref(
    evaluator: &Evaluator<'_>,
    graph: &DataflowGraph,
    machine: &MachineConfig,
    candidate: &MappingCandidate,
    fom: FigureOfMerit,
) -> CandidateEval {
    let rm = match candidate.mapping.resolve(graph, machine) {
        Ok(rm) => rm,
        Err(_) => return CandidateEval::Unresolvable,
    };
    let rep = check(graph, &rm, machine);
    if !rep.is_legal() {
        return CandidateEval::Illegal(rep.total_violations);
    }
    let report = evaluator.evaluate_ref(&rm);
    let score = evaluator.score(fom, &report);
    CandidateEval::Legal { report, score }
}

/// Assemble per-candidate evaluations (in candidate order) into a
/// [`SearchOutcome`]. The sort is stable, so ties on score resolve
/// toward the earlier candidate — the winner does not depend on how the
/// evaluations were computed, only on their order here.
pub fn assemble_outcome(
    candidates: &[MappingCandidate],
    evals: impl IntoIterator<Item = CandidateEval>,
) -> SearchOutcome {
    let mut results = Vec::new();
    let mut rejected = Vec::new();
    for (cand, eval) in candidates.iter().zip(evals) {
        match eval {
            CandidateEval::Legal { report, score, .. } => results.push(SearchResult {
                label: cand.label.clone(),
                report,
                score,
            }),
            CandidateEval::Unresolvable => rejected.push((cand.label.clone(), u64::MAX)),
            CandidateEval::Illegal(violations) => {
                rejected.push((cand.label.clone(), violations));
            }
        }
    }
    results.sort_by(|a, b| a.score.total_cmp(&b.score));
    let pareto = pareto_front(&results);
    SearchOutcome {
        evaluated: candidates.len(),
        legal: results.len(),
        rejected,
        results,
        pareto,
    }
}

/// Exhaustively evaluate a candidate list.
pub fn search(
    evaluator: &Evaluator<'_>,
    graph: &DataflowGraph,
    machine: &MachineConfig,
    candidates: &[MappingCandidate],
    fom: FigureOfMerit,
) -> SearchOutcome {
    assemble_outcome(
        candidates,
        candidates
            .iter()
            .map(|c| evaluate_candidate(evaluator, graph, machine, c, fom)),
    )
}

/// Indices of the time/energy Pareto-optimal results, ascending in time.
fn pareto_front(results: &[SearchResult]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..results.len()).collect();
    idx.sort_by(|&a, &b| {
        results[a]
            .report
            .time_ps
            .raw()
            .total_cmp(&results[b].report.time_ps.raw())
    });
    let mut front = Vec::new();
    let mut best_energy = f64::INFINITY;
    for i in idx {
        let e = results[i].report.energy().raw();
        if e < best_energy {
            best_energy = e;
            front.push(i);
        }
    }
    front
}

/// The default mapper: greedy list scheduling over the grid.
///
/// Visits nodes in topological (id) order; each node is placed on the
/// PE where it can start earliest, considering operand arrival
/// (causality gap from each producer) and PE occupancy; ties break
/// toward the PE with the least operand-movement energy. The result is
/// legal by construction for causality and single-issue occupancy.
pub fn default_mapper(graph: &DataflowGraph, machine: &MachineConfig) -> ResolvedMapping {
    let pes: Vec<(u32, u32)> = (0..machine.rows)
        .flat_map(|y| (0..machine.cols).map(move |x| (x, y)))
        .collect();
    // Next free cycle per PE (single-issue model).
    let mut next_free: Vec<i64> = vec![0; pes.len()];
    let pe_index = |p: (u32, u32)| (p.1 * machine.cols + p.0) as usize;

    let mut place: Vec<(i64, i64)> = Vec::with_capacity(graph.len());
    let mut time: Vec<i64> = Vec::with_capacity(graph.len());

    for (id, n) in graph.nodes.iter().enumerate() {
        // Candidate PEs: producers' PEs, their 4-neighborhoods, and the
        // globally least-loaded PE. Sources consider only the least
        // loaded (spreading independent work).
        let mut cands: Vec<(u32, u32)> = Vec::new();
        for &d in &n.deps {
            let (px, py) = place[d as usize];
            let p = (px as u32, py as u32);
            cands.push(p);
            for (dx, dy) in [(1i64, 0i64), (-1, 0), (0, 1), (0, -1)] {
                let (nx, ny) = (px + dx, py + dy);
                if machine.contains(nx, ny) {
                    cands.push((nx as u32, ny as u32));
                }
            }
        }
        let least = (0..pes.len()).min_by_key(|&i| next_free[i]).unwrap();
        cands.push(pes[least]);
        cands.sort_unstable();
        cands.dedup();

        let mut best: Option<((u32, u32), i64, f64)> = None;
        for &pe in &cands {
            let mut ready: i64 = 0;
            let mut move_mm = 0.0;
            for &d in &n.deps {
                let (px, py) = place[d as usize];
                let prod = (px as u32, py as u32);
                let arrive = time[d as usize] + machine.required_gap(prod, pe);
                ready = ready.max(arrive);
                move_mm += machine.distance_mm(prod, pe);
            }
            let start = ready.max(next_free[pe_index(pe)]);
            let better = match &best {
                None => true,
                Some((_, bt, bm)) => start < *bt || (start == *bt && move_mm < *bm),
            };
            if better {
                best = Some((pe, start, move_mm));
            }
        }
        let (pe, start, _) = best.expect("at least one candidate PE");
        next_free[pe_index(pe)] = start + 1;
        place.push((i64::from(pe.0), i64::from(pe.1)));
        time.push(start);
        let _ = id;
    }

    ResolvedMapping { place, time }
}

/// List-schedule *times* for fixed placements: each node starts at the
/// earliest cycle satisfying causality and single-issue occupancy of
/// its (given) PE. Used by [`anneal`] to re-derive a legal schedule
/// after moving nodes.
pub fn retime(
    graph: &DataflowGraph,
    places: &[(i64, i64)],
    machine: &MachineConfig,
) -> ResolvedMapping {
    use std::collections::HashMap;
    let mut busy: HashMap<(i64, i64), Vec<i64>> = HashMap::new(); // sorted busy cycles per PE
    let mut time: Vec<i64> = Vec::with_capacity(graph.len());
    for (id, n) in graph.nodes.iter().enumerate() {
        let pe = places[id];
        let pe_u = (pe.0 as u32, pe.1 as u32);
        let mut ready = 0i64;
        for &d in &n.deps {
            let prod = places[d as usize];
            let prod_u = (prod.0 as u32, prod.1 as u32);
            ready = ready.max(time[d as usize] + machine.required_gap(prod_u, pe_u));
        }
        let slots = busy.entry(pe).or_default();
        // Find first cycle ≥ ready not already taken (slots kept sorted).
        let mut t = ready;
        let mut pos = slots.partition_point(|&s| s < ready);
        while pos < slots.len() && slots[pos] == t {
            t += 1;
            pos += 1;
        }
        slots.insert(pos, t);
        time.push(t);
    }
    ResolvedMapping {
        place: places.to_vec(),
        time,
    }
}

/// Which evaluation engine [`anneal_with`] drives. Both produce the
/// identical (mapping, report) for the same inputs and seed — the
/// incremental backend just does cone-sized work per move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnnealBackend {
    /// Re-derive the full schedule and re-cost the whole graph per move.
    Full,
    /// Repair cached state through [`DeltaEvaluator`]: O(Δ) per move.
    Incremental,
}

/// Storage-violation count of a mapping, as the incremental engine
/// tracks it: PEs whose peak live bits exceed the tile capacity.
fn full_violations(graph: &DataflowGraph, machine: &MachineConfig, rm: &ResolvedMapping) -> u64 {
    let peaks = crate::legality::tile_peaks(graph, rm, rm.makespan());
    crate::legality::storage_violation_count(&peaks, machine.tile_bits)
}

/// The annealer's evaluation engine. One enum (rather than two loops)
/// so both backends consume the *same* RNG stream and make the same
/// accept/reject decisions — that is what makes backend parity testable
/// bit-for-bit.
// One Engine lives per anneal() call, on the stack, never in a
// collection — the Full/Inc size asymmetry is harmless.
#[allow(clippy::large_enum_variant)]
enum Engine<'e, 'a> {
    Full {
        ev: &'e Evaluator<'a>,
        graph: &'a DataflowGraph,
        machine: &'a MachineConfig,
        places: Vec<(i64, i64)>,
        rm: ResolvedMapping,
        report: CostReport,
        violations: u64,
        /// Pre-move (rm, report, violations), for O(1) revert.
        stash: Option<(ResolvedMapping, CostReport, u64)>,
    },
    Inc(Box<DeltaEvaluator<'e, 'a>>),
}

impl Engine<'_, '_> {
    fn place_of(&self, node: usize) -> (i64, i64) {
        match self {
            Engine::Full { places, .. } => places[node],
            Engine::Inc(d) => d.place_of(node),
        }
    }

    fn violations(&self) -> u64 {
        match self {
            Engine::Full { violations, .. } => *violations,
            Engine::Inc(d) => d.storage_violations(),
        }
    }

    fn score(&self, fom: FigureOfMerit) -> f64 {
        match self {
            Engine::Full { ev, report, .. } => ev.score(fom, report),
            Engine::Inc(d) => d.score(fom),
        }
    }

    fn snapshot(&self) -> (ResolvedMapping, CostReport) {
        match self {
            Engine::Full { rm, report, .. } => (rm.clone(), report.clone()),
            Engine::Inc(d) => (d.mapping(), d.report()),
        }
    }

    fn apply(&mut self, node: usize, pe: (i64, i64)) {
        match self {
            Engine::Full {
                ev,
                graph,
                machine,
                places,
                rm,
                report,
                violations,
                stash,
            } => {
                places[node] = pe;
                let new_rm = retime(graph, places, machine);
                let new_report = ev.evaluate(&new_rm);
                let new_viol = full_violations(graph, machine, &new_rm);
                *stash = Some((
                    std::mem::replace(rm, new_rm),
                    std::mem::replace(report, new_report),
                    std::mem::replace(violations, new_viol),
                ));
            }
            Engine::Inc(d) => d.apply_move(node, pe),
        }
    }

    fn revert(&mut self, node: usize, old_pe: (i64, i64)) {
        match self {
            Engine::Full {
                places,
                rm,
                report,
                violations,
                stash,
                ..
            } => {
                places[node] = old_pe;
                let (r, rep, v) = stash.take().expect("revert without a preceding apply");
                *rm = r;
                *report = rep;
                *violations = v;
            }
            // The incremental engine journals each move's overwritten
            // values; replaying the journal restores the prior state
            // without re-running any scheduling.
            Engine::Inc(d) => {
                d.undo();
                debug_assert_eq!(d.place_of(node), old_pe);
            }
        }
    }
}

/// Simulated-annealing placement refiner.
///
/// Starts from `init` placements, proposes single-node moves to random
/// neighboring PEs, re-derives times with [`retime`], and accepts by
/// the Metropolis rule on the figure-of-merit score. A move that would
/// *increase* the storage-violation count is rejected outright, so a
/// legal starting point stays legal. Returns the best mapping found
/// (violations, then score, lexicographically) and its report.
///
/// Candidate directions are drawn from the on-grid neighbor set, so an
/// edge-of-grid node never burns an iteration on an off-grid proposal.
///
/// All randomness flows from the explicit `seed`: the same
/// (inputs, seed) pair always returns the identical mapping and
/// report, so annealed results are reproducible and cacheable (the
/// `fm-autotune` tuning cache relies on this).
///
/// Uses the incremental [`DeltaEvaluator`] engine; see [`anneal_with`]
/// to select a backend explicitly.
pub fn anneal(
    evaluator: &Evaluator<'_>,
    graph: &DataflowGraph,
    machine: &MachineConfig,
    init: &ResolvedMapping,
    fom: FigureOfMerit,
    iters: u32,
    seed: u64,
) -> (ResolvedMapping, CostReport) {
    anneal_with(
        evaluator,
        graph,
        machine,
        init,
        fom,
        iters,
        seed,
        AnnealBackend::Incremental,
    )
}

/// [`anneal`] with an explicit evaluation backend. Both backends follow
/// the identical proposal/accept trajectory (same RNG stream, same
/// decisions) and return the identical (mapping, report).
#[allow(clippy::too_many_arguments)] // anneal's signature + the backend selector
pub fn anneal_with(
    evaluator: &Evaluator<'_>,
    graph: &DataflowGraph,
    machine: &MachineConfig,
    init: &ResolvedMapping,
    fom: FigureOfMerit,
    iters: u32,
    seed: u64,
    backend: AnnealBackend,
) -> (ResolvedMapping, CostReport) {
    let never = AtomicBool::new(false);
    anneal_until(
        evaluator, graph, machine, init, fom, iters, seed, backend, &never,
    )
    .expect("never cancelled")
}

/// [`anneal_with`] that checks `cancel` before every move and gives up,
/// returning `None`, once it is set; uninterrupted, the result is
/// identical.
#[allow(clippy::too_many_arguments)] // anneal_with's signature + the cancel flag
pub fn anneal_until(
    evaluator: &Evaluator<'_>,
    graph: &DataflowGraph,
    machine: &MachineConfig,
    init: &ResolvedMapping,
    fom: FigureOfMerit,
    iters: u32,
    seed: u64,
    backend: AnnealBackend,
    cancel: &AtomicBool,
) -> Option<(ResolvedMapping, CostReport)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut engine = match backend {
        AnnealBackend::Full => {
            let rm = retime(graph, &init.place, machine);
            let report = evaluator.evaluate(&rm);
            let violations = full_violations(graph, machine, &rm);
            Engine::Full {
                ev: evaluator,
                graph,
                machine,
                places: init.place.clone(),
                rm,
                report,
                violations,
                stash: None,
            }
        }
        AnnealBackend::Incremental => {
            Engine::Inc(Box::new(DeltaEvaluator::new(evaluator, &init.place)))
        }
    };

    let mut current_score = engine.score(fom);
    let (mut best, mut best_report) = engine.snapshot();
    let mut best_score = current_score;
    let mut best_viol = engine.violations();

    // A 1-PE machine has no neighbor moves; nothing to refine.
    if graph.is_empty() || machine.pe_count() == 1 || iters == 0 {
        return Some((best, best_report));
    }

    const DIRS: [(i64, i64); 4] = [(1, 0), (-1, 0), (0, 1), (0, -1)];
    let t0 = current_score.abs().max(1.0) * 0.05;
    for it in 0..iters {
        if cancel.load(Ordering::Relaxed) {
            return None;
        }
        let temp = t0 * (1.0 - f64::from(it) / f64::from(iters.max(1))).max(1e-3);
        let node = rng.random_range(0..graph.len());
        let old = engine.place_of(node);
        // Draw from the on-grid neighbor set (never empty on a >1-PE
        // grid), so edge nodes don't waste iterations on off-grid
        // proposals.
        let mut valid = [(0i64, 0i64); 4];
        let mut nvalid = 0;
        for (dx, dy) in DIRS {
            let c = (old.0 + dx, old.1 + dy);
            if machine.contains(c.0, c.1) {
                valid[nvalid] = c;
                nvalid += 1;
            }
        }
        let cand = valid[rng.random_range(0..nvalid)];
        let cur_viol = engine.violations();
        engine.apply(node, cand);
        let viol = engine.violations();
        if viol > cur_viol {
            // Never walk deeper into storage-illegal territory. No RNG
            // draw here, so both backends stay stream-identical.
            engine.revert(node, old);
            continue;
        }
        let score = engine.score(fom);
        let accept =
            score <= current_score || rng.random::<f64>() < ((current_score - score) / temp).exp();
        if accept {
            current_score = score;
            if viol < best_viol || (viol == best_viol && score < best_score) {
                let (m, r) = engine.snapshot();
                best = m;
                best_report = r;
                best_score = score;
                best_viol = viol;
            }
        } else {
            engine.revert(node, old);
        }
    }
    Some((best, best_report))
}

/// Deterministic greedy local refinement on the incremental engine.
///
/// Scans nodes in id order; for each, tries the four neighbor PEs and
/// keeps the first move that strictly improves (violations, score)
/// lexicographically. Repeats whole passes until one finds nothing or
/// `max_rounds` passes have run. No randomness — useful as a cheap
/// polish after [`anneal`] or as a reproducible baseline refiner.
pub fn hill_climb(
    evaluator: &Evaluator<'_>,
    graph: &DataflowGraph,
    machine: &MachineConfig,
    init: &ResolvedMapping,
    fom: FigureOfMerit,
    max_rounds: u32,
) -> (ResolvedMapping, CostReport) {
    let mut engine = DeltaEvaluator::new(evaluator, &init.place);
    if graph.is_empty() || machine.pe_count() == 1 {
        return (engine.mapping(), engine.report());
    }
    let mut cur_score = engine.score(fom);
    let mut cur_viol = engine.storage_violations();
    const DIRS: [(i64, i64); 4] = [(1, 0), (-1, 0), (0, 1), (0, -1)];
    for _ in 0..max_rounds {
        let mut improved = false;
        for node in 0..graph.len() {
            let old = engine.place_of(node);
            for (dx, dy) in DIRS {
                let cand = (old.0 + dx, old.1 + dy);
                if !machine.contains(cand.0, cand.1) {
                    continue;
                }
                engine.apply_move(node, cand);
                let viol = engine.storage_violations();
                let score = engine.score(fom);
                if viol < cur_viol || (viol == cur_viol && score < cur_score) {
                    cur_viol = viol;
                    cur_score = score;
                    improved = true;
                    break; // keep the move; on to the next node
                }
                engine.apply_move(node, old);
            }
        }
        if !improved {
            break;
        }
    }
    (engine.mapping(), engine.report())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::IdxExpr;
    use crate::dataflow::CExpr;
    use crate::mapping::{AffineMap, PlaceExpr};
    use crate::value::Value;

    /// Independent elements: i ↦ const, n of them.
    fn wide(n: usize) -> DataflowGraph {
        let mut g = DataflowGraph::new("wide", 32);
        for i in 0..n {
            g.add_node(CExpr::konst(Value::real(i as f64)), vec![], vec![i as i64]);
        }
        g
    }

    /// Serial chain.
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

    #[test]
    fn search_ranks_parallel_over_serial_for_time() {
        let g = wide(16);
        let m = MachineConfig::linear(16);
        let ev = Evaluator::new(&g, &m);
        let cands = vec![
            MappingCandidate::new("serial", Mapping::serial(&g)),
            MappingCandidate::new(
                "parallel",
                Mapping::Affine(AffineMap {
                    place: PlaceExpr::row0(IdxExpr::i()),
                    time: IdxExpr::c(0),
                }),
            ),
        ];
        let out = search(&ev, &g, &m, &cands, FigureOfMerit::Time);
        assert_eq!(out.legal, 2);
        assert_eq!(out.best().unwrap().label, "parallel");
    }

    #[test]
    fn illegal_candidates_rejected_with_counts() {
        let g = chain(4);
        let m = MachineConfig::linear(4);
        let ev = Evaluator::new(&g, &m);
        let cands = vec![MappingCandidate::new(
            "all-at-once",
            Mapping::Affine(AffineMap {
                place: PlaceExpr::row0(IdxExpr::i()),
                time: IdxExpr::c(0), // dependent nodes simultaneous
            }),
        )];
        let out = search(&ev, &g, &m, &cands, FigureOfMerit::Time);
        assert_eq!(out.legal, 0);
        assert_eq!(out.rejected.len(), 1);
        assert!(out.rejected[0].1 >= 3);
        assert!(out.best().is_none());
    }

    #[test]
    fn pareto_front_is_nondominated() {
        let g = wide(8);
        let m = MachineConfig::linear(8);
        let ev = Evaluator::new(&g, &m);
        // Families: serial (slow, cheap movement), spread (fast, same
        // energy here since no deps) — front must be nonempty and
        // monotone.
        let cands = vec![
            MappingCandidate::new("serial", Mapping::serial(&g)),
            MappingCandidate::new(
                "spread",
                Mapping::Affine(AffineMap {
                    place: PlaceExpr::row0(IdxExpr::i()),
                    time: IdxExpr::c(0),
                }),
            ),
        ];
        let out = search(&ev, &g, &m, &cands, FigureOfMerit::Edp);
        assert!(!out.pareto.is_empty());
        // Front sorted by time with strictly decreasing energy.
        let mut last_t = f64::NEG_INFINITY;
        let mut last_e = f64::INFINITY;
        for &i in &out.pareto {
            let r = &out.results[i].report;
            assert!(r.time_ps.raw() >= last_t);
            assert!(r.energy().raw() < last_e);
            last_t = r.time_ps.raw();
            last_e = r.energy().raw();
        }
    }

    #[test]
    fn default_mapper_is_legal_on_random_dag() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        let mut g = DataflowGraph::new("random", 32);
        for i in 0..200u32 {
            let ndeps = rng.random_range(0..=2.min(i));
            let mut deps = Vec::new();
            for _ in 0..ndeps {
                deps.push(rng.random_range(0..i));
            }
            deps.sort_unstable();
            deps.dedup();
            let expr = match deps.len() {
                0 => CExpr::konst(Value::real(1.0)),
                1 => CExpr::dep(0),
                _ => CExpr::dep(0).add(CExpr::dep(1)),
            };
            g.add_node(expr, deps, vec![i as i64]);
        }
        let m = MachineConfig::n5(4, 4);
        let rm = default_mapper(&g, &m);
        let rep = check(&g, &rm, &m);
        assert!(
            rep.is_legal(),
            "{:?}",
            &rep.errors[..rep.errors.len().min(3)]
        );
    }

    #[test]
    fn default_mapper_spreads_independent_work() {
        let g = wide(16);
        let m = MachineConfig::n5(4, 4);
        let rm = default_mapper(&g, &m);
        assert!(rm.pes_used() > 8, "used {}", rm.pes_used());
        assert!(rm.makespan() <= 2);
    }

    #[test]
    fn default_mapper_keeps_chain_local() {
        let g = chain(32);
        let m = MachineConfig::n5(4, 4);
        let rm = default_mapper(&g, &m);
        // A chain gains nothing from moving; the mapper should keep it
        // on very few PEs and near the minimum makespan.
        assert!(rm.pes_used() <= 2);
        assert_eq!(rm.makespan(), 32);
    }

    #[test]
    fn retime_respects_occupancy() {
        let g = wide(4);
        let m = MachineConfig::linear(2);
        // All four on one PE → times must be distinct.
        let places = vec![(0i64, 0i64); 4];
        let rm = retime(&g, &places, &m);
        let mut ts = rm.time.clone();
        ts.sort_unstable();
        ts.dedup();
        assert_eq!(ts.len(), 4);
        assert!(check(&g, &rm, &m).is_legal());
    }

    #[test]
    fn anneal_does_not_regress() {
        let g = chain(16);
        let m = MachineConfig::n5(4, 4);
        let ev = Evaluator::new(&g, &m);
        // Start from a deliberately bad placement: alternate corners.
        let places: Vec<(i64, i64)> = (0..16)
            .map(|i| if i % 2 == 0 { (0, 0) } else { (3, 3) })
            .collect();
        let init = retime(&g, &places, &m);
        let init_score = FigureOfMerit::Energy.score(&ev.evaluate(&init));
        let (best_rm, best_rep) = anneal(&ev, &g, &m, &init, FigureOfMerit::Energy, 400, 7);
        assert!(best_rep.energy().raw() <= init_score);
        assert!(check(&g, &best_rm, &m).is_legal());
    }

    #[test]
    fn anneal_is_deterministic_in_its_seed() {
        let g = chain(12);
        let m = MachineConfig::n5(4, 2);
        let ev = Evaluator::new(&g, &m);
        let places: Vec<(i64, i64)> = (0..12)
            .map(|i| if i % 2 == 0 { (0, 0) } else { (3, 1) })
            .collect();
        let init = retime(&g, &places, &m);
        // Same seed: bit-identical mapping and report, run to run.
        let (rm_a, rep_a) = anneal(&ev, &g, &m, &init, FigureOfMerit::Energy, 300, 11);
        let (rm_b, rep_b) = anneal(&ev, &g, &m, &init, FigureOfMerit::Energy, 300, 11);
        assert_eq!(rm_a, rm_b);
        assert_eq!(rep_a.cycles, rep_b.cycles);
        assert_eq!(rep_a.energy().raw(), rep_b.energy().raw());
        // A different seed explores a different trajectory; both stay
        // legal and neither regresses below the shared start point.
        let (rm_c, rep_c) = anneal(&ev, &g, &m, &init, FigureOfMerit::Energy, 300, 12);
        assert!(check(&g, &rm_c, &m).is_legal());
        let init_score = FigureOfMerit::Energy.score(&ev.evaluate(&init));
        assert!(rep_a.energy().raw() <= init_score);
        assert!(rep_c.energy().raw() <= init_score);
    }

    #[test]
    fn anneal_backends_agree_bit_for_bit() {
        let g = chain(14);
        let m = MachineConfig::n5(4, 3);
        let ev = Evaluator::new(&g, &m);
        let places: Vec<(i64, i64)> = (0..14)
            .map(|i| if i % 2 == 0 { (0, 0) } else { (3, 2) })
            .collect();
        let init = retime(&g, &places, &m);
        for fom in [
            FigureOfMerit::Energy,
            FigureOfMerit::Time,
            FigureOfMerit::Edp,
        ] {
            let (rm_f, rep_f) = anneal_with(&ev, &g, &m, &init, fom, 250, 21, AnnealBackend::Full);
            let (rm_i, rep_i) =
                anneal_with(&ev, &g, &m, &init, fom, 250, 21, AnnealBackend::Incremental);
            assert_eq!(rm_f, rm_i, "backends diverged under {fom:?}");
            assert_eq!(rep_f, rep_i, "reports diverged under {fom:?}");
        }
    }

    #[test]
    fn anneal_on_one_pe_machine_returns_init() {
        let g = chain(6);
        let m = MachineConfig::linear(1);
        let ev = Evaluator::new(&g, &m);
        let init = retime(&g, &[(0, 0); 6], &m);
        let (rm, rep) = anneal(&ev, &g, &m, &init, FigureOfMerit::Energy, 100, 3);
        assert_eq!(rm, init);
        assert_eq!(rep, ev.evaluate(&init));
    }

    #[test]
    fn anneal_never_leaves_storage_legality() {
        // Tiny tiles: a legal-but-tight start must stay legal.
        let g = wide(12);
        let mut m = MachineConfig::n5(4, 3);
        m.tile_bits = 2 * 32;
        let ev = Evaluator::new(&g, &m);
        let places: Vec<(i64, i64)> = (0..12).map(|i| (i % 4, i / 4)).collect();
        let init = retime(&g, &places, &m);
        assert!(check(&g, &init, &m).is_legal());
        let (rm, _) = anneal(&ev, &g, &m, &init, FigureOfMerit::Energy, 300, 5);
        assert!(check(&g, &rm, &m).is_legal());
    }

    #[test]
    fn hill_climb_improves_and_is_deterministic() {
        let g = chain(16);
        let m = MachineConfig::n5(4, 4);
        let ev = Evaluator::new(&g, &m);
        let places: Vec<(i64, i64)> = (0..16)
            .map(|i| if i % 2 == 0 { (0, 0) } else { (3, 3) })
            .collect();
        let init = retime(&g, &places, &m);
        let init_score = FigureOfMerit::Energy.score(&ev.evaluate(&init));
        let (rm_a, rep_a) = hill_climb(&ev, &g, &m, &init, FigureOfMerit::Energy, 8);
        let (rm_b, rep_b) = hill_climb(&ev, &g, &m, &init, FigureOfMerit::Energy, 8);
        assert_eq!(rm_a, rm_b);
        assert_eq!(rep_a, rep_b);
        assert!(
            rep_a.energy().raw() < init_score,
            "climb should improve a bad start"
        );
        assert!(check(&g, &rm_a, &m).is_legal());
    }
}
