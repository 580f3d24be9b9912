//! Seeded workload inputs and their reference answers.
//!
//! Every request the servers see is generated here from the run's seed,
//! and every answer they must give is computed here in-process, before
//! any timing starts. Timed replies are then checked by plain equality
//! against these answers, never by recomputation.

use fm_autotune::{Budget, Refinement, TunedMapping, Tuner};
use fm_core::affine::IdxExpr;
use fm_core::cost::Evaluator;
use fm_core::dataflow::{CExpr, DataflowGraph};
use fm_core::legality::check;
use fm_core::machine::MachineConfig;
use fm_core::mapping::{AffineMap, Mapping, PlaceExpr, ResolvedMapping};
use fm_core::mutate::{apply_edit, GraphEdit};
use fm_core::search::{FigureOfMerit, MappingCandidate};
use fm_core::value::Value;
use fm_grid::{SimConfig, Simulator};
use fm_kernels::editdist::{
    edit_recurrence, paper_literal_mapping, skewed_mapping, skewed_mapping_2d, Scoring,
};
use fm_kernels::fft::{fft_graph, fft_mapping, FftVariant, LanePlacement};
use fm_kernels::stencil::{blocked_mapping, stencil_recurrence};
use fm_serve::protocol::{
    EvaluateReply, EvaluateRequest, Request, SessionOpenRequest, SimulateReply, SimulateRequest,
    TuneReply, TuneRequest, WireCandidate,
};
use fm_workspan::ThreadPool;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Cold `Tune` of a 576-node edit-distance graph, one at a time.
    Tune,
    /// One revision per op: a sealed edit batch, then `SessionTune`.
    Session,
    /// Pipelined `Evaluate` and `Simulate` of small kernels.
    Rpc,
    /// The `tune` stream through a coordinator and two shards.
    Fleet,
}

impl Kind {
    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "tune" => Some(Kind::Tune),
            "session" => Some(Kind::Session),
            "rpc" => Some(Kind::Rpc),
            "fleet" => Some(Kind::Fleet),
            _ => None,
        }
    }

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Tune => "tune",
            Kind::Session => "session",
            Kind::Rpc => "rpc",
            Kind::Fleet => "fleet",
        }
    }
}

/// SplitMix64: the only randomness source, so a seed fixes every input.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` within stream `stream` (streams keep the
    /// inputs of different parts independent of each other's draws).
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

// ---------------------------------------------------------------- tune

/// Edit-distance problem size of the `tune` and `fleet` graph (24×24 =
/// 576 nodes).
const TUNE_N: usize = 24;
/// Refinement seeds the op stream cycles through, so consecutive
/// requests differ.
const TUNE_SEEDS: usize = 4;
/// Annealing refinement of every tune: 2 chains × 300 iterations.
const TUNE_CHAINS: usize = 2;
const TUNE_ITERS: u32 = 300;

/// `tune`/`fleet` inputs: one request per refinement seed and the
/// winner each must return.
pub struct TuneInputs {
    /// `Request::Tune` values, built once.
    pub requests: Vec<Request>,
    /// Reference winner of `requests[k]`.
    pub expected: Vec<TunedMapping>,
}

/// Skewed, skewed-2D and paper-literal mappings for P = 1..64 (the
/// serpentine P = 1 mapping is the row-0 one, so it appears once).
pub fn tune_candidates(m: usize) -> Vec<WireCandidate> {
    let mut out = Vec::new();
    for p in 1..=64i64 {
        out.push(WireCandidate {
            label: format!("skewed P={p}"),
            mapping: skewed_mapping(p, m),
        });
        if p > 1 {
            out.push(WireCandidate {
                label: format!("skewed-2d P={p}"),
                mapping: skewed_mapping_2d(p, m),
            });
        }
        out.push(WireCandidate {
            label: format!("paper-literal P={p}"),
            mapping: paper_literal_mapping(p, m),
        });
    }
    out
}

/// Convert wire candidates the way the server does.
pub fn to_candidates(wire: &[WireCandidate]) -> Vec<MappingCandidate> {
    wire.iter()
        .map(|c| MappingCandidate::new(c.label.clone(), c.mapping.clone()))
        .collect()
}

/// Build the `tune` requests for `seed` and their reference winners.
pub fn tune_inputs(seed: u64, pool: &ThreadPool) -> TuneInputs {
    let graph = edit_recurrence(TUNE_N, TUNE_N, Scoring::levenshtein())
        .elaborate()
        .expect("edit recurrence elaborates");
    let machine = MachineConfig::n5(8, 8);
    let wire = tune_candidates(TUNE_N);
    let candidates = to_candidates(&wire);
    let mut rng = Rng::new(seed, 1);
    let mut requests = Vec::with_capacity(TUNE_SEEDS);
    let mut expected = Vec::with_capacity(TUNE_SEEDS);
    for _ in 0..TUNE_SEEDS {
        let refinement = Refinement {
            chains: TUNE_CHAINS,
            iters: TUNE_ITERS,
            seed: rng.next_u64() >> 1,
        };
        let ev = Evaluator::new(&graph, &machine);
        let best = Tuner::new(&ev, &graph, &machine, FigureOfMerit::Edp)
            .with_pool(pool)
            .with_refinement(refinement)
            .tune(&candidates)
            .best
            .expect("the tune family has legal candidates");
        expected.push(best);
        requests.push(Request::Tune(TuneRequest {
            graph: graph.clone(),
            machine: machine.clone(),
            fom: FigureOfMerit::Edp,
            candidates: wire.clone(),
            deadline_ms: None,
            max_candidates: None,
            convergence_window: None,
            refinement: Some(refinement),
            use_cache: false,
            cost_model: None,
        }));
    }
    TuneInputs { requests, expected }
}

/// Does a `Tuned` reply carry the reference winner (label, score bits,
/// resolved mapping)?
pub fn tuned_matches(reply: &TuneReply, want: &TunedMapping) -> bool {
    reply.best.as_ref().is_some_and(|b| {
        b.label == want.label
            && b.score.to_bits() == want.score.to_bits()
            && b.resolved == want.resolved
    }) && !reply.cancelled
        && reply.evaluated == reply.offered
}

// ------------------------------------------------------------- session

/// Nodes in every session's chain graph.
pub const SESSION_NODES: usize = 4096;
/// Frozen `stretch-w` candidates per session, w = 1..=32.
const SESSION_WIDTHS: i64 = 32;
/// Sessions opened during set-up; ops go round-robin over them.
pub const SESSIONS: usize = 4;
/// Edges each session's script toggles; a period is two revisions per
/// toggle (retarget, then restore).
const TOGGLES: usize = 2;
/// Revisions in one script period.
pub const PERIOD: usize = 2 * TOGGLES;

/// `session` inputs.
pub struct SessionInputs {
    /// The open request every session starts from.
    pub open: SessionOpenRequest,
    /// `scripts[s][r]`: session `s`'s edit batch at revision `r` of the
    /// period.
    pub scripts: Vec<Vec<Vec<GraphEdit>>>,
    /// `expected[s][r]`: the winner after `scripts[s][r]` applies.
    pub expected: Vec<Vec<TunedMapping>>,
}

fn chain_step() -> CExpr {
    CExpr::dep(0).add(CExpr::konst(Value::real(1.0)))
}

/// A chain of `n` nodes, node `i` depending on node `i - 1`.
pub fn chain(n: usize) -> DataflowGraph {
    let mut g = DataflowGraph::new("bench-chain", 32);
    g.add_node(CExpr::konst(Value::ZERO), vec![], vec![0]);
    for i in 1..n {
        g.add_node(chain_step(), vec![(i - 1) as u32], vec![i as i64]);
    }
    g
}

/// `stretch-w` schedules (place `i mod w`, time `i·w`): legal on a chain
/// of any length, so the set stays warm across every edit.
pub fn session_candidates() -> Vec<WireCandidate> {
    (1..=SESSION_WIDTHS)
        .map(|w| WireCandidate {
            label: format!("stretch-{w}"),
            mapping: Mapping::Affine(AffineMap {
                place: PlaceExpr::row0(IdxExpr::ModC(Box::new(IdxExpr::i()), w)),
                time: IdxExpr::MulC(Box::new(IdxExpr::i()), w),
            }),
        })
        .collect()
}

/// One size-neutral revision: drop the tail, append an identical tail,
/// and point `node`'s input two steps back (or restore it).
fn revision(n: usize, node: u32, restore: bool) -> Vec<GraphEdit> {
    let tail = (n - 1) as u32;
    vec![
        GraphEdit::RemoveNode { id: tail },
        GraphEdit::AddNode {
            expr: chain_step(),
            deps: vec![tail - 1],
            index: vec![i64::from(tail)],
            output: false,
        },
        GraphEdit::RetargetEdge {
            node,
            slot: 0,
            new_dep: if restore { node - 1 } else { node - 2 },
        },
    ]
}

/// One period of session edits: each toggled edge is retargeted, then
/// restored, so the graph returns to its start and per-op work never
/// drifts.
pub fn session_script(n: usize, rng: &mut Rng) -> Vec<Vec<GraphEdit>> {
    let mut nodes: Vec<u32> = Vec::with_capacity(TOGGLES);
    while nodes.len() < TOGGLES {
        // Away from the head (needs node - 2) and the tail (re-added
        // every revision).
        let k = 2 + rng.below(n as u64 - 4) as u32;
        if !nodes.contains(&k) {
            nodes.push(k);
        }
    }
    nodes
        .iter()
        .flat_map(|&k| [revision(n, k, false), revision(n, k, true)])
        .collect()
}

/// Build the `session` scripts for `seed` and the cold-tune winner after
/// every revision of every session's period.
pub fn session_inputs(seed: u64, pool: &ThreadPool) -> SessionInputs {
    let graph = chain(SESSION_NODES);
    let machine = MachineConfig::linear(SESSION_WIDTHS as u32);
    let wire = session_candidates();
    let candidates = to_candidates(&wire);
    let mut rng = Rng::new(seed, 2);
    let scripts: Vec<Vec<Vec<GraphEdit>>> = (0..SESSIONS)
        .map(|_| session_script(SESSION_NODES, &mut rng))
        .collect();
    let expected = scripts
        .iter()
        .map(|script| {
            let (mut g, mut m) = (graph.clone(), machine.clone());
            script
                .iter()
                .map(|batch| {
                    for edit in batch {
                        apply_edit(&mut g, &mut m, edit).expect("script edits apply");
                    }
                    let ev = Evaluator::new(&g, &m);
                    Tuner::new(&ev, &g, &m, FigureOfMerit::Edp)
                        .with_pool(pool)
                        .with_budget(Budget::unlimited())
                        .tune(&candidates)
                        .best
                        .expect("stretch candidates are legal")
                })
                .collect()
        })
        .collect();
    SessionInputs {
        open: SessionOpenRequest {
            graph,
            machine,
            fom: FigureOfMerit::Edp,
            candidates: wire,
            max_candidates: None,
            convergence_window: None,
            cost_model: None,
        },
        scripts,
        expected,
    }
}

// ----------------------------------------------------------------- rpc

/// One legal (graph, resolved mapping) pair, as both request kinds, with
/// the answers each must get.
pub struct RpcPair {
    /// Which kernel and size, for logs.
    pub label: String,
    /// `Request::Evaluate` of the pair.
    pub evaluate: Request,
    /// `Request::Simulate` of the pair, with seeded inputs.
    pub simulate: Request,
    /// Reference `Evaluated` answer.
    pub evaluated: EvaluateReply,
    /// Reference `Simulated` answer.
    pub simulated: SimulateReply,
}

/// `rpc` inputs: the pool and the seeded order ops visit it in.
pub struct RpcInputs {
    /// Every pair; each kernel size appears with each of its mappings.
    pub pool: Vec<RpcPair>,
    /// Pool indices in op order (cycled): every pair once per pass.
    pub order: Vec<usize>,
}

/// Link contention in the rpc `Simulate` requests. Off: with it on,
/// `Simulator::run` arbitrates links in `HashMap` iteration order, so the
/// same request can report different cycle and stall counts from one
/// call to the next and no reference answer exists to check it against.
const RPC_CONTENTION: bool = false;

/// Shuffled passes over the pool that make up the rpc visiting order, so
/// that which requests queue behind which varies through a run instead
/// of repeating one seed-chosen pattern. The order's length (27 × 63) is
/// odd, so the 1-in-8 `Simulate` slots fall on every position in turn.
const RPC_ORDER_CYCLES: usize = 63;

/// Op `i` of the rpc stream simulates iff `i % 8 == 7` (1 in 8).
pub fn rpc_is_simulate(i: u64) -> bool {
    i % 8 == 7
}

/// Random input tensors shaped by the graph's input declarations.
fn random_inputs(graph: &DataflowGraph, rng: &mut Rng) -> Vec<Vec<Value>> {
    graph
        .inputs
        .iter()
        .map(|spec| {
            let len: usize = spec.dims.iter().product();
            (0..len).map(|_| Value::real(rng.unit())).collect()
        })
        .collect()
}

/// The `Evaluated` answer, computed as the server computes it.
pub fn evaluate_reply(g: &DataflowGraph, m: &MachineConfig, rm: &ResolvedMapping) -> EvaluateReply {
    let legality = check(g, rm, m);
    EvaluateReply {
        legal: legality.is_legal(),
        violations: legality.total_violations,
        report: legality
            .is_legal()
            .then(|| Evaluator::new(g, m).evaluate(rm)),
    }
}

/// The `Simulated` answer, computed as the server computes it.
pub fn simulate_reply(
    g: &DataflowGraph,
    m: &MachineConfig,
    rm: &ResolvedMapping,
    inputs: &[Vec<Value>],
) -> SimulateReply {
    let predicted = Evaluator::new(g, m).evaluate(rm);
    let sim = Simulator::new(m.clone()).with_config(SimConfig {
        contention: RPC_CONTENTION,
        ..SimConfig::default()
    });
    let result = sim.run(g, rm, inputs, &[]).expect("pool mappings simulate");
    SimulateReply {
        cycles_scheduled: result.cycles_scheduled,
        cycles_actual: result.cycles_actual,
        slowdown: result.slowdown(),
        stalled_elements: result.stalled_elements,
        total_stall_cycles: result.total_stall_cycles,
        messages_delivered: result.messages_delivered,
        link_wait_cycles: result.link_wait_cycles,
        predicted_energy_fj: predicted.energy().raw(),
        simulated_energy_fj: result.ledger.energy.total().raw(),
    }
}

/// Build the rpc pool for `seed`: edit distance, FFT and stencil graphs
/// of 64–512 nodes, each with three legal mappings. The set of (graph,
/// mapping) pairs is the same for every seed, so per-op work does not
/// depend on it; the seed picks input values and the visiting order.
pub fn rpc_inputs(seed: u64) -> RpcInputs {
    let machine = MachineConfig::n5(8, 8);
    let mut rng = Rng::new(seed, 3);
    let mut problems: Vec<(String, DataflowGraph, Vec<ResolvedMapping>)> = Vec::new();
    for n in [8usize, 16, 22] {
        let g = edit_recurrence(n, n, Scoring::levenshtein())
            .elaborate()
            .expect("edit recurrence elaborates");
        let maps = [2i64, 4, 8]
            .iter()
            .map(|&p| {
                skewed_mapping(p, n)
                    .resolve(&g, &machine)
                    .expect("resolves")
            })
            .collect();
        problems.push((format!("editdist{n}x{n}"), g, maps));
    }
    for n in [16usize, 32, 64] {
        let g = fft_graph(n, FftVariant::Dit);
        let maps = [
            (2u32, LanePlacement::Block),
            (4, LanePlacement::Cyclic),
            (8, LanePlacement::Block),
        ]
        .iter()
        .map(|&(p, lanes)| fft_mapping(&g, n, p, lanes, &machine))
        .collect();
        problems.push((format!("fft{n}"), g, maps));
    }
    for (t, n) in [(8usize, 8usize), (16, 16), (16, 32)] {
        let g = stencil_recurrence(t, n)
            .elaborate()
            .expect("stencil elaborates");
        let maps = [2i64, 4, 8]
            .iter()
            .map(|&p| {
                blocked_mapping(n, p)
                    .resolve(&g, &machine)
                    .expect("resolves")
            })
            .collect();
        problems.push((format!("stencil{t}x{n}"), g, maps));
    }

    let mut pool = Vec::new();
    for (name, g, maps) in problems {
        for (k, rm) in maps.into_iter().enumerate() {
            let inputs = random_inputs(&g, &mut rng);
            let evaluated = evaluate_reply(&g, &machine, &rm);
            assert!(evaluated.legal, "{name} mapping {k} must be legal");
            let simulated = simulate_reply(&g, &machine, &rm, &inputs);
            pool.push(RpcPair {
                label: format!("{name}#{k}"),
                evaluate: Request::Evaluate(EvaluateRequest {
                    graph: g.clone(),
                    machine: machine.clone(),
                    mapping: rm.clone(),
                    deadline_ms: None,
                }),
                simulate: Request::Simulate(SimulateRequest {
                    graph: g.clone(),
                    machine: machine.clone(),
                    mapping: rm,
                    inputs,
                    contention: RPC_CONTENTION,
                    deadline_ms: None,
                }),
                evaluated,
                simulated,
            });
        }
    }
    let order = (0..RPC_ORDER_CYCLES)
        .flat_map(|_| {
            let mut cycle: Vec<usize> = (0..pool.len()).collect();
            rng.shuffle(&mut cycle);
            cycle
        })
        .collect();
    RpcInputs { pool, order }
}

/// Does an `Evaluated` reply equal the reference?
pub fn evaluated_matches(reply: &EvaluateReply, want: &EvaluateReply) -> bool {
    reply.legal == want.legal && reply.violations == want.violations && reply.report == want.report
}

/// Does a `Simulated` reply equal the reference (floats by bits)?
pub fn simulated_matches(reply: &SimulateReply, want: &SimulateReply) -> bool {
    reply.cycles_scheduled == want.cycles_scheduled
        && reply.cycles_actual == want.cycles_actual
        && reply.slowdown.to_bits() == want.slowdown.to_bits()
        && reply.stalled_elements == want.stalled_elements
        && reply.total_stall_cycles == want.total_stall_cycles
        && reply.messages_delivered == want.messages_delivered
        && reply.link_wait_cycles == want.link_wait_cycles
        && reply.predicted_energy_fj.to_bits() == want.predicted_energy_fj.to_bits()
        && reply.simulated_energy_fj.to_bits() == want.simulated_energy_fj.to_bits()
}

/// All of one run's inputs.
pub enum Inputs {
    /// `tune` and `fleet`.
    Tune(TuneInputs),
    /// `session`.
    Session(Box<SessionInputs>),
    /// `rpc`.
    Rpc(RpcInputs),
}

/// Generate `kind`'s inputs and reference answers for `seed`.
pub fn generate(kind: Kind, seed: u64, pool: &ThreadPool) -> Inputs {
    match kind {
        Kind::Tune | Kind::Fleet => Inputs::Tune(tune_inputs(seed, pool)),
        Kind::Session => Inputs::Session(Box::new(session_inputs(seed, pool))),
        Kind::Rpc => Inputs::Rpc(rpc_inputs(seed)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fm_autotune::WarmCache;

    #[test]
    fn session_script_returns_to_its_start_with_zero_rebuilds() {
        let n = 256;
        let start = chain(n);
        let (mut g, mut m) = (start.clone(), MachineConfig::linear(SESSION_WIDTHS as u32));
        let candidates = to_candidates(&session_candidates());
        let mut warm = WarmCache::new(&Evaluator::new(&g, &m), candidates.clone());
        let script = session_script(n, &mut Rng::new(7, 2));
        assert_eq!(script.len(), PERIOD);
        for batch in &script {
            for edit in batch {
                let receipt = apply_edit(&mut g, &mut m, edit).expect("edit applies");
                warm.apply_edit(&Evaluator::new(&g, &m), &receipt);
            }
            assert_eq!(g.len(), n, "revisions are size-neutral");
            let ev = Evaluator::new(&g, &m);
            let warm_best = Tuner::new(&ev, &g, &m, FigureOfMerit::Edp)
                .tune_warm(&mut warm)
                .best;
            let cold_best = Tuner::new(&ev, &g, &m, FigureOfMerit::Edp)
                .tune(&candidates)
                .best;
            let (w, c) = (
                warm_best.expect("warm winner"),
                cold_best.expect("cold winner"),
            );
            assert_eq!((w.label, w.score.to_bits()), (c.label, c.score.to_bits()));
        }
        assert_eq!(g, start, "one period restores the starting graph");
        assert_eq!(
            warm.rebuilds(),
            0,
            "no candidate fell back to a cold rebuild"
        );
    }

    #[test]
    fn reference_checks_reject_tampered_replies() {
        let pool = ThreadPool::with_threads(1);
        let tune = tune_inputs(11, &pool);
        let want = &tune.expected[0];
        let mut reply = TuneReply {
            best: Some(want.clone()),
            offered: 191,
            evaluated: 191,
            pruned: 0,
            cache: "disabled".to_string(),
            fell_back: false,
            cancelled: false,
            wall_ms: 1.0,
        };
        assert!(tuned_matches(&reply, want));
        let best = reply.best.as_mut().expect("winner");
        best.score = f64::from_bits(best.score.to_bits() ^ 1);
        assert!(
            !tuned_matches(&reply, want),
            "one flipped score bit must be caught"
        );
        let best = reply.best.as_mut().expect("winner");
        best.score = want.score;
        best.resolved.time[0] += 1;
        assert!(!tuned_matches(&reply, want), "a moved node must be caught");

        let rpc = rpc_inputs(11);
        let pair = &rpc.pool[0];
        let mut sim = pair.simulated.clone();
        assert!(simulated_matches(&sim, &pair.simulated));
        sim.cycles_actual += 1;
        assert!(!simulated_matches(&sim, &pair.simulated));
        let mut ev = pair.evaluated.clone();
        assert!(evaluated_matches(&ev, &pair.evaluated));
        ev.report.as_mut().expect("legal report").cycles += 1;
        assert!(!evaluated_matches(&ev, &pair.evaluated));
    }

    #[test]
    fn tune_family_matches_its_description() {
        let graph = edit_recurrence(TUNE_N, TUNE_N, Scoring::levenshtein())
            .elaborate()
            .expect("elaborates");
        assert_eq!(graph.len(), 576);
        let machine = MachineConfig::n5(8, 8);
        let ev = Evaluator::new(&graph, &machine);
        let outcome = Tuner::new(&ev, &graph, &machine, FigureOfMerit::Edp)
            .tune(&to_candidates(&tune_candidates(TUNE_N)))
            .outcome;
        assert_eq!(outcome.evaluated, 191);
        assert_eq!(outcome.legal, 72);
    }

    #[test]
    fn rpc_pool_is_the_same_set_for_every_seed() {
        let (a, b) = (rpc_inputs(1), rpc_inputs(2));
        let labels = |r: &RpcInputs| r.pool.iter().map(|p| p.label.clone()).collect::<Vec<_>>();
        assert_eq!(labels(&a), labels(&b));
        assert_ne!(a.order, b.order);
    }
}
