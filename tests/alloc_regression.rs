//! Allocation and byte audits. Once the scratch arena is warm,
//! candidate evaluation in the tuner hot path must not touch the heap
//! at all, and neither may an annealing move once its buffers are
//! sized; a serving session's warm state must stay within its byte
//! budget; a steady-state session revision may allocate only its
//! winner's mapping; and a served revision's edit batch and tune make
//! a bounded number of allocations, whatever the graph's size. This binary installs a counting global allocator
//! (each integration-test binary may have its own) and counts
//! allocations, bytes allocated and bytes live across each measured
//! step.
//!
//! Counts are kept per thread: the test harness runs tests on parallel
//! threads, and each measured step runs on its test's own thread, so a
//! neighbouring test's allocations never land in another's count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fm_repro::autotune::{Budget, CancelToken, Tuner, WarmCache};
use fm_repro::core::affine::IdxExpr;
use fm_repro::core::cost::Evaluator;
use fm_repro::core::dataflow::{CExpr, DataflowGraph};
use fm_repro::core::delta::DeltaEvaluator;
use fm_repro::core::flat::{BatchEvaluator, EvalScratch, RawEval};
use fm_repro::core::machine::MachineConfig;
use fm_repro::core::mapping::{AffineMap, InputPlacement, Mapping, PlaceExpr, ResolvedMapping};
use fm_repro::core::mutate::{apply_edit, GraphEdit};
use fm_repro::core::search::{FigureOfMerit, MappingCandidate};
use fm_repro::core::value::Value;
use fm_repro::costmodel::CostModelKind;
use fm_repro::kernels::editdist::{edit_recurrence, skewed_mapping_2d, Scoring};
use fm_repro::kernels::fft::{fft_graph, FftFamily, FftVariant};
use fm_repro::serve::session::{EditOutcome, SessionState};

/// Forwards to the system allocator, counting every allocation made
/// on the calling thread and the bytes it allocates and frees.
struct CountingAlloc;

thread_local! {
    // Const-initialized and drop-free, so counting never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// Count one allocation of `bytes` on this thread, and `freed` bytes
/// handed back (a reallocation does both).
fn count(bytes: usize, freed: usize) {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
    let _ = ALLOCATED.try_with(|c| c.set(c.get() + bytes as u64));
    let _ = LIVE.try_with(|c| c.set(c.get() + bytes as i64 - freed as i64));
}

/// Allocations made so far on this thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Bytes allocated so far on this thread (reallocations count their
/// new size).
fn allocated_bytes() -> u64 {
    ALLOCATED.with(Cell::get)
}

/// Bytes this thread has allocated and not freed.
fn live_bytes() -> i64 {
    LIVE.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 0);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 0);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size, layout.size());
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|c| c.set(c.get() - layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn flat_candidate_evaluation_is_zero_alloc_in_steady_state() {
    // The E4 FFT search workload: one graph, a placement × P family.
    let machine = MachineConfig::linear(8);
    let graph = fft_graph(64, FftVariant::Dit);
    let family = FftFamily {
        n: 64,
        p_values: vec![2, 4, 8],
    };
    let mut candidates = family.candidates_for(&graph, &machine);
    assert!(!candidates.is_empty());
    // Off-grid candidates take the flat path too: one spilling past
    // both ends of the row (with negative times), one placing every
    // node on its own column.
    let n = graph.len() as i64;
    for (label, place, time) in [
        (
            "spill",
            (0..n).map(|i| (i % 12 - 2, 0)).collect(),
            (-1..n - 1).collect(),
        ),
        (
            "column-per-node",
            (0..n).map(|i| (i, 0)).collect(),
            (0..n).collect(),
        ),
    ] {
        let rm = ResolvedMapping { place, time };
        candidates.push(MappingCandidate::new(label, Mapping::Table(rm)));
    }
    let ev = Evaluator::new(&graph, &machine).with_all_inputs(InputPlacement::AtUse);
    let batch = BatchEvaluator::new(&ev, &graph, &machine, FigureOfMerit::Edp);
    let mut scratch = EvalScratch::new();

    // Warm-up pass: sizes every scratch buffer for this graph.
    for c in &candidates {
        std::hint::black_box(batch.evaluate_raw_in(c, &mut scratch));
    }
    for c in &candidates[candidates.len() - 2..] {
        let raw = batch.evaluate_raw_in(c, &mut scratch);
        assert!(matches!(raw, RawEval::Illegal(_)), "{}: {raw:?}", c.label);
    }

    // Steady state: many passes over the same candidate list through
    // the same arena. The whole point of the flat engine is that this
    // loop performs zero heap allocations.
    let before = allocations();
    let mut evals = 0u64;
    for _ in 0..10 {
        for c in &candidates {
            std::hint::black_box(batch.evaluate_raw_in(c, &mut scratch));
            evals += 1;
        }
    }
    let allocs = allocations() - before;
    assert_eq!(
        allocs, 0,
        "steady-state flat evaluation allocated {allocs} times over {evals} evals"
    );
}

#[test]
fn scratch_arena_reuse_beats_fresh_scratch_on_allocations() {
    // Sanity check on the counter itself: evaluating with a *fresh*
    // arena each time must allocate (the buffers have to come from
    // somewhere), which proves the zero above is a property of arena
    // reuse, not a broken counter.
    let machine = MachineConfig::linear(8);
    let graph = fft_graph(64, FftVariant::Dit);
    let family = FftFamily {
        n: 64,
        p_values: vec![2],
    };
    let candidates = family.candidates_for(&graph, &machine);
    let ev = Evaluator::new(&graph, &machine).with_all_inputs(InputPlacement::AtUse);
    let batch = BatchEvaluator::new(&ev, &graph, &machine, FigureOfMerit::Edp);
    let before = allocations();
    let mut scratch = EvalScratch::new();
    std::hint::black_box(batch.evaluate_raw_in(&candidates[0], &mut scratch));
    let allocs = allocations() - before;
    assert!(allocs > 0, "a cold arena must allocate to grow its buffers");
}

#[test]
fn annealing_moves_allocate_nothing_in_steady_state() {
    // The `tune` benchmark's refinement: the 576-node edit-distance
    // graph on an 8×8 grid, moves around the search winner, scored
    // under EDP as every chain scores them.
    let graph = edit_recurrence(24, 24, Scoring::levenshtein())
        .elaborate()
        .expect("edit recurrence elaborates");
    let machine = MachineConfig::n5(8, 8);
    let winner = skewed_mapping_2d(24, 24)
        .resolve(&graph, &machine)
        .expect("skewed-2d P=24 resolves");
    let ev = Evaluator::new(&graph, &machine);
    let mut delta = DeltaEvaluator::new(&ev, &winner.place).with_paranoia(false);
    // A fixed sequence of single-node moves to a neighbouring PE, each
    // scored and undone, so every round starts from the winner.
    let mut s = 0x9e37_79b9_7f4a_7c15u64;
    let moves: Vec<(usize, (i64, i64))> = (0..300)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let node = ((s >> 33) % graph.len() as u64) as usize;
            let (x, y) = winner.place[node];
            let to = [(x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)]
                .into_iter()
                .filter(|&(x, y)| machine.contains(x, y))
                .nth((s >> 20) as usize % 2)
                .expect("every PE has two on-grid neighbours");
            (node, to)
        })
        .collect();
    let round = |delta: &mut DeltaEvaluator| {
        for &(node, to) in &moves {
            delta.apply_move(node, to);
            std::hint::black_box(delta.storage_violations());
            std::hint::black_box(delta.score(FigureOfMerit::Edp));
            delta.undo();
        }
    };
    // Warm-up pass: sizes every per-move buffer.
    round(&mut delta);
    let before = allocated_bytes();
    round(&mut delta);
    let bytes = allocated_bytes() - before;
    assert_eq!(
        bytes,
        0,
        "{} steady-state apply/score/undo rounds allocated {bytes} B",
        moves.len()
    );
}

/// The `session` benchmark's shape: a 4096-node chain on a 32-PE row,
/// with 32 `stretch-w` candidates (place `i mod w`, time `i·w`).
const SESSION_NODES: usize = 4096;
const SESSION_WIDTHS: usize = 32;

fn chain_step() -> CExpr {
    CExpr::dep(0).add(CExpr::konst(Value::real(1.0)))
}

fn session_shape() -> (DataflowGraph, MachineConfig, Vec<MappingCandidate>) {
    let mut g = DataflowGraph::new("bench-chain", 32);
    g.add_node(CExpr::konst(Value::ZERO), vec![], vec![0]);
    for i in 1..SESSION_NODES {
        g.add_node(chain_step(), vec![(i - 1) as u32], vec![i as i64]);
    }
    let candidates = (1..=SESSION_WIDTHS as i64)
        .map(|w| {
            let mapping = Mapping::Affine(AffineMap {
                place: PlaceExpr::row0(IdxExpr::ModC(Box::new(IdxExpr::i()), w)),
                time: IdxExpr::MulC(Box::new(IdxExpr::i()), w),
            });
            MappingCandidate::new(format!("stretch-{w}"), mapping)
        })
        .collect();
    (g, MachineConfig::linear(SESSION_WIDTHS as u32), candidates)
}

/// One size-neutral revision of a `len`-node chain: drop the tail,
/// append an identical tail, and point `node`'s input two steps back
/// (or restore it).
fn revision(len: usize, node: u32, restore: bool) -> [GraphEdit; 3] {
    let tail = (len - 1) as u32;
    [
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

/// One revision, each edit applied to the graph and repaired into the
/// warm state.
fn revise(
    g: &mut DataflowGraph,
    m: &mut MachineConfig,
    warm: &mut WarmCache,
    node: u32,
    restore: bool,
) {
    for edit in &revision(g.len(), node, restore) {
        let receipt = apply_edit(g, m, edit).expect("revision edits apply");
        warm.apply_edit(&Evaluator::new(g, m), &receipt);
    }
}

#[test]
fn warm_session_state_holds_at_most_120_bytes_per_node_per_candidate() {
    let (g, m, candidates) = session_shape();
    let ev = Evaluator::new(&g, &m);
    let bound = (120 * SESSION_NODES * SESSION_WIDTHS) as i64;
    let before = live_bytes();
    let mut warm = WarmCache::new(&ev, candidates);
    let held = live_bytes() - before;
    let per = held as f64 / (SESSION_NODES * SESSION_WIDTHS) as f64;
    assert!(
        held <= bound,
        "warm state holds {held} B, {per:.1} B per node per candidate"
    );
    // A warm tune adds nothing that outlives its report.
    let report = Tuner::new(&ev, &g, &m, FigureOfMerit::Edp)
        .with_budget(Budget::unlimited())
        .tune_warm(&mut warm);
    assert_eq!(report.evaluated, SESSION_WIDTHS);
    drop(report);
    let held = live_bytes() - before;
    assert!(held <= bound, "after a warm tune the state holds {held} B");
}

#[test]
fn warm_revisions_allocate_at_most_one_winner_mapping() {
    let (mut g, mut m, candidates) = session_shape();
    let mut warm = WarmCache::new(&Evaluator::new(&g, &m), candidates);
    // A resolved mapping is a 16-B place and an 8-B time per node.
    let budget = (24 * SESSION_NODES + (64 << 10)) as u64;
    for round in 0..8u32 {
        let before = allocated_bytes();
        revise(&mut g, &mut m, &mut warm, 1000, round % 2 == 1);
        let ev = Evaluator::new(&g, &m);
        let report = Tuner::new(&ev, &g, &m, FigureOfMerit::Edp)
            .with_budget(Budget::unlimited())
            .tune_warm(&mut warm);
        assert!(report.best.is_some());
        drop(report);
        let bytes = allocated_bytes() - before;
        // The first two rounds size the repair buffers.
        if round >= 2 {
            assert!(
                bytes <= budget,
                "revision {round} allocated {bytes} B (budget {budget} B)"
            );
        }
    }
    assert_eq!(warm.rebuilds(), 0, "every revision was repaired warm");
}

#[test]
fn served_revisions_make_a_bounded_number_of_allocations() {
    // The `session` benchmark's op, through the server's calls: an edit
    // batch, then a warm tune of all 32 candidates.
    let (g, m, candidates) = session_shape();
    let mut session = SessionState::open(
        g,
        m,
        FigureOfMerit::Edp,
        candidates,
        Budget::unlimited(),
        CostModelKind::Analytic,
    );
    for round in 0..8u32 {
        let batch = revision(session.graph_len(), 1000, round % 2 == 1);
        let (count, bytes) = (allocations(), allocated_bytes());
        let outcome = session.apply_batch(u64::from(round), &batch);
        assert!(
            matches!(outcome, EditOutcome::Applied { .. }),
            "{outcome:?}"
        );
        let (batch_count, batch_bytes) = (allocations() - count, allocated_bytes() - bytes);
        let count = allocations();
        let tuned = session.tune(None, &CancelToken::new());
        let tune_count = allocations() - count;
        assert!(tuned.warm && tuned.report.best.is_some());
        drop(tuned);
        // The first two rounds size the repair buffers.
        if round < 2 {
            continue;
        }
        assert!(
            batch_count <= 64 && batch_bytes <= 8 << 10,
            "revision {round}: the edit batch made {batch_count} allocations, {batch_bytes} B"
        );
        // Debug builds re-run every session tune cold to assert parity;
        // the bound is the warm tune's, checked where that does not run.
        if !cfg!(debug_assertions) {
            assert!(
                tune_count <= 128,
                "revision {round}: the tune made {tune_count} allocations"
            );
        }
    }
}
