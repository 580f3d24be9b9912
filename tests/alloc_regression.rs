//! Allocation regression for the flat evaluation engine: once the
//! scratch arena is warm, candidate evaluation in the tuner hot path
//! must not touch the heap at all. This binary installs a counting
//! global allocator (each integration-test binary may have its own)
//! and counts allocations across a steady-state evaluation loop.
//!
//! Counts are kept per thread: the test harness runs tests on parallel
//! threads, and each measured loop runs on its test's own thread, so a
//! neighbouring test's allocations never land in another's count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fm_repro::core::cost::Evaluator;
use fm_repro::core::flat::{BatchEvaluator, EvalScratch, RawEval};
use fm_repro::core::machine::MachineConfig;
use fm_repro::core::mapping::{InputPlacement, Mapping, ResolvedMapping};
use fm_repro::core::search::{FigureOfMerit, MappingCandidate};
use fm_repro::kernels::fft::{fft_graph, FftFamily, FftVariant};

/// Forwards to the system allocator, counting every allocation made
/// on the calling thread.
struct CountingAlloc;

thread_local! {
    // Const-initialized and drop-free, so counting never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Count one allocation on this thread.
fn count() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

/// Allocations made so far on this thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
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
