//! **E22 — flat evaluation engine throughput** (§3).
//!
//! The tuner's hot path is candidate evaluation: resolve a mapping,
//! check legality, fold per-node costs. The flat engine
//! ([`fm_core::BatchEvaluator`]) interns PE coordinates to dense ids,
//! folds costs through an SoA tree, and reuses one
//! [`fm_core::EvalScratch`] arena so the steady state allocates
//! nothing. This experiment times the reference path
//! (`evaluate_candidate_ref`, the pre-flat engine) against the flat
//! path on the E4 FFT search workload — single-threaded, identical
//! candidate lists — and asserts the two paths agree to the bit on
//! every candidate *and* on the winner before any throughput number is
//! reported. (Anneal moves/sec, full vs incremental, is E14's table.)
//!
//! The steady-state flat loop is also audited: after one warm-up pass
//! the timed loop must perform **zero** heap allocations, counted on
//! the measuring thread by [`CountingAlloc`](crate::driver::CountingAlloc),
//! which the `table` binary installs as its global allocator.

use std::time::Instant;

use fm_core::cost::Evaluator;
use fm_core::machine::MachineConfig;
use fm_core::mapping::InputPlacement;
use fm_core::search::{evaluate_candidate_ref, CandidateEval, FigureOfMerit, MappingCandidate};
use fm_core::{BatchEvaluator, EvalScratch, RawEval};
use fm_kernels::fft::{fft_graph, FftFamily, FftVariant};
use serde::{Deserialize, Serialize};

use crate::driver::allocations;
use crate::table;

/// One workload's evaluations/sec, reference path vs flat engine.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// What the rates count: `"evals"`, candidate evaluations.
    pub kind: String,
    /// Node count of the graph.
    pub nodes: usize,
    /// Candidates in the list.
    pub units: u64,
    /// Reference-path evaluations per second.
    pub ref_per_sec: f64,
    /// Flat-path evaluations per second.
    pub flat_per_sec: f64,
    /// `flat_per_sec / ref_per_sec`.
    pub speedup: f64,
    /// Heap allocations per evaluation in the timed flat loop. The
    /// acceptance bar is exactly 0.
    pub steady_allocs_per_eval: f64,
}

/// Winner under a figure of merit: index and score bits of the best
/// legal candidate (lower score wins, first wins ties). `None` when no
/// candidate is legal.
fn winner_of(scores: &[Option<f64>]) -> Option<(usize, u64)> {
    let mut best: Option<(usize, f64)> = None;
    for (i, s) in scores.iter().enumerate() {
        if let Some(s) = s {
            if best.is_none_or(|(_, b)| *s < b) {
                best = Some((i, *s));
            }
        }
    }
    best.map(|(i, s)| (i, s.to_bits()))
}

fn ref_score(e: &CandidateEval) -> Option<f64> {
    match e {
        CandidateEval::Legal { score, .. } => Some(*score),
        _ => None,
    }
}

fn raw_score(e: &RawEval) -> Option<f64> {
    match e {
        RawEval::Legal { score, .. } => Some(*score),
        _ => None,
    }
}

/// Time single-threaded candidate evaluation over an E4-style FFT
/// candidate list: reference path vs flat path, with bit parity and
/// winner parity asserted, and the flat loop's heap allocations
/// counted.
fn measure(name: &str, n: usize, machine_p: u32, rounds: u32) -> Row {
    let machine = MachineConfig::linear(machine_p);
    let graph = fft_graph(n, FftVariant::Dit);
    let family = FftFamily {
        n,
        p_values: vec![2, 4, 8],
    };
    let candidates: Vec<MappingCandidate> = family.candidates_for(&graph, &machine);
    assert!(!candidates.is_empty(), "{name}: empty candidate family");
    let ev = Evaluator::new(&graph, &machine).with_all_inputs(InputPlacement::AtUse);
    let fom = FigureOfMerit::Edp;

    // Parity gate: every candidate must agree to the bit between the
    // two paths before either is timed, and both must crown the same
    // winner with the same score bits.
    let batch = BatchEvaluator::new(&ev, &graph, &machine, fom);
    let mut scratch = EvalScratch::new();
    let ref_evals: Vec<CandidateEval> = candidates
        .iter()
        .map(|c| evaluate_candidate_ref(&ev, &graph, &machine, c, fom))
        .collect();
    let flat_raw: Vec<RawEval> = candidates
        .iter()
        .map(|c| batch.evaluate_raw_in(c, &mut scratch))
        .collect();
    for (i, (r, f)) in ref_evals.iter().zip(&flat_raw).enumerate() {
        let (rs, fs) = (ref_score(r), raw_score(f));
        assert_eq!(
            rs.map(f64::to_bits),
            fs.map(f64::to_bits),
            "{name}: candidate {i} ({}) score bits diverged",
            candidates[i].label
        );
        // The full (report-materializing) flat path must agree too.
        assert_eq!(
            *r,
            batch.evaluate_candidate_in(&candidates[i], &mut scratch),
            "{name}: candidate {i} full evaluation diverged"
        );
    }
    let ref_scores: Vec<Option<f64>> = ref_evals.iter().map(ref_score).collect();
    let flat_scores: Vec<Option<f64>> = flat_raw.iter().map(raw_score).collect();
    let win = winner_of(&ref_scores);
    assert_eq!(win, winner_of(&flat_scores), "{name}: winner diverged");
    assert!(win.is_some(), "{name}: no legal candidate");

    // Reference arm. One warm-up pass, then `rounds` timed passes.
    for c in &candidates {
        std::hint::black_box(evaluate_candidate_ref(&ev, &graph, &machine, c, fom));
    }
    let t0 = Instant::now();
    for _ in 0..rounds {
        for c in &candidates {
            std::hint::black_box(evaluate_candidate_ref(&ev, &graph, &machine, c, fom));
        }
    }
    let ref_wall = t0.elapsed().as_secs_f64().max(1e-9);

    // Flat arm: same candidates, same order, one scratch arena. The
    // warm-up pass above already sized every buffer, so the timed loop
    // must not allocate at all.
    let before = allocations();
    let t1 = Instant::now();
    for _ in 0..rounds {
        for c in &candidates {
            std::hint::black_box(batch.evaluate_raw_in(c, &mut scratch));
        }
    }
    let flat_wall = t1.elapsed().as_secs_f64().max(1e-9);
    let steady_allocs = allocations() - before;
    let timed_evals = u64::from(rounds) * candidates.len() as u64;

    let ref_ps = timed_evals as f64 / ref_wall;
    let flat_ps = timed_evals as f64 / flat_wall;
    Row {
        workload: name.to_string(),
        kind: "evals".to_string(),
        nodes: graph.nodes.len(),
        units: candidates.len() as u64,
        ref_per_sec: ref_ps,
        flat_per_sec: flat_ps,
        speedup: flat_ps / ref_ps,
        steady_allocs_per_eval: steady_allocs as f64 / timed_evals as f64,
    }
}

/// Run the experiment. `quick` shrinks the timed rounds, not the
/// graphs — the parity checks always see real problem sizes.
///
/// # Panics
///
/// If the running binary counts no allocations: without
/// [`CountingAlloc`](crate::driver::CountingAlloc) the audit would
/// read 0 whatever the engine does.
pub fn run(quick: bool) -> Vec<Row> {
    let counted = allocations();
    let rounds = if quick { 20 } else { 200 };
    let rows = vec![
        measure("fft64-e4", 64, 8, rounds),
        measure("fft256-e4", 256, 8, rounds),
    ];
    assert!(
        allocations() > counted,
        "E22 needs CountingAlloc as the global allocator"
    );
    rows
}

/// E22's acceptance gate, one line per violated condition: the timed
/// flat loop allocates nothing, and — on a full release run, since
/// debug parity asserts make the flat path deliberately slower and
/// short runs are noisy — the flat engine evaluates at least 2× the
/// reference path's evals/sec.
pub fn gate(rows: &[Row], full_release: bool) -> Vec<String> {
    let mut failures = Vec::new();
    for r in rows {
        if r.steady_allocs_per_eval != 0.0 {
            failures.push(format!(
                "{}: flat steady state allocated {} times per eval",
                r.workload, r.steady_allocs_per_eval
            ));
        }
        if full_release && r.speedup < 2.0 {
            failures.push(format!(
                "{}: flat engine speedup {:.2}x below the 2x bar",
                r.workload, r.speedup
            ));
        }
    }
    failures
}

/// Render.
pub fn print(rows: &[Row]) -> String {
    let mut out = String::from("E22 — flat evaluation engine: evals/sec\n\n");
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.workload.clone(),
                r.kind.clone(),
                r.nodes.to_string(),
                r.units.to_string(),
                table::f(r.ref_per_sec),
                table::f(r.flat_per_sec),
                format!("{:.1}x", r.speedup),
                format!("{:.0}", r.steady_allocs_per_eval),
            ]
        })
        .collect();
    out.push_str(&table::render(
        &[
            "workload",
            "kind",
            "nodes",
            "units",
            "ref /s",
            "flat /s",
            "speedup",
            "allocs/eval",
        ],
        &table_rows,
    ));
    out.push_str(
        "\nreference candidate path vs flat engine, single thread,\n\
         bit-identical scores and winner asserted. allocs/eval counts the\n\
         timed flat loop's heap allocations; the bar is 0.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parity_holds_and_the_flat_loop_allocates_nothing() {
        // `measure` asserts per-candidate and winner bit parity; a
        // quick run is the test, and the lib's unit tests count
        // allocations like the `table` binary does.
        let rows = run(true);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.flat_per_sec > 0.0, "{}", r.workload);
            assert_eq!(r.steady_allocs_per_eval, 0.0, "{}", r.workload);
        }
    }

    fn row(steady_allocs_per_eval: f64, speedup: f64) -> Row {
        Row {
            workload: "fft64-e4".into(),
            kind: "evals".into(),
            nodes: 448,
            units: 6,
            ref_per_sec: 100.0,
            flat_per_sec: 100.0 * speedup,
            speedup,
            steady_allocs_per_eval,
        }
    }

    #[test]
    fn gate_requires_a_zero_allocation_steady_state() {
        assert!(gate(&[row(0.0, 7.0)], true).is_empty());
        assert_eq!(
            gate(&[row(0.5, 7.0)], false),
            ["fft64-e4: flat steady state allocated 0.5 times per eval"]
        );
    }

    #[test]
    fn gate_holds_2x_on_full_release_runs_only() {
        assert_eq!(
            gate(&[row(0.0, 1.9)], true),
            ["fft64-e4: flat engine speedup 1.90x below the 2x bar"]
        );
        assert!(gate(&[row(0.0, 1.9)], false).is_empty());
    }
}
