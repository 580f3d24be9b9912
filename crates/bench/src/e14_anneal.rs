//! **E14 — anneal throughput: full vs incremental evaluation** (§3).
//!
//! The annealer proposes single-node placement moves; re-timing and
//! re-costing the whole graph per move is O(V + E) while the touched
//! cone is O(Δ). This experiment times both backends of
//! [`anneal_with`] on ≥1k-node graphs with the same seed and asserts
//! the (mapping, report) pair is bit-identical, so the speedup column
//! measures pure engine overhead, not a different search.

use std::time::Instant;

use fm_core::cost::Evaluator;
use fm_core::machine::MachineConfig;
use fm_core::mapping::InputPlacement;
use fm_core::search::{anneal_with, default_mapper, AnnealBackend, FigureOfMerit};
use fm_kernels::editdist::{edit_recurrence, Scoring};
use fm_kernels::fft::{fft_graph, FftVariant};
use serde::{Deserialize, Serialize};

use crate::table;

/// One (graph, backend pair) measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    /// Graph name.
    pub graph: String,
    /// Node count.
    pub nodes: usize,
    /// Annealing iterations timed.
    pub iters: u32,
    /// Full-re-evaluation throughput in proposed moves per second.
    pub full_moves_per_sec: f64,
    /// Incremental (delta-engine) throughput in moves per second.
    pub inc_moves_per_sec: f64,
    /// `inc_moves_per_sec / full_moves_per_sec`.
    pub speedup: f64,
    /// Final score (same for both backends by construction).
    pub final_score: f64,
    /// Final makespan in cycles.
    pub cycles: i64,
}

fn measure(name: &str, graph: &fm_core::dataflow::DataflowGraph, iters: u32, seed: u64) -> Row {
    let machine = MachineConfig::n5(8, 8);
    let ev = Evaluator::new(graph, &machine).with_all_inputs(InputPlacement::AtUse);
    let init = default_mapper(graph, &machine);
    let fom = FigureOfMerit::Edp;

    let t0 = Instant::now();
    let (full_rm, full_rep) = anneal_with(
        &ev,
        graph,
        &machine,
        &init,
        fom,
        iters,
        seed,
        AnnealBackend::Full,
    );
    let full_wall = t0.elapsed().as_secs_f64().max(1e-9);

    let t1 = Instant::now();
    let (inc_rm, inc_rep) = anneal_with(
        &ev,
        graph,
        &machine,
        &init,
        fom,
        iters,
        seed,
        AnnealBackend::Incremental,
    );
    let inc_wall = t1.elapsed().as_secs_f64().max(1e-9);

    // The whole point: same search, cheaper bookkeeping.
    assert_eq!(full_rm, inc_rm, "{name}: backends diverged in mapping");
    assert_eq!(full_rep, inc_rep, "{name}: backends diverged in report");

    let full_mps = f64::from(iters) / full_wall;
    let inc_mps = f64::from(iters) / inc_wall;
    Row {
        graph: name.to_string(),
        nodes: graph.nodes.len(),
        iters,
        full_moves_per_sec: full_mps,
        inc_moves_per_sec: inc_mps,
        speedup: inc_mps / full_mps,
        final_score: fom.score(&inc_rep),
        cycles: inc_rep.cycles,
    }
}

/// Time both backends on an edit-distance DP and an FFT dataflow
/// graph, both past the 1 000-node mark (`quick` shrinks the iteration
/// count, not the graphs — the parity assertion must still see real
/// problem sizes).
pub fn run(quick: bool) -> Vec<Row> {
    let iters = if quick { 200 } else { 2_000 };
    let ed = edit_recurrence(32, 32, Scoring::paper_local())
        .elaborate()
        .expect("well-founded");
    let fft = fft_graph(256, FftVariant::Dit);
    assert!(ed.nodes.len() >= 1_000, "editdist too small to be E14");
    assert!(fft.nodes.len() >= 1_000, "fft too small to be E14");
    vec![
        measure("editdist32x32", &ed, iters, 41),
        measure("fft256-dit", &fft, iters, 42),
    ]
}

/// Render.
pub fn print(rows: &[Row]) -> String {
    let mut out = String::from("E14 — anneal throughput, full vs incremental evaluation\n\n");
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.graph.clone(),
                r.nodes.to_string(),
                r.iters.to_string(),
                table::f(r.full_moves_per_sec),
                table::f(r.inc_moves_per_sec),
                format!("{:.1}x", r.speedup),
                table::f(r.final_score),
                r.cycles.to_string(),
            ]
        })
        .collect();
    out.push_str(&table::render(
        &[
            "graph",
            "nodes",
            "iters",
            "full moves/s",
            "incr moves/s",
            "speedup",
            "final score",
            "cycles",
        ],
        &table_rows,
    ));
    out.push_str(
        "\nboth backends run the identical RNG stream and finish on the same\n\
         (mapping, report) pair — asserted, not assumed.\n",
    );
    out
}

/// E14's acceptance gate, one line per violated condition: on a full
/// release run the incremental engine anneals at least 5× the moves/sec
/// of full re-evaluation on every graph. Debug builds re-verify full
/// parity after every incremental move, which is deliberately slower,
/// and a `quick` run's few iterations do not amortize the fixed
/// per-run setup, so neither is gated.
pub fn gate(rows: &[Row], full_release: bool) -> Vec<String> {
    rows.iter()
        .filter(|r| full_release && r.speedup < 5.0)
        .map(|r| {
            format!(
                "{}: incremental speedup {:.2}x below the 5x bar",
                r.graph, r.speedup
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backends_agree_on_both_graphs() {
        // `measure` asserts (mapping, report) equality internally; a
        // quick run exercising both graphs is the test.
        let rows = run(true);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.nodes >= 1_000, "{}: {} nodes", r.graph, r.nodes);
            assert!(r.final_score.is_finite());
        }
    }

    #[test]
    fn gate_holds_5x_on_full_release_runs_only() {
        let row = Row {
            graph: "g".into(),
            nodes: 1024,
            iters: 2_000,
            full_moves_per_sec: 1.0,
            inc_moves_per_sec: 4.5,
            speedup: 4.5,
            final_score: 3.5,
            cycles: 99,
        };
        assert_eq!(
            gate(std::slice::from_ref(&row), true),
            ["g: incremental speedup 4.50x below the 5x bar"]
        );
        assert!(gate(std::slice::from_ref(&row), false).is_empty());
        let fast = Row {
            speedup: 15.0,
            ..row
        };
        assert!(gate(&[fast], true).is_empty());
    }
}
