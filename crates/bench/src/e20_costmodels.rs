//! **E20 — pluggable cost backends: who wins under which model** (§3, §6).
//!
//! The same candidate list, tuned under all three cost backends
//! ([`CostModelKind`]): the analytic N5 default, the roofline
//! observatory (bandwidth-bounded time), and the spatial-computer
//! energy model (free local access, distance-charged off-chip). Each
//! row records one `(kernel, objective, backend)` tune: the winner, its
//! score, and where that winner lands on the machine roofline.
//!
//! The experiment's claim is the **winner-change matrix**: the backend
//! is not a cosmetic reweighting — for at least one kernel/objective
//! the roofline or spatial backend crowns a *different mapping* than
//! the analytic default (the stencil's roofline tie is the canonical
//! case: planned compute volume is placement-blind, so the roofline
//! clock cannot see blocking and falls back to candidate order). And
//! backends must be *deterministic*: `table e20` runs the whole sweep
//! twice, and its [`gate`] fails on any bit-level divergence.

use fm_autotune::Tuner;
use fm_core::cost::Evaluator;
use fm_core::machine::MachineConfig;
use fm_core::mapping::Mapping;
use fm_core::search::{FigureOfMerit, MappingCandidate};
use fm_costmodel::CostModelKind;
use fm_kernels::fft::{fft_graph, FftFamily, FftVariant};
use fm_kernels::stencil::{blocked_mapping, stencil_recurrence};
use serde::{Deserialize, Serialize};

use crate::table;

/// One `(kernel, objective, backend)` tune.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    /// Kernel name.
    pub kernel: String,
    /// Tuning objective.
    pub fom: String,
    /// Cost backend that scored the search.
    pub model: String,
    /// Winning candidate's label.
    pub winner: String,
    /// Winning score under this backend (lower is better).
    pub score: f64,
    /// Which roof the winner sits under (`compute`, `onchip-bw`,
    /// `offchip-bw`).
    pub bound: String,
    /// Winner's off-chip operational intensity in ops/bit.
    pub intensity_offchip: f64,
    /// Did this backend crown a different mapping than the analytic
    /// default did (same kernel, same objective)?
    pub flipped: bool,
}

/// One kernel's tuning workload.
struct Workload {
    name: String,
    graph: fm_core::dataflow::DataflowGraph,
    machine: MachineConfig,
    candidates: Vec<MappingCandidate>,
}

fn fft_workload(n: usize) -> Workload {
    let machine = MachineConfig::linear(8);
    let graph = fft_graph(n, FftVariant::Dit);
    let family = FftFamily {
        n,
        p_values: vec![1, 2, 4, 8],
    };
    let candidates = family.candidates_for(&graph, &machine);
    Workload {
        name: format!("fft{n}-dit"),
        graph,
        machine,
        candidates,
    }
}

fn stencil_workload(t_steps: usize, n: usize) -> Workload {
    let machine = MachineConfig::linear(8);
    let graph = stencil_recurrence(t_steps, n)
        .elaborate()
        .expect("stencil elaborates");
    // Serial first: when a backend's score ties every blocking (the
    // roofline clock on a compute-bound stencil), the tuner keeps the
    // earliest index and the tie becomes a visible winner flip.
    let mut candidates = vec![MappingCandidate::new("serial", Mapping::serial(&graph))];
    for p in [1i64, 2, 4, 8] {
        candidates.push(MappingCandidate::new(
            format!("blocked P={p}"),
            blocked_mapping(n, p),
        ));
    }
    Workload {
        name: format!("stencil{t_steps}x{n}"),
        graph,
        machine,
        candidates,
    }
}

/// Tune every workload under every backend and objective.
pub fn run(quick: bool) -> Vec<Row> {
    let workloads = if quick {
        vec![fft_workload(32), stencil_workload(4, 16)]
    } else {
        vec![fft_workload(128), stencil_workload(12, 64)]
    };
    let foms = [FigureOfMerit::Time, FigureOfMerit::Edp];
    let mut rows = Vec::new();
    for w in &workloads {
        for fom in foms {
            let mut analytic_winner: Option<String> = None;
            for kind in CostModelKind::ALL {
                let ev = Evaluator::new(&w.graph, &w.machine).with_cost_model(kind);
                let report = Tuner::new(&ev, &w.graph, &w.machine, fom).tune(&w.candidates);
                let best = report
                    .best
                    .expect("every E20 workload has a legal candidate");
                let point = ev.roofline(&best.report);
                if kind == CostModelKind::Analytic {
                    analytic_winner = Some(best.label.clone());
                }
                let flipped = analytic_winner.as_ref().is_some_and(|a| *a != best.label)
                    && kind != CostModelKind::Analytic;
                rows.push(Row {
                    kernel: w.name.clone(),
                    fom: format!("{fom:?}"),
                    model: kind.name().to_string(),
                    winner: best.label.clone(),
                    score: best.score,
                    bound: point.bound,
                    intensity_offchip: point.intensity_offchip,
                    flipped,
                });
            }
        }
    }
    rows
}

/// The winner-change matrix: one line per `(kernel, objective)`,
/// `✱` marking backends that crowned a different mapping than analytic.
pub fn winner_matrix(rows: &[Row]) -> String {
    let mut out = String::from("winner-change matrix (✱ = differs from analytic):\n");
    let mut keys: Vec<(String, String)> = Vec::new();
    for r in rows {
        let k = (r.kernel.clone(), r.fom.clone());
        if !keys.contains(&k) {
            keys.push(k);
        }
    }
    for (kernel, fom) in keys {
        let mut line = format!("  {kernel:<14} {fom:<5}");
        for r in rows.iter().filter(|r| r.kernel == kernel && r.fom == fom) {
            let mark = if r.flipped { "✱" } else { " " };
            line.push_str(&format!("  {}: {}{}", r.model, r.winner, mark));
        }
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Render.
pub fn print(rows: &[Row]) -> String {
    let mut out =
        String::from("E20 — cost backends: winners under analytic, roofline, spatial\n\n");
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.kernel.clone(),
                r.fom.clone(),
                r.model.clone(),
                r.winner.clone(),
                table::f(r.score),
                r.bound.clone(),
                table::f(r.intensity_offchip),
                if r.flipped { "✱" } else { "" }.to_string(),
            ]
        })
        .collect();
    out.push_str(&table::render(
        &[
            "kernel",
            "objective",
            "backend",
            "winner",
            "score",
            "bound",
            "I_offchip",
            "flip",
        ],
        &table_rows,
    ));
    out.push('\n');
    out.push_str(&winner_matrix(rows));
    out.push_str(
        "\nsame candidates, three charging rules: a flip means the backend\n\
         choice changes which mapping ships, not just its reported cost.\n",
    );
    out
}

/// E20's acceptance gate over a sweep and its `replay`, one line per
/// violated condition: the two runs agree to the bit on every winner
/// and score, no analytic row flips against itself, and some backend
/// crowns a different winner (the experiment's whole claim).
pub fn gate(rows: &[Row], replay: &[Row]) -> Vec<String> {
    let mut failures = Vec::new();
    if fingerprint(rows) != fingerprint(replay) {
        failures.push(format!(
            "winner determinism broke — two runs disagree\nrun 1:\n{}run 2:\n{}",
            winner_matrix(rows),
            winner_matrix(replay)
        ));
    }
    if rows.iter().any(|r| r.model == "analytic" && r.flipped) {
        failures.push("an analytic row flipped against itself".to_string());
    }
    if !rows.iter().any(|r| r.flipped) {
        failures.push(format!(
            "no backend changed any winner — E20's claim is gone\n{}",
            winner_matrix(rows)
        ));
    }
    failures
}

/// Bit-level fingerprint of a sweep, for the [`gate`]'s determinism
/// check: every label and every score bit folds in.
fn fingerprint(rows: &[Row]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    };
    for r in rows {
        fold(r.kernel.as_bytes());
        fold(r.fom.as_bytes());
        fold(r.model.as_bytes());
        fold(r.winner.as_bytes());
        fold(&r.score.to_bits().to_le_bytes());
        fold(r.bound.as_bytes());
        fold(&r.intensity_offchip.to_bits().to_le_bytes());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_has_a_row_per_kernel_fom_backend() {
        let rows = run(true);
        assert_eq!(rows.len(), 2 * 2 * 3);
        for r in &rows {
            assert!(r.score.is_finite());
            assert!(!r.winner.is_empty());
        }
    }

    #[test]
    fn analytic_rows_never_flip_and_some_backend_does() {
        let rows = run(true);
        assert!(
            rows.iter()
                .filter(|r| r.model == "analytic")
                .all(|r| !r.flipped),
            "analytic is its own baseline"
        );
        assert!(
            rows.iter().any(|r| r.flipped),
            "at least one backend must crown a different winner:\n{}",
            winner_matrix(&rows)
        );
        // The canonical flip: the roofline clock is placement-blind on
        // the compute-bound stencil, so under Time it keeps the first
        // tying candidate (serial) where analytic picks a blocking.
        let stencil_roofline_time = rows
            .iter()
            .find(|r| r.kernel.starts_with("stencil") && r.fom == "Time" && r.model == "roofline")
            .expect("stencil roofline Time row");
        assert!(
            stencil_roofline_time.flipped,
            "roofline must flip the stencil Time winner:\n{}",
            winner_matrix(&rows)
        );
    }

    #[test]
    fn the_sweep_is_deterministic() {
        assert_eq!(fingerprint(&run(true)), fingerprint(&run(true)));
    }

    fn row(model: &str, winner: &str, flipped: bool) -> Row {
        Row {
            kernel: "stencil4x16".into(),
            fom: "Time".into(),
            model: model.into(),
            winner: winner.into(),
            score: 64.0,
            bound: "compute".into(),
            intensity_offchip: 0.5,
            flipped,
        }
    }

    fn passing() -> Vec<Row> {
        vec![
            row("analytic", "blocked P=8", false),
            row("roofline", "serial", true),
        ]
    }

    #[test]
    fn gate_passes_a_deterministic_sweep_with_a_flip() {
        assert!(gate(&passing(), &passing()).is_empty());
    }

    #[test]
    fn gate_fails_when_a_replay_disagrees() {
        let mut replay = passing();
        replay[1].score = 65.0;
        let failures = gate(&passing(), &replay);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].starts_with("winner determinism broke"));
    }

    #[test]
    fn gate_fails_when_analytic_flips_or_nothing_does() {
        let mut rows = passing();
        rows[0].flipped = true;
        assert_eq!(
            gate(&rows, &rows),
            ["an analytic row flipped against itself"]
        );
        rows[0].flipped = false;
        rows[1].flipped = false;
        let failures = gate(&rows, &rows);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].starts_with("no backend changed any winner"));
    }
}
