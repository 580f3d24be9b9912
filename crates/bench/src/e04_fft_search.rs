//! **E4 — systematic mapping search over FFT functions** (§3).
//!
//! "For a given problem there may be several functions … For each
//! function there are many possible mappings … One can systematically
//! search the space of possible mappings to optimize a given figure of
//! merit."

use std::path::Path;

use fm_autotune::{Tuner, TuningCache};
use fm_core::cost::Evaluator;
use fm_core::machine::MachineConfig;
use fm_core::mapping::InputPlacement;
use fm_core::search::FigureOfMerit;
use fm_kernels::fft::{fft_graph, fft_radix4_graph, FftFamily, FftVariant};
use fm_workspan::ThreadPool;

use crate::table;

/// One evaluated (function, mapping) point.
#[derive(Debug, Clone)]
pub struct Row {
    /// Candidate label (function + placement + P).
    pub label: String,
    /// Cycles.
    pub cycles: i64,
    /// Energy in pJ.
    pub energy_pj: f64,
    /// Energy-delay product (fJ·ps).
    pub edp: f64,
    /// On-chip traffic in bit·mm.
    pub bit_mm: f64,
    /// Which roofline roof binds this mapping: `"compute"`,
    /// `"onchip-bw"`, or `"offchip-bw"`.
    pub bound: String,
    /// On the global time/energy Pareto front?
    pub pareto: bool,
}

/// Search the FFT functions over the placement×P family. With a
/// persistent tuning cache, a warm run replays every ranked table from
/// the cache with zero candidate re-evaluation (the cache stores the
/// full outcome, not just the winner).
pub fn run(n: usize, p_values: &[u32], machine_p: u32, cache_dir: Option<&Path>) -> Vec<Row> {
    let machine = MachineConfig::linear(machine_p);
    let family = FftFamily {
        n,
        p_values: p_values.to_vec(),
    };
    let mut rows = Vec::new();
    let mut graphs = vec![fft_graph(n, FftVariant::Dit), fft_graph(n, FftVariant::Dif)];
    // "different radix FFT" — a third function when n is a power of 4.
    if n.trailing_zeros().is_multiple_of(2) {
        graphs.push(fft_radix4_graph(n));
    }
    // Candidate evaluation fans out across the pool via the tuner; the
    // assembled outcome is identical to the serial `search()` by the
    // tuner's determinism guarantee.
    let pool = ThreadPool::with_threads(
        std::thread::available_parallelism()
            .map(|n| n.get().min(8))
            .unwrap_or(2),
    );
    for graph in graphs {
        let cands = family.candidates_for(&graph, &machine);
        let ev = Evaluator::new(&graph, &machine).with_all_inputs(InputPlacement::AtUse);
        let mut tuner = Tuner::new(&ev, &graph, &machine, FigureOfMerit::Edp).with_pool(&pool);
        if let Some(cache) = cache_dir.and_then(TuningCache::open) {
            tuner = tuner.with_cache(cache);
        }
        let outcome = tuner.tune(&cands).outcome;
        assert_eq!(
            outcome.legal,
            cands.len(),
            "family must be legal by construction"
        );
        let _ = &graph;
        for r in &outcome.results {
            rows.push(Row {
                label: r.label.clone(),
                cycles: r.report.cycles,
                energy_pj: r.report.energy().raw() / 1e3,
                edp: r.report.edp(),
                bit_mm: r.report.ledger.onchip_bit_mm,
                bound: ev.roofline(&r.report).bound,
                pareto: false,
            });
        }
    }
    // Global Pareto marking over (cycles, energy).
    let mut order: Vec<usize> = (0..rows.len()).collect();
    order.sort_by(|&a, &b| rows[a].cycles.cmp(&rows[b].cycles));
    let mut best = f64::INFINITY;
    for i in order {
        if rows[i].energy_pj < best {
            best = rows[i].energy_pj;
            rows[i].pareto = true;
        }
    }
    rows.sort_by(|a, b| a.edp.total_cmp(&b.edp));
    rows
}

/// Render.
pub fn print(n: usize, rows: &[Row]) -> String {
    let mut out =
        format!("E4 — mapping search over FFT{n} functions and mappings (ranked by EDP)\n\n");
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                r.cycles.to_string(),
                table::f(r.energy_pj),
                table::f(r.edp),
                table::f(r.bit_mm),
                r.bound.clone(),
                if r.pareto { "*" } else { "" }.to_string(),
            ]
        })
        .collect();
    out.push_str(&table::render(
        &[
            "candidate",
            "cycles",
            "energy pJ",
            "EDP",
            "bit·mm",
            "bound",
            "pareto",
        ],
        &table_rows,
    ));
    out.push_str("\n'*' marks the global time/energy Pareto front across both functions.\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_covers_full_family() {
        let rows = run(64, &[2, 4, 8], 8, None);
        // 3 functions (dit, dif, radix4 since 64 = 4³) × 2 placements × 3 P.
        assert_eq!(rows.len(), 3 * 2 * 3);
    }

    #[test]
    fn radix4_included_and_fastest_in_cycles() {
        let rows = run(64, &[8], 8, None);
        let cycles = |label: &str| {
            rows.iter()
                .find(|r| r.label.contains(label))
                .unwrap()
                .cycles
        };
        assert!(cycles("radix4 Block P=8") < cycles("dit Block P=8"));
    }

    #[test]
    fn dit_dominates_dif_at_equal_p() {
        // DIF pays the explicit gather; at the same P and placement its
        // energy must exceed DIT's.
        let rows = run(64, &[8], 8, None);
        let energy = |label: &str| {
            rows.iter()
                .find(|r| r.label.contains(label))
                .unwrap()
                .energy_pj
        };
        assert!(energy("dif Block P=8") > energy("dit Block P=8"));
    }

    #[test]
    fn pareto_front_excludes_dif() {
        let rows = run(64, &[2, 4, 8], 8, None);
        let front: Vec<&Row> = rows.iter().filter(|r| r.pareto).collect();
        assert!(!front.is_empty());
        // DIF pays the gather on top of DIT's movement: always dominated.
        assert!(front.iter().all(|r| !r.label.contains("dif")));
        // Radix-4 owns the fast end of the front (fewest rounds).
        let fastest = front.iter().min_by_key(|r| r.cycles).unwrap();
        assert!(fastest.label.contains("radix4"), "{}", fastest.label);
    }

    #[test]
    fn warm_cache_run_reproduces_cold_tables() {
        let dir = std::env::temp_dir().join(format!("fm-bench-e4-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cold = run(64, &[4, 8], 8, Some(&dir));
        let warm = run(64, &[4, 8], 8, Some(&dir));
        assert_eq!(cold.len(), warm.len());
        for (c, w) in cold.iter().zip(&warm) {
            assert_eq!(c.label, w.label);
            assert_eq!(c.cycles, w.cycles);
            assert_eq!(c.energy_pj, w.energy_pj);
            assert_eq!(c.pareto, w.pareto);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn more_processors_fewer_cycles() {
        let rows = run(64, &[2, 8], 8, None);
        let cycles = |label: &str| {
            rows.iter()
                .find(|r| r.label.contains(label))
                .unwrap()
                .cycles
        };
        assert!(cycles("dit Block P=8") < cycles("dit Block P=2"));
    }
}
