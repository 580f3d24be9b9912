//! **E12 — many-core scaling** (§5).
//!
//! Vishkin: "many-core computing can offer improvement by 4-5 orders of
//! magnitude over single cores." The improvement compounds two factors
//! this workspace can measure:
//!
//! 1. **parallel speedup** — mapped makespan vs. the serial mapping,
//!    swept over grid sizes (bounded by the function's parallelism);
//! 2. **energy efficiency** — mapped spatial execution vs. a
//!    conventional OoO core's 10,000× instruction overhead (§3).
//!
//! Their product is the headline "orders of magnitude" figure.

use fm_core::cost::{conventional_core_report, Evaluator};
use fm_core::legality::check;
use fm_core::machine::MachineConfig;
use fm_core::mapping::InputPlacement;
use fm_kernels::editdist::{edit_recurrence, skewed_mapping, Scoring};
use fm_kernels::stencil::{blocked_mapping, stencil_recurrence};

use crate::table;

/// One grid size.
#[derive(Debug, Clone)]
pub struct Row {
    /// PEs.
    pub p: i64,
    /// Mapped cycles.
    pub cycles: i64,
    /// Speedup vs P = 1.
    pub speedup: f64,
    /// Mapped energy (pJ).
    pub energy_pj: f64,
    /// Energy advantage vs the conventional core.
    pub efficiency_x: f64,
    /// Combined improvement (speedup × efficiency), log10.
    pub combined_log10: f64,
}

/// Sweep grid sizes for the stencil (a second kernel with a different
/// communication pattern; same columns as [`run`]).
pub fn run_stencil(t_steps: usize, n: usize, p_values: &[i64]) -> Vec<Row> {
    let rec = stencil_recurrence(t_steps, n);
    let g = rec.elaborate().unwrap();
    let conv = conventional_core_report(&g, &MachineConfig::linear(1));
    let conv_energy = conv.energy().raw();

    let mut rows = Vec::new();
    let mut base: Option<i64> = None;
    for &p in p_values {
        let machine = MachineConfig::linear(p as u32);
        let rm = blocked_mapping(n, p).resolve(&g, &machine).unwrap();
        assert!(check(&g, &rm, &machine).is_legal());
        let rep = Evaluator::new(&g, &machine)
            .with_all_inputs(InputPlacement::AtUse)
            .evaluate(&rm);
        let base_cycles = *base.get_or_insert(rep.cycles);
        let speedup = base_cycles as f64 / rep.cycles as f64;
        let efficiency = conv_energy / rep.energy().raw();
        rows.push(Row {
            p,
            cycles: rep.cycles,
            speedup,
            energy_pj: rep.energy().raw() / 1e3,
            efficiency_x: efficiency,
            combined_log10: (speedup * efficiency).log10(),
        });
    }
    rows
}

/// Sweep grid sizes on an `n×n` edit distance.
pub fn run(n: usize, p_values: &[i64]) -> Vec<Row> {
    let rec = edit_recurrence(n, n, Scoring::paper_local());
    let g = rec.elaborate().unwrap();
    let conv = conventional_core_report(&g, &MachineConfig::linear(1));
    let conv_energy = conv.energy().raw();

    let mut rows = Vec::new();
    let mut base: Option<i64> = None;
    for &p in p_values {
        let machine = MachineConfig::linear(p as u32);
        let rm = skewed_mapping(p, n).resolve(&g, &machine).unwrap();
        assert!(check(&g, &rm, &machine).is_legal());
        let rep = Evaluator::new(&g, &machine)
            .with_all_inputs(InputPlacement::AtUse)
            .evaluate(&rm);
        let base_cycles = *base.get_or_insert(rep.cycles);
        let speedup = base_cycles as f64 / rep.cycles as f64;
        let efficiency = conv_energy / rep.energy().raw();
        rows.push(Row {
            p,
            cycles: rep.cycles,
            speedup,
            energy_pj: rep.energy().raw() / 1e3,
            efficiency_x: efficiency,
            combined_log10: (speedup * efficiency).log10(),
        });
    }
    rows
}

/// Render one kernel's series under a heading naming it (`kernel`,
/// e.g. `"128x128 edit distance"`).
pub fn print(kernel: &str, rows: &[Row]) -> String {
    let mut out =
        format!("E12 — many-core scaling, {kernel} (speedup x efficiency vs one OoO core)\n\n");
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.p.to_string(),
                r.cycles.to_string(),
                format!("{:.1}x", r.speedup),
                table::f(r.energy_pj),
                format!("{:.0}x", r.efficiency_x),
                format!("{:.1}", r.combined_log10),
            ]
        })
        .collect();
    out.push_str(&table::render(
        &[
            "P",
            "cycles",
            "speedup",
            "energy pJ",
            "efficiency",
            "log10(combined)",
        ],
        &table_rows,
    ));
    out.push_str(
        "\nthe paper's '4-5 orders of magnitude' is the product of parallel\n\
         speedup (bounded by the function's parallelism) and the spatial\n\
         energy advantage over a conventional core.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stencil_series_scales_too() {
        let rows = run_stencil(16, 128, &[1, 4, 16, 64]);
        for w in rows.windows(2) {
            assert!(w[1].speedup > w[0].speedup);
        }
        // Near-perfect scaling: the stencil has no wavefront ramp.
        assert!(rows.last().unwrap().speedup > 40.0);
    }

    #[test]
    fn speedup_scales_to_the_functions_parallelism() {
        let rows = run(64, &[1, 4, 16, 64]);
        // Near-linear early.
        assert!(rows[1].speedup > 3.0);
        // Monotone throughout.
        for w in rows.windows(2) {
            assert!(w[1].speedup > w[0].speedup);
        }
    }

    #[test]
    fn combined_improvement_reaches_4_orders() {
        let rows = run(64, &[1, 64]);
        let last = rows.last().unwrap();
        assert!(
            last.combined_log10 >= 4.0,
            "combined improvement only 10^{:.1}",
            last.combined_log10
        );
    }

    #[test]
    fn efficiency_advantage_is_orders_of_magnitude_even_serial() {
        let rows = run(48, &[1]);
        assert!(rows[0].efficiency_x > 100.0);
    }
}
