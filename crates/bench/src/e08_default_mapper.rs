//! **E8 — the default mapper** (§3).
//!
//! "Programmers that don't want to bother with mapping can use a
//! default mapper — with results no worse than with today's
//! abstractions."
//!
//! For each kernel we compare: the fully serial mapping (one PE, one
//! element per cycle — "today's abstraction" at its simplest), the
//! default mapper (greedy list scheduling, no user input), the
//! fm-autotune tuner picking over {serial, default, expert} with no
//! user input beyond the candidate list, and the kernel's
//! hand-written/searched mapping.

use std::path::Path;

use fm_autotune::{Tuner, TuningCache};
use fm_core::cost::Evaluator;
use fm_core::legality::check;
use fm_core::machine::MachineConfig;
use fm_core::mapping::{InputPlacement, Mapping};
use fm_core::search::{anneal, default_mapper, FigureOfMerit, MappingCandidate};
use fm_kernels::editdist::{edit_recurrence, skewed_mapping, Scoring};
use fm_kernels::fft::{fft_graph, fft_mapping, FftVariant, LanePlacement};
use fm_kernels::stencil::{blocked_mapping, stencil_recurrence};

use crate::table;

/// One (kernel, mapper) point.
#[derive(Debug, Clone)]
pub struct Row {
    /// Kernel name.
    pub kernel: String,
    /// Mapper name.
    pub mapper: String,
    /// Cycles.
    pub cycles: i64,
    /// Energy in pJ.
    pub energy_pj: f64,
    /// Which roofline roof binds this mapping: `"compute"`,
    /// `"onchip-bw"`, or `"offchip-bw"`.
    pub bound: String,
}

/// Run the mappers over three kernels on a `cols×rows` machine. With a
/// persistent tuning cache for the "tuned" rows, warm runs replay the
/// tuner's ranked outcome without re-evaluating any candidate.
pub fn run(cols: u32, rows_m: u32, cache_dir: Option<&Path>) -> Vec<Row> {
    let machine = MachineConfig::n5(cols, rows_m);
    let p = i64::from(cols * rows_m);

    let mut out = Vec::new();
    let mut push = |kernel: &str,
                    mapper: &str,
                    graph: &fm_core::dataflow::DataflowGraph,
                    rm: fm_core::mapping::ResolvedMapping,
                    machine: &MachineConfig| {
        let rep = check(graph, &rm, machine);
        assert!(rep.is_legal(), "{kernel}/{mapper}");
        let ev = Evaluator::new(graph, machine).with_all_inputs(InputPlacement::AtUse);
        let report = ev.evaluate(&rm);
        out.push(Row {
            kernel: kernel.to_string(),
            mapper: mapper.to_string(),
            cycles: report.cycles,
            energy_pj: report.energy().raw() / 1e3,
            bound: ev.roofline(&report).bound,
        });
    };

    // The "tuned" row: the fm-autotune tuner choosing among the other
    // mappers' mappings with no user input beyond the candidate list.
    // By construction its cycle count is the minimum of the rest.
    let tune_best = |kernel: &str,
                     graph: &fm_core::dataflow::DataflowGraph,
                     machine: &MachineConfig,
                     labeled: &[(&str, fm_core::mapping::ResolvedMapping)]|
     -> fm_core::mapping::ResolvedMapping {
        let cands: Vec<MappingCandidate> = labeled
            .iter()
            .map(|(l, rm)| MappingCandidate::new(*l, Mapping::Table(rm.clone())))
            .collect();
        let ev = Evaluator::new(graph, machine).with_all_inputs(InputPlacement::AtUse);
        let mut tuner = Tuner::new(&ev, graph, machine, FigureOfMerit::Time);
        if let Some(cache) = cache_dir.and_then(TuningCache::open) {
            tuner = tuner.with_cache(cache);
        }
        let report = tuner.tune(&cands);
        report
            .best
            .unwrap_or_else(|| panic!("{kernel}: tuner found no legal mapping"))
            .resolved
    };

    // Edit distance on a linear sub-array.
    {
        let n = 48;
        let g = edit_recurrence(n, n, Scoring::paper_local())
            .elaborate()
            .unwrap();
        let lin = MachineConfig::linear(cols);
        let serial = Mapping::serial(&g).resolve(&g, &lin).unwrap();
        push("editdist48", "serial", &g, serial.clone(), &lin);
        let dflt = default_mapper(&g, &lin);
        push("editdist48", "default", &g, dflt.clone(), &lin);
        let ev = Evaluator::new(&g, &lin).with_all_inputs(InputPlacement::AtUse);
        let (annealed, _) = anneal(&ev, &g, &lin, &dflt, FigureOfMerit::Energy, 400, 11);
        push("editdist48", "annealed", &g, annealed.clone(), &lin);
        let expert = skewed_mapping(i64::from(cols), n)
            .resolve(&g, &lin)
            .unwrap();
        push("editdist48", "expert", &g, expert.clone(), &lin);
        let tuned = tune_best(
            "editdist48",
            &g,
            &lin,
            &[
                ("serial", serial),
                ("default", dflt),
                ("annealed", annealed),
                ("expert", expert),
            ],
        );
        push("editdist48", "tuned", &g, tuned, &lin);
    }

    // FFT.
    {
        let n = 64;
        let g = fft_graph(n, FftVariant::Dit);
        let serial = Mapping::serial(&g).resolve(&g, &machine).unwrap();
        push("fft64-dit", "serial", &g, serial.clone(), &machine);
        let dflt = default_mapper(&g, &machine);
        push("fft64-dit", "default", &g, dflt.clone(), &machine);
        let lin = MachineConfig::linear(cols);
        let expert = fft_mapping(&g, n, cols, LanePlacement::Block, &lin);
        push("fft64-dit", "expert", &g, expert, &lin);
        // Tuned on the grid machine, over the grid-legal candidates.
        let tuned = tune_best(
            "fft64-dit",
            &g,
            &machine,
            &[("serial", serial), ("default", dflt)],
        );
        push("fft64-dit", "tuned", &g, tuned, &machine);
    }

    // Stencil.
    {
        let (t, n) = (8, 64);
        let g = stencil_recurrence(t, n).elaborate().unwrap();
        let lin = MachineConfig::linear(cols);
        let serial = Mapping::serial(&g).resolve(&g, &lin).unwrap();
        push("stencil8x64", "serial", &g, serial.clone(), &lin);
        let dflt = default_mapper(&g, &lin);
        push("stencil8x64", "default", &g, dflt.clone(), &lin);
        let expert = blocked_mapping(n, p.min(i64::from(cols)))
            .resolve(&g, &lin)
            .unwrap();
        push("stencil8x64", "expert", &g, expert.clone(), &lin);
        let tuned = tune_best(
            "stencil8x64",
            &g,
            &lin,
            &[("serial", serial), ("default", dflt), ("expert", expert)],
        );
        push("stencil8x64", "tuned", &g, tuned, &lin);
    }

    out
}

/// Render.
pub fn print(rows: &[Row]) -> String {
    let mut out = String::from("E8 — default mapper vs serial vs expert mapping\n\n");
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.kernel.clone(),
                r.mapper.clone(),
                r.cycles.to_string(),
                table::f(r.energy_pj),
                r.bound.clone(),
            ]
        })
        .collect();
    out.push_str(&table::render(
        &["kernel", "mapper", "cycles", "energy pJ", "bound"],
        &table_rows,
    ));
    out.push_str("\nthe claim under test: default ≤ serial in time, for every kernel.\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn annealed_never_worse_than_default_on_energy() {
        let rows = run(8, 1, None);
        let get = |mapper: &str| {
            rows.iter()
                .find(|r| r.kernel == "editdist48" && r.mapper == mapper)
                .unwrap()
                .energy_pj
        };
        assert!(get("annealed") <= get("default") + 1e-9);
    }

    #[test]
    fn default_never_slower_than_serial() {
        let rows = run(8, 1, None);
        for kernel in ["editdist48", "fft64-dit", "stencil8x64"] {
            let get = |mapper: &str| {
                rows.iter()
                    .find(|r| r.kernel == kernel && r.mapper == mapper)
                    .unwrap()
                    .cycles
            };
            assert!(
                get("default") <= get("serial"),
                "{kernel}: default {} vs serial {}",
                get("default"),
                get("serial")
            );
        }
    }

    #[test]
    fn tuned_never_slower_than_serial_or_default() {
        // The tuner picks over the other mappers' mappings under the
        // Time objective, so its cycle count is their minimum.
        let rows = run(8, 1, None);
        for kernel in ["editdist48", "fft64-dit", "stencil8x64"] {
            let get = |mapper: &str| {
                rows.iter()
                    .find(|r| r.kernel == kernel && r.mapper == mapper)
                    .unwrap()
                    .cycles
            };
            assert!(get("tuned") <= get("serial"), "{kernel}");
            assert!(get("tuned") <= get("default"), "{kernel}");
        }
    }

    #[test]
    fn warm_cache_run_reproduces_cold_rows() {
        let dir = std::env::temp_dir().join(format!("fm-bench-e8-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cold = run(4, 1, Some(&dir));
        let warm = run(4, 1, Some(&dir));
        assert_eq!(cold.len(), warm.len());
        for (c, w) in cold.iter().zip(&warm) {
            assert_eq!((&c.kernel, &c.mapper), (&w.kernel, &w.mapper));
            assert_eq!(c.cycles, w.cycles);
            assert_eq!(c.energy_pj, w.energy_pj);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn expert_beats_default_somewhere() {
        // The default mapper is "no worse than today's abstractions",
        // not optimal: the expert systolic mappings should win on at
        // least one kernel (typically all).
        let rows = run(8, 1, None);
        let wins = ["editdist48", "fft64-dit", "stencil8x64"]
            .iter()
            .filter(|&&kernel| {
                let get = |mapper: &str| {
                    rows.iter()
                        .find(|r| r.kernel == kernel && r.mapper == mapper)
                        .unwrap()
                        .cycles
                };
                get("expert") <= get("default")
            })
            .count();
        assert!(wins >= 1, "expert mappings should win at least once");
    }
}
