//! Cost-backend invariants across the whole stack.
//!
//! Two families of guarantees:
//!
//! * **Parity** — for every [`CostModelKind`], the cold tuner, the warm
//!   (session-style) tuner, and the delta evaluator must rank and score
//!   mappings identically, bit for bit; and the default (analytic)
//!   backend must reproduce the historical pre-backend scores exactly.
//! * **Roofline fixtures** — the observatory's [`RooflinePoint`] for a
//!   real FFT mapping and a real stencil mapping must match values
//!   recomputed by hand from the energy ledger and the machine's
//!   datasheet parameters, through none of the backend code.

use proptest::prelude::*;

use fm_repro::autotune::{Tuner, WarmCache};
use fm_repro::core::cost::Evaluator;
use fm_repro::core::dataflow::{CExpr, DataflowGraph};
use fm_repro::core::delta::DeltaEvaluator;
use fm_repro::core::machine::MachineConfig;
use fm_repro::core::mapping::Mapping;
use fm_repro::core::search::{FigureOfMerit, MappingCandidate};
use fm_repro::core::value::Value;
use fm_repro::costmodel::CostModelKind;
use fm_repro::kernels::fft::{fft_graph, fft_mapping, FftVariant, LanePlacement};
use fm_repro::kernels::stencil::{blocked_mapping, stencil_recurrence};

/// Build a random DAG from a proptest-driven spec: each node gets 0–2
/// dependencies drawn from earlier nodes.
fn dag_from_spec(spec: &[(u8, u64, u64)]) -> DataflowGraph {
    let mut g = DataflowGraph::new("backend-dag", 32);
    for (i, &(ndeps, d1, d2)) in spec.iter().enumerate() {
        let i = i as u32;
        let mut deps: Vec<u32> = Vec::new();
        if i > 0 {
            if ndeps >= 1 {
                deps.push((d1 % u64::from(i)) as u32);
            }
            if ndeps >= 2 {
                deps.push((d2 % u64::from(i)) as u32);
            }
        }
        deps.sort_unstable();
        deps.dedup();
        let expr = match deps.len() {
            0 => CExpr::konst(Value::real(f64::from(i))),
            1 => CExpr::dep(0).add(CExpr::konst(Value::real(1.0))),
            _ => CExpr::dep(0).add(CExpr::dep(1)),
        };
        g.add_node(expr, deps, vec![i64::from(i)]);
    }
    g
}

/// The serial table plus a few affine folds — enough genuinely
/// different schedules that rankings have real work to do.
fn candidates(g: &DataflowGraph, cols: u32) -> Vec<MappingCandidate> {
    use fm_repro::core::affine::IdxExpr;
    use fm_repro::core::mapping::{AffineMap, PlaceExpr};
    let mut out = vec![MappingCandidate::new("serial", Mapping::serial(g))];
    for w in 1..=i64::from(cols) {
        out.push(MappingCandidate::new(
            format!("fold-w{w}"),
            Mapping::Affine(AffineMap {
                place: PlaceExpr::row0(IdxExpr::ModC(Box::new(IdxExpr::i()), w)),
                time: IdxExpr::i().div(w),
            }),
        ));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Under every backend, cold tuning, warm tuning, and the delta
    /// evaluator agree on scores to the bit. (The delta engine repairs
    /// incrementally from cached per-node costs, the warm tuner replays
    /// a session cache, the cold tuner evaluates from scratch — three
    /// code paths, one scoring function.)
    #[test]
    fn cold_warm_and_delta_agree_under_every_backend(
        spec in prop::collection::vec((0u8..=2, any::<u64>(), any::<u64>()), 1..60),
        fom_raw in 0u8..4,
    ) {
        let g = dag_from_spec(&spec);
        let machine = MachineConfig::linear(4);
        let fom = match fom_raw {
            0 => FigureOfMerit::Time,
            1 => FigureOfMerit::Energy,
            2 => FigureOfMerit::Edp,
            _ => FigureOfMerit::Footprint,
        };
        let cands = candidates(&g, machine.cols);
        for kind in CostModelKind::ALL {
            let ev = Evaluator::new(&g, &machine).with_cost_model(kind);
            let cold = Tuner::new(&ev, &g, &machine, fom).tune(&cands);
            let mut warm_cache = WarmCache::new(&ev, cands.clone());
            let warm = Tuner::new(&ev, &g, &machine, fom).tune_warm(&mut warm_cache);
            match (&cold.best, &warm.best) {
                (Some(c), Some(w)) => {
                    prop_assert_eq!(&c.label, &w.label, "winner under {}", kind);
                    prop_assert_eq!(c.score.to_bits(), w.score.to_bits(),
                        "score bits under {}", kind);
                    // Delta path: seed a delta evaluator at the winning
                    // placement; its score must be the evaluator's own,
                    // bit for bit.
                    let mut delta = DeltaEvaluator::new(&ev, &c.resolved.place);
                    let direct = ev.score(fom, &ev.evaluate(&c.resolved));
                    prop_assert_eq!(delta.score(fom).to_bits(), direct.to_bits(),
                        "delta score bits under {}", kind);
                }
                (None, None) => {}
                _ => prop_assert!(false, "cold and warm disagree on winner existence"),
            }
        }
    }

    /// The default backend is the history: an `Evaluator` with no
    /// explicit model, one set to `Analytic`, and the raw pre-backend
    /// `FigureOfMerit::score` all produce identical bits, so every
    /// cached tune and recorded benchmark stays valid.
    #[test]
    fn default_backend_scores_are_bit_identical_to_history(
        spec in prop::collection::vec((0u8..=2, any::<u64>(), any::<u64>()), 1..60),
    ) {
        let g = dag_from_spec(&spec);
        let machine = MachineConfig::n5(3, 3);
        let default_ev = Evaluator::new(&g, &machine);
        let analytic_ev = Evaluator::new(&g, &machine).with_cost_model(CostModelKind::Analytic);
        prop_assert_eq!(default_ev.cost_model(), CostModelKind::Analytic);
        for cand in candidates(&g, machine.cols) {
            let Ok(rm) = cand.mapping.resolve(&g, &machine) else { continue };
            let a = default_ev.evaluate(&rm);
            let b = analytic_ev.evaluate(&rm);
            prop_assert_eq!(&a, &b, "reports identical for {}", cand.label);
            for fom in [
                FigureOfMerit::Time,
                FigureOfMerit::Energy,
                FigureOfMerit::Edp,
                FigureOfMerit::Footprint,
            ] {
                let historical = fom.score(&a);
                prop_assert_eq!(default_ev.score(fom, &a).to_bits(), historical.to_bits());
                prop_assert_eq!(analytic_ev.score(fom, &b).to_bits(), historical.to_bits());
            }
        }
    }
}

/// Recompute a [`fm_repro::costmodel::RooflinePoint`]'s fields by hand
/// from the ledger and the machine datasheet, then check the observatory
/// agrees — shared by the FFT and stencil fixtures below.
fn assert_roofline_matches_hand_arithmetic(
    ev: &Evaluator<'_>,
    report: &fm_repro::core::cost::CostReport,
    machine: &MachineConfig,
) -> (f64, f64, f64) {
    let point = ev.roofline(report);

    // Machine ceilings straight from the datasheet fields, not from
    // `MachineConfig::ceilings`.
    let clk = machine.clock_period().raw();
    let pes = f64::from(machine.cols) * f64::from(machine.rows);
    let c_peak = pes * f64::from(machine.issue_width) / clk;
    let h = u64::from(machine.cols - 1) * u64::from(machine.rows);
    let v = u64::from(machine.cols) * u64::from(machine.rows - 1);
    let b_on = (2 * (h + v)) as f64 * f64::from(machine.link_width_bits) / clk;
    let b_off = f64::from(machine.link_width_bits) / clk;

    // Intensities from the ledger, denominators floored at one bit.
    let ops = report.ledger.compute_ops as f64;
    let on_bits = report.ledger.onchip_bits;
    let off_bits = report.ledger.offchip_bits;
    let want_int_on = ops / on_bits.max(1) as f64;
    let want_int_off = ops / off_bits.max(1) as f64;
    assert_eq!(point.intensity_onchip.to_bits(), want_int_on.to_bits());
    assert_eq!(point.intensity_offchip.to_bits(), want_int_off.to_bits());
    assert_eq!(point.compute_ceiling.to_bits(), c_peak.to_bits());
    assert_eq!(
        point.attainable_onchip.to_bits(),
        (want_int_on * b_on).min(c_peak).to_bits()
    );
    assert_eq!(
        point.attainable_offchip.to_bits(),
        (want_int_off * b_off).min(c_peak).to_bits()
    );
    assert_eq!(
        point.achieved.to_bits(),
        (ops / report.time_ps.raw()).to_bits()
    );

    // The bound label is the argmax of the three planned-time terms,
    // ties toward compute.
    let t_c = ops / c_peak;
    let t_on = if on_bits == 0 {
        0.0
    } else {
        on_bits as f64 / b_on
    };
    let t_off = if off_bits == 0 {
        0.0
    } else {
        off_bits as f64 / b_off
    };
    let want_bound = if t_c >= t_on && t_c >= t_off {
        "compute"
    } else if t_on >= t_off {
        "onchip-bw"
    } else {
        "offchip-bw"
    };
    assert_eq!(point.bound, want_bound);

    // And the roofline backend's *time score* is exactly the binding
    // term.
    let roofline_ev = Evaluator::new(ev.graph(), machine).with_cost_model(CostModelKind::Roofline);
    let want_time = t_c.max(t_on).max(t_off);
    assert_eq!(
        roofline_ev.score(FigureOfMerit::Time, report).to_bits(),
        want_time.to_bits()
    );
    (t_c, t_on, t_off)
}

#[test]
fn fft_roofline_point_matches_hand_computed_values() {
    // 8-point DIT FFT, cyclic over 4 lanes of a linear array: every
    // stage has cross-lane butterflies, so all three traffic classes
    // are live.
    let n = 8;
    let machine = MachineConfig::linear(4);
    let g = fft_graph(n, FftVariant::Dit);
    let rm = fft_mapping(&g, n, 4, LanePlacement::Cyclic, &machine);
    let ev = Evaluator::new(&g, &machine);
    let report = ev.evaluate(&rm);

    // Hand-reasoned structure first: inputs stream in off-chip
    // (≥ n × 32-bit words), and a cyclic lane placement moves data
    // between PEs on-chip in every butterfly stage.
    assert!(
        report.ledger.offchip_bits >= (n as u64) * 32,
        "all {n} inputs arrive off-chip"
    );
    assert!(
        report.ledger.onchip_bits > 0,
        "cyclic FFT lanes must exchange butterflies on-chip"
    );

    // Off-chip volume is exactly hand-countable: 8 complex input
    // points stream in as 16 real words of 32 bits each.
    assert_eq!(report.ledger.offchip_bits, (2 * n as u64) * 32);

    let (t_c, _t_on, t_off) = assert_roofline_matches_hand_arithmetic(&ev, &report, &machine);
    // 512 off-chip bits cross a 64-bit-per-cycle interface in 8 cycles;
    // the butterfly arithmetic on 4 single-issue lanes needs longer
    // than that, so this point sits under the compute roof.
    assert!(t_c > t_off, "FFT-8 on 4 lanes is compute-bound");
    assert_eq!(ev.roofline(&report).bound, "compute");
}

#[test]
fn stencil_roofline_point_matches_hand_computed_values() {
    // 6 steps × 16 sites, blocked over 4 PEs: each PE sweeps a 4-site
    // block serially and only block boundaries talk per step.
    let (t_steps, n, p) = (6, 16, 4);
    let machine = MachineConfig::linear(p as u32);
    let g = stencil_recurrence(t_steps, n).elaborate().unwrap();
    let rm = blocked_mapping(n, p)
        .resolve(&g, &machine)
        .expect("blocked stencil mapping is legal");
    let ev = Evaluator::new(&g, &machine);
    let report = ev.evaluate(&rm);

    // Hand-reasoned structure: T×N sites each do a handful of ops, and
    // only ~2 boundary values per interior block edge per step cross
    // PEs — traffic Θ(P·T), compute Θ(N·T).
    assert_eq!(report.elements, (t_steps * n) as u64);
    assert!(report.ledger.compute_ops >= (t_steps * n) as u64);
    assert!(
        report.ledger.onchip_messages as usize <= 2 * (p as usize - 1) * t_steps,
        "only block boundaries communicate: {} messages",
        report.ledger.onchip_messages
    );

    // Off-chip volume by hand again: the N forcing words stream in
    // once, 32 bits each.
    assert_eq!(report.ledger.offchip_bits, (n as u64) * 32);

    assert_roofline_matches_hand_arithmetic(&ev, &report, &machine);

    // What the roofline model can and cannot see: planned compute
    // volume is placement-independent and both mappings are
    // compute-bound, so their roofline *time scores* tie exactly —
    // while the analytic schedule clock strictly prefers the blocked
    // mapping's real parallelism. This blindness is exactly the
    // winner-flip E20 measures.
    let serial = Mapping::serial(&g).resolve(&g, &machine).unwrap();
    let serial_report = ev.evaluate(&serial);
    let roofline_ev = Evaluator::new(&g, &machine).with_cost_model(CostModelKind::Roofline);
    assert_eq!(
        roofline_ev.score(FigureOfMerit::Time, &report).to_bits(),
        roofline_ev
            .score(FigureOfMerit::Time, &serial_report)
            .to_bits(),
        "compute-bound roofline time is placement-blind"
    );
    assert!(
        report.time_ps.raw() < serial_report.time_ps.raw(),
        "the analytic clock sees the blocked mapping's parallelism"
    );
}
