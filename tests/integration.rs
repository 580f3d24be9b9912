//! Cross-crate integration tests: the full pipeline from recurrence to
//! simulated spatial execution, across all kernels and models.
#![allow(clippy::needless_range_loop)] // matrix-style i/j indexing reads clearest in checks

use fm_repro::core::cost::{conventional_core_report, Evaluator};
use fm_repro::core::legality::check;
use fm_repro::core::machine::MachineConfig;
use fm_repro::core::mapping::InputPlacement;
use fm_repro::core::pramcost::PramCost;
use fm_repro::core::search::MappingFamily;
use fm_repro::core::search::{default_mapper, search, FigureOfMerit};
use fm_repro::grid::{SimConfig, Simulator};
use fm_repro::kernels::editdist::{
    edit_distance_ref, edit_inputs, edit_recurrence, paper_input_placements, skewed_mapping,
    EditDistFamily, Scoring,
};
use fm_repro::kernels::fft::{fft_graph, fft_mapping, fft_ref, FftVariant, LanePlacement};
use fm_repro::kernels::matmul::{matmul_recurrence, matmul_ref, matrix_values, systolic_mapping};
use fm_repro::kernels::stencil::{
    blocked_mapping, stencil_inputs, stencil_recurrence, stencil_ref,
};
use fm_repro::kernels::util::{random_sequence, XorShift, DNA};

/// Predicted energy must equal simulated energy, exactly, for every
/// kernel and mapping in the suite — the F&M "predictable cost" claim.
#[test]
fn predicted_energy_equals_simulated_across_kernels() {
    // Edit distance over several P.
    let n = 24;
    let r = random_sequence(n, DNA, 31);
    let q = random_sequence(n, DNA, 32);
    let rec = edit_recurrence(n, n, Scoring::paper_local());
    let g = rec.elaborate().unwrap();
    for p in [1i64, 3, 8] {
        let machine = MachineConfig::linear(p as u32);
        let rm = skewed_mapping(p, n).resolve(&g, &machine).unwrap();
        let placements = paper_input_placements(p);
        let mut ev = Evaluator::new(&g, &machine);
        for (i, pl) in placements.iter().enumerate() {
            ev = ev.with_input_placement(i, pl.clone());
        }
        let predicted = ev.evaluate(&rm);
        let sim = Simulator::new(machine);
        let res = sim.run(&g, &rm, &edit_inputs(&r, &q), &placements).unwrap();
        let pe = predicted.energy().raw();
        let se = res.ledger.energy.total().raw();
        assert!(
            (pe - se).abs() <= 1e-6 * pe.max(1.0),
            "edit P={p}: predicted {pe} vs simulated {se}"
        );
        assert_eq!(predicted.ledger.onchip_messages, res.ledger.onchip_messages);
    }

    // FFT, both variants and placements.
    let nf = 32;
    let x: Vec<_> = (0..nf)
        .map(|i| fm_repro::core::value::Value::real(i as f64))
        .collect();
    for variant in [FftVariant::Dit, FftVariant::Dif] {
        let g = fft_graph(nf, variant);
        for placement in [LanePlacement::Block, LanePlacement::Cyclic] {
            let machine = MachineConfig::linear(4);
            let rm = fft_mapping(&g, nf, 4, placement, &machine);
            let predicted = Evaluator::new(&g, &machine)
                .with_all_inputs(InputPlacement::AtUse)
                .evaluate(&rm);
            let sim = Simulator::new(machine);
            let res = sim
                .run(&g, &rm, std::slice::from_ref(&x), &[InputPlacement::AtUse])
                .unwrap();
            let pe = predicted.energy().raw();
            let se = res.ledger.energy.total().raw();
            assert!((pe - se).abs() <= 1e-6 * pe, "{variant:?} {placement:?}");
        }
    }
}

/// The simulator's functional results match serial references through
/// the whole stack (recurrence elaboration + mapping + NoC simulation).
#[test]
fn simulated_values_match_references() {
    // Edit distance final value.
    let r = random_sequence(20, DNA, 41);
    let q = random_sequence(17, DNA, 42);
    let rec = edit_recurrence(r.len(), q.len(), Scoring::levenshtein());
    let g = rec.elaborate().unwrap();
    let machine = MachineConfig::linear(4);
    let rm = skewed_mapping(4, q.len()).resolve(&g, &machine).unwrap();
    let sim = Simulator::new(machine);
    let res = sim
        .run(&g, &rm, &edit_inputs(&r, &q), &paper_input_placements(4))
        .unwrap();
    assert_eq!(
        res.values.last().unwrap().re as i64,
        edit_distance_ref(&r, &q)
    );

    // FFT values.
    let n = 16;
    let mut rng = XorShift::new(5);
    let x: Vec<_> = (0..n)
        .map(|_| fm_repro::core::value::Value::complex(rng.unit_f64(), rng.unit_f64()))
        .collect();
    let g = fft_graph(n, FftVariant::Dit);
    let machine = MachineConfig::linear(4);
    let rm = fft_mapping(&g, n, 4, LanePlacement::Block, &machine);
    let sim = Simulator::new(machine);
    let res = sim
        .run(&g, &rm, std::slice::from_ref(&x), &[InputPlacement::AtUse])
        .unwrap();
    let expect = fft_ref(&x);
    for &id in &g.outputs() {
        let lane = g.nodes[id as usize].index[1] as usize;
        assert!(res.values[id as usize].approx_eq(expect[lane], 1e-9));
    }
}

/// The default mapper produces a legal mapping for every kernel graph —
/// "programmers that don't want to bother with mapping can use a
/// default mapper".
#[test]
fn default_mapper_legal_on_all_kernels() {
    let machine = MachineConfig::n5(4, 4);
    let graphs = vec![
        edit_recurrence(12, 12, Scoring::paper_local())
            .elaborate()
            .unwrap(),
        fft_graph(16, FftVariant::Dit),
        fft_graph(16, FftVariant::Dif),
        matmul_recurrence(5).elaborate().unwrap(),
        stencil_recurrence(6, 12).elaborate().unwrap(),
    ];
    for g in &graphs {
        let rm = default_mapper(g, &machine);
        let rep = check(g, &rm, &machine);
        assert!(
            rep.is_legal(),
            "{}: {:?}",
            g.name,
            &rep.errors[..rep.errors.len().min(2)]
        );
    }
}

/// Default-mapper cost is "no worse than today's abstractions": at most
/// the fully serial schedule's time (E8's core assertion).
#[test]
fn default_mapper_no_worse_than_serial() {
    let machine = MachineConfig::n5(4, 4);
    for g in [
        fft_graph(32, FftVariant::Dit),
        stencil_recurrence(8, 16).elaborate().unwrap(),
    ] {
        let rm_default = default_mapper(&g, &machine);
        let serial = fm_repro::core::mapping::Mapping::serial(&g)
            .resolve(&g, &machine)
            .unwrap();
        assert!(
            rm_default.makespan() <= serial.makespan(),
            "{}: default {} vs serial {}",
            g.name,
            rm_default.makespan(),
            serial.makespan()
        );
    }
}

/// Matmul systolic wavefront on the grid, checked against the serial
/// reference through the simulator.
#[test]
fn matmul_systolic_end_to_end() {
    let n = 5;
    let mut rng = XorShift::new(77);
    let a: Vec<f64> = (0..n * n).map(|_| rng.unit_f64()).collect();
    let b: Vec<f64> = (0..n * n).map(|_| rng.unit_f64()).collect();
    let rec = matmul_recurrence(n);
    let g = rec.elaborate().unwrap();
    let machine = MachineConfig::n5(n as u32, n as u32);
    let rm = systolic_mapping().resolve(&g, &machine).unwrap();
    let sim = Simulator::new(machine);
    let res = sim
        .run(
            &g,
            &rm,
            &[matrix_values(&a), matrix_values(&b)],
            &[InputPlacement::AtUse, InputPlacement::AtUse],
        )
        .unwrap();
    let c = matmul_ref(&a, &b, n);
    for i in 0..n {
        for j in 0..n {
            let id = rec
                .domain
                .flatten(&[i as i64, j as i64, n as i64 - 1])
                .unwrap();
            assert!((res.values[id].re - c[i * n + j]).abs() < 1e-9);
        }
    }
}

/// Stencil values survive the full pipeline at several grid sizes.
#[test]
fn stencil_end_to_end() {
    let (t, n) = (6, 24);
    let mut rng = XorShift::new(13);
    let f: Vec<f64> = (0..n).map(|_| rng.unit_f64()).collect();
    let rec = stencil_recurrence(t, n);
    let g = rec.elaborate().unwrap();
    for p in [2i64, 4, 6] {
        let machine = MachineConfig::linear(p as u32);
        let rm = blocked_mapping(n, p).resolve(&g, &machine).unwrap();
        let sim = Simulator::new(machine);
        let res = sim
            .run(&g, &rm, &stencil_inputs(&f), &[InputPlacement::AtUse])
            .unwrap();
        let expect = stencil_ref(&f, t);
        for i in 0..n {
            let id = rec.domain.flatten(&[t as i64 - 1, i as i64]).unwrap();
            assert!(
                (res.values[id].re - expect[i]).abs() < 1e-9,
                "P={p} site {i}"
            );
        }
    }
}

/// The PRAM lens and the physical lens disagree on ranking — E5's
/// inversion, asserted end to end.
#[test]
fn pram_vs_physical_ranking_inversion() {
    let n = 64;
    let p = 8;
    let machine = MachineConfig::linear(p);
    let dit = fft_graph(n, FftVariant::Dit);
    let dif = fft_graph(n, FftVariant::Dif);

    // PRAM: the copy layer is *cheaper-than-noise* — dif looks ~equal.
    let pram_ratio = PramCost::of(&dif).work as f64 / PramCost::of(&dit).work as f64;
    assert!(pram_ratio < 1.15);

    // Physical: the gather layer costs real millimeters.
    let rm_dit = fft_mapping(&dit, n, p, LanePlacement::Block, &machine);
    let rm_dif = fft_mapping(&dif, n, p, LanePlacement::Block, &machine);
    let e_dit = Evaluator::new(&dit, &machine)
        .with_all_inputs(InputPlacement::AtUse)
        .evaluate(&rm_dit);
    let e_dif = Evaluator::new(&dif, &machine)
        .with_all_inputs(InputPlacement::AtUse)
        .evaluate(&rm_dif);
    let phys_ratio = e_dif.energy().raw() / e_dit.energy().raw();
    assert!(
        phys_ratio > 1.15,
        "physical lens should separate: ratio {phys_ratio}"
    );
}

/// A conventional core pays orders of magnitude more energy than the
/// mapped spatial execution of the same function (E2).
#[test]
fn conventional_core_orders_of_magnitude_worse() {
    let n = 64;
    let machine = MachineConfig::linear(16);
    let g = fft_graph(n, FftVariant::Dit);
    let rm = fft_mapping(&g, n, 16, LanePlacement::Block, &machine);
    let mapped = Evaluator::new(&g, &machine)
        .with_all_inputs(InputPlacement::AtUse)
        .evaluate(&rm);
    let conv = conventional_core_report(&g, &machine);
    assert!(conv.energy().raw() > 50.0 * mapped.energy().raw());
}

/// The E3 search over the edit-distance family picks the largest legal
/// P for time, and the search bookkeeping is consistent.
#[test]
fn editdist_family_search_consistency() {
    let n = 32;
    let rec = edit_recurrence(n, n, Scoring::paper_local());
    let g = rec.elaborate().unwrap();
    let machine = MachineConfig::linear(16);
    let family = EditDistFamily {
        m: n,
        p_values: vec![1, 2, 4, 8, 16],
        include_literal: true,
    };
    let cands = family.candidates(&machine);
    let ev = Evaluator::new(&g, &machine);
    let out = search(&ev, &g, &machine, &cands, FigureOfMerit::Time);
    assert_eq!(out.evaluated, 10);
    // literal legal only at P=1 → 6 legal, 4 rejected.
    assert_eq!(out.legal, 6);
    assert_eq!(out.rejected.len(), 4);
    assert!(out.best().unwrap().label.contains("P=16"));
    assert!(!out.pareto.is_empty());
}

/// Contention-aware simulation never reports fewer cycles than the
/// schedule, and disabling contention recovers the schedule exactly.
#[test]
fn contention_only_adds_cycles() {
    let n = 32;
    let g = fft_graph(n, FftVariant::Dif);
    let machine = MachineConfig::linear(8);
    let rm = fft_mapping(&g, n, 8, LanePlacement::Cyclic, &machine);
    let x: Vec<_> = (0..n)
        .map(|i| fm_repro::core::value::Value::real(i as f64))
        .collect();

    let with = Simulator::new(machine.clone())
        .run(&g, &rm, std::slice::from_ref(&x), &[InputPlacement::AtUse])
        .unwrap();
    assert!(with.cycles_actual >= with.cycles_scheduled);

    let without = Simulator::new(machine)
        .with_config(SimConfig {
            contention: false,
            ..SimConfig::default()
        })
        .run(&g, &rm, &[x], &[InputPlacement::AtUse])
        .unwrap();
    assert_eq!(without.cycles_actual, without.cycles_scheduled);
}

#[test]
fn contended_simulation_repeats_exactly() {
    // Link arbitration under contention depends on the order PEs issue
    // in each cycle; fresh simulators must agree on every count and on
    // every energy bit.
    let n = 64;
    let g = fft_graph(n, FftVariant::Dit);
    let machine = MachineConfig::linear(8);
    let rm = fft_mapping(&g, n, 8, LanePlacement::Cyclic, &machine);
    let x: Vec<_> = (0..n)
        .map(|i| fm_repro::core::value::Value::real(i as f64))
        .collect();
    let run = || {
        Simulator::new(machine.clone())
            .run(&g, &rm, std::slice::from_ref(&x), &[InputPlacement::AtUse])
            .unwrap()
    };
    let first = run();
    assert!(first.link_wait_cycles > 0, "the case must actually contend");
    for _ in 0..8 {
        let again = run();
        assert_eq!(format!("{again:?}"), format!("{first:?}"));
        assert_eq!(
            again.ledger.energy.total().raw().to_bits(),
            first.ledger.energy.total().raw().to_bits()
        );
    }
}
