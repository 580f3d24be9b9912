//! Property-based tests over the core invariants of the workspace.

use proptest::prelude::*;

use fm_repro::autotune::{Budget, CacheStatus, Refinement, Tuner, TuningCache};
use fm_repro::core::affine::IdxExpr;
use fm_repro::core::cost::Evaluator;
use fm_repro::core::dataflow::{CExpr, DataflowGraph};
use fm_repro::core::delta::DeltaEvaluator;
use fm_repro::core::flat::{BatchEvaluator, EvalScratch, RawEval};
use fm_repro::core::legality::{check, LegalityError};
use fm_repro::core::machine::MachineConfig;
use fm_repro::core::mapping::{Mapping, ResolvedMapping};
use fm_repro::core::parse::{parse_idx_expr, ParseEnv};
use fm_repro::core::search::{default_mapper, retime, search, FigureOfMerit, MappingCandidate};
use fm_repro::core::value::Value;
use fm_repro::grid::Simulator;
use fm_repro::kernels::editdist::{edit_distance_ref, edit_inputs, edit_recurrence, Scoring};
use fm_repro::kernels::fft::{dft_naive, fft_ref};
use fm_repro::kernels::scan::{par_scan, scan_ref};
use fm_repro::kernels::sortalg::par_mergesort;
use fm_repro::workspan::{IdealCache, ThreadPool, WorkSpan};

/// Build a random DAG from a proptest-driven spec: each node gets 0–2
/// dependencies drawn from earlier nodes.
fn dag_from_spec(spec: &[(u8, u64, u64)]) -> DataflowGraph {
    let mut g = DataflowGraph::new("prop-dag", 32);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The default mapper is legal on arbitrary DAGs, and the simulator
    /// then (a) matches the evaluator's energy exactly and (b) matches
    /// the functional evaluation.
    #[test]
    fn default_mapper_legal_and_sim_agrees(
        spec in prop::collection::vec((0u8..=2, any::<u64>(), any::<u64>()), 1..120)
    ) {
        let g = dag_from_spec(&spec);
        let machine = MachineConfig::n5(3, 3);
        let rm = default_mapper(&g, &machine);
        let rep = check(&g, &rm, &machine);
        prop_assert!(rep.is_legal());

        let predicted = Evaluator::new(&g, &machine).evaluate(&rm);
        let sim = Simulator::new(machine);
        let res = sim.run(&g, &rm, &[], &[]).unwrap();
        let pe = predicted.energy().raw();
        let se = res.ledger.energy.total().raw();
        prop_assert!((pe - se).abs() <= 1e-9 * pe.max(1.0));

        let reference = g.eval(&[]);
        for (a, b) in res.values.iter().zip(&reference) {
            prop_assert!(a.approx_eq(*b, 1e-9));
        }
    }

    /// With contention modeled, the simulator still computes correct
    /// values and never finishes before the static schedule promises.
    #[test]
    fn contention_preserves_values_and_only_delays(
        spec in prop::collection::vec((0u8..=2, any::<u64>(), any::<u64>()), 1..100),
        places_seed in any::<u64>()
    ) {
        let g = dag_from_spec(&spec);
        let machine = MachineConfig::n5(3, 2);
        let mut s = places_seed;
        let places: Vec<(i64, i64)> = (0..g.len()).map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (((s >> 33) % 3) as i64, ((s >> 17) % 2) as i64)
        }).collect();
        let rm = retime(&g, &places, &machine);
        let sim = Simulator::new(machine);
        let res = sim.run(&g, &rm, &[], &[]).unwrap();
        prop_assert!(res.cycles_actual >= res.cycles_scheduled);
        let reference = g.eval(&[]);
        for (a, b) in res.values.iter().zip(&reference) {
            prop_assert!(a.approx_eq(*b, 1e-9));
        }
    }

    /// Retiming any placement yields a legal schedule.
    #[test]
    fn retime_always_legal(
        spec in prop::collection::vec((0u8..=2, any::<u64>(), any::<u64>()), 1..80),
        places_seed in any::<u64>()
    ) {
        let g = dag_from_spec(&spec);
        let machine = MachineConfig::n5(4, 2);
        let mut s = places_seed;
        let places: Vec<(i64, i64)> = (0..g.len()).map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (((s >> 33) % 4) as i64, ((s >> 17) % 2) as i64)
        }).collect();
        let rm = retime(&g, &places, &machine);
        prop_assert!(check(&g, &rm, &machine).is_legal());
    }

    /// Edit distance through elaboration equals the serial DP for
    /// arbitrary short strings.
    #[test]
    fn edit_recurrence_matches_dp(
        r in prop::collection::vec(0u8..4, 1..12),
        q in prop::collection::vec(0u8..4, 1..12)
    ) {
        let rec = edit_recurrence(r.len(), q.len(), Scoring::levenshtein());
        let g = rec.elaborate().unwrap();
        let vals = g.eval(&edit_inputs(&r, &q));
        prop_assert_eq!(vals.last().unwrap().re as i64, edit_distance_ref(&r, &q));
    }

    /// Edit distance is a metric-ish quantity: symmetric, zero iff
    /// equal, bounded by max length.
    #[test]
    fn edit_distance_properties(
        r in prop::collection::vec(0u8..4, 0..16),
        q in prop::collection::vec(0u8..4, 0..16)
    ) {
        let d = edit_distance_ref(&r, &q);
        prop_assert_eq!(d, edit_distance_ref(&q, &r));
        prop_assert!(d <= r.len().max(q.len()) as i64);
        if r == q {
            prop_assert_eq!(d, 0);
        } else {
            prop_assert!(d >= 1);
        }
    }

    /// FFT reference matches the naive DFT on random signals.
    #[test]
    fn fft_matches_dft(
        bits in 1u32..6,
        seed in any::<u64>()
    ) {
        let n = 1usize << bits;
        let mut s = seed | 1;
        let x: Vec<Value> = (0..n).map(|_| {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            Value::complex((s % 1000) as f64 / 500.0 - 1.0, ((s >> 10) % 1000) as f64 / 500.0 - 1.0)
        }).collect();
        let a = fft_ref(&x);
        let b = dft_naive(&x);
        for (u, v) in a.iter().zip(&b) {
            prop_assert!(u.approx_eq(*v, 1e-6));
        }
    }

    /// Parallel scan and mergesort agree with serial semantics.
    #[test]
    fn parallel_kernels_match_serial(
        data in prop::collection::vec(-1000i64..1000, 0..2000),
        grain in 1usize..200
    ) {
        let pool = ThreadPool::with_threads(3);
        let (scanned, _) = par_scan(&pool, &data, grain);
        prop_assert_eq!(scanned, scan_ref(&data));

        let as_u64: Vec<u64> = data.iter().map(|&v| (v + 1000) as u64).collect();
        let (sorted, _) = par_mergesort(&pool, &as_u64, grain);
        let mut expect = as_u64.clone();
        expect.sort_unstable();
        prop_assert_eq!(sorted, expect);
    }

    /// WorkSpan algebra invariants: span never exceeds work; greedy
    /// bound dominates both terms; composition is monotone.
    #[test]
    fn workspan_algebra_invariants(
        costs in prop::collection::vec(0.0f64..1e6, 1..20),
        p in 1u64..64
    ) {
        let mut acc = WorkSpan::ZERO;
        for (i, &c) in costs.iter().enumerate() {
            let leaf = WorkSpan::leaf(c);
            acc = if i % 2 == 0 { acc.seq(leaf) } else { acc.par(leaf) };
            prop_assert!(acc.span <= acc.work + 1e-9);
        }
        let bound = acc.greedy_bound(p);
        prop_assert!(bound + 1e-9 >= acc.span);
        prop_assert!(bound + 1e-9 >= acc.work / p as f64);
    }

    /// The affine-expression syntax round-trips: Display output
    /// reparses to an expression with identical values.
    #[test]
    fn idx_expr_display_reparses(ops in prop::collection::vec((0u8..5, 1i64..9), 0..8)) {
        // Build an expression over i, j by folding random operations.
        let mut e = IdxExpr::i();
        for &(op, c) in &ops {
            e = match op {
                0 => e + IdxExpr::j(),
                1 => e - IdxExpr::c(c),
                2 => e * c,
                3 => e % c,
                _ => e.div(c),
            };
        }
        let printed = format!("{e}");
        let env = ParseEnv::new(&[], &[]);
        let reparsed = parse_idx_expr(&printed, &["i", "j"], &env).unwrap();
        for i in -3i64..4 {
            for j in -3i64..4 {
                prop_assert_eq!(e.eval(&[i, j]), reparsed.eval(&[i, j]), "{}", printed);
            }
        }
    }

    /// The parallel tuner and the serial `search()` agree on the
    /// winning label and objective score for arbitrary DAGs and
    /// candidate sets (the tuner's determinism guarantee).
    #[test]
    fn parallel_tuner_matches_serial_search(
        spec in prop::collection::vec((0u8..=2, any::<u64>(), any::<u64>()), 1..60),
        places_seed in any::<u64>()
    ) {
        let g = dag_from_spec(&spec);
        let machine = MachineConfig::n5(3, 2);
        let mut cands = vec![
            MappingCandidate::new("serial", Mapping::serial(&g)),
            MappingCandidate::new("default", Mapping::Table(default_mapper(&g, &machine))),
        ];
        let mut s = places_seed;
        for k in 0..4 {
            let places: Vec<(i64, i64)> = (0..g.len()).map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (((s >> 33) % 3) as i64, ((s >> 17) % 2) as i64)
            }).collect();
            cands.push(MappingCandidate::new(
                format!("retimed-{k}"),
                Mapping::Table(retime(&g, &places, &machine)),
            ));
        }
        let ev = Evaluator::new(&g, &machine);
        let serial = search(&ev, &g, &machine, &cands, FigureOfMerit::Edp);
        let pool = ThreadPool::with_threads(3);
        let tuned = Tuner::new(&ev, &g, &machine, FigureOfMerit::Edp)
            .with_pool(&pool)
            .tune(&cands);
        let best = tuned.best.unwrap();
        let sbest = serial.best().unwrap();
        prop_assert_eq!(best.score, sbest.score);
        prop_assert_eq!(best.label, sbest.label.clone());
    }

    /// Every mapping the tuner persists in its cache replays legally:
    /// a warm run reports a hit, evaluates nothing, and its winner
    /// passes the legality checker with the cold run's score.
    #[test]
    fn cached_tuning_results_replay_legally(
        spec in prop::collection::vec((0u8..=2, any::<u64>(), any::<u64>()), 1..40)
    ) {
        let g = dag_from_spec(&spec);
        let machine = MachineConfig::n5(2, 2);
        let cands = vec![
            MappingCandidate::new("serial", Mapping::serial(&g)),
            MappingCandidate::new("default", Mapping::Table(default_mapper(&g, &machine))),
        ];
        let ev = Evaluator::new(&g, &machine);
        let dir = std::env::temp_dir()
            .join(format!("fm-repro-proptest-cache-{}", std::process::id()));
        let cache = TuningCache::open(&dir).unwrap();
        let cold = Tuner::new(&ev, &g, &machine, FigureOfMerit::Time)
            .with_cache(cache.clone())
            .tune(&cands);
        let warm = Tuner::new(&ev, &g, &machine, FigureOfMerit::Time)
            .with_cache(cache)
            .tune(&cands);
        prop_assert_eq!(warm.cache, CacheStatus::Hit);
        prop_assert_eq!(warm.evaluated, 0);
        let (c, w) = (cold.best.unwrap(), warm.best.unwrap());
        prop_assert!(check(&g, &w.resolved, &machine).is_legal());
        prop_assert_eq!(c.score, w.score);
        prop_assert_eq!(c.label, w.label);
    }

    /// The incremental evaluator stays bit-exact with the full
    /// pipeline under arbitrary move sequences: after every move, its
    /// mapping equals `retime` of its placement and its report equals
    /// `Evaluator::evaluate` of that mapping, field for field.
    #[test]
    fn incremental_moves_stay_bit_exact(
        spec in prop::collection::vec((0u8..=2, any::<u64>(), any::<u64>()), 1..80),
        moves_seed in any::<u64>()
    ) {
        let g = dag_from_spec(&spec);
        let machine = MachineConfig::n5(3, 2);
        let ev = Evaluator::new(&g, &machine);
        let init = default_mapper(&g, &machine);
        let mut delta = DeltaEvaluator::new(&ev, &init.place).with_paranoia(false);
        let mut s = moves_seed;
        for _ in 0..30 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let node = ((s >> 48) as usize) % g.len();
            let pe = (((s >> 33) % 3) as i64, ((s >> 17) % 2) as i64);
            delta.apply_move(node, pe);
            let rm = delta.mapping();
            prop_assert_eq!(&rm, &retime(&g, &rm.place, &machine));
            prop_assert_eq!(delta.report(), ev.evaluate(&rm));
        }
    }

    /// The flat engine (interned PE ids, SoA cost folds, scratch
    /// arena), the incremental delta engine, and the reference
    /// evaluation path agree to the score *bit* across random graphs,
    /// random mappings, and random move sequences.
    #[test]
    fn flat_delta_and_reference_agree_on_score_bits(
        spec in prop::collection::vec((0u8..=2, any::<u64>(), any::<u64>()), 1..60),
        moves_seed in any::<u64>()
    ) {
        let g = dag_from_spec(&spec);
        let machine = MachineConfig::n5(3, 2);
        let ev = Evaluator::new(&g, &machine);
        let fom = FigureOfMerit::Edp;
        let batch = BatchEvaluator::new(&ev, &g, &machine, fom);
        let mut scratch = EvalScratch::new();
        let init = default_mapper(&g, &machine);
        let mut delta = DeltaEvaluator::new(&ev, &init.place).with_paranoia(false);
        let mut s = moves_seed;
        for _ in 0..20 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let node = ((s >> 48) as usize) % g.len();
            let pe = (((s >> 33) % 3) as i64, ((s >> 17) % 2) as i64);
            delta.apply_move(node, pe);
            let rm = delta.mapping();
            let ref_report = ev.evaluate_ref(&rm);
            // Delta repair path: bit-identical report.
            prop_assert_eq!(delta.report(), ref_report.clone());
            // Flat candidate path: bit-identical score (the moves keep
            // the mapping legal by construction — retimed placements
            // on an in-bounds grid).
            let cand = MappingCandidate::new("prop", Mapping::Table(rm.clone()));
            match batch.evaluate_raw_in(&cand, &mut scratch) {
                RawEval::Legal { score, cycles, .. } => {
                    prop_assert_eq!(score.to_bits(), fom.score(&ref_report).to_bits());
                    prop_assert_eq!(cycles, ref_report.cycles);
                }
                RawEval::Illegal(total) => {
                    // Tile overflow can make a random pile-up illegal;
                    // the flat violation count must then match the
                    // full checker's exactly.
                    prop_assert_eq!(total, check(&g, &rm, &machine).total_violations);
                    prop_assert!(total > 0);
                }
                RawEval::Unresolvable => prop_assert!(false, "table mapping must resolve"),
            }
        }
    }

    /// Every resolvable candidate gets its verdict from the flat
    /// engine: over random graphs and random table mappings — some
    /// places off the grid, some times negative — `evaluate_raw_in`
    /// reports exactly `check`'s violation total, is `Legal` only when
    /// `check` passes, and then scores like the reference report.
    #[test]
    fn flat_verdicts_match_the_full_checker(
        spec in prop::collection::vec((0u8..=2, any::<u64>(), any::<u64>()), 1..40),
        cells in prop::collection::vec((-1i64..5, -1i64..3, -2i64..48), 40),
        on_grid in any::<bool>()
    ) {
        let g = dag_from_spec(&spec);
        let machine = MachineConfig::n5(3, 2);
        let ev = Evaluator::new(&g, &machine);
        let fom = FigureOfMerit::Edp;
        let batch = BatchEvaluator::new(&ev, &g, &machine, fom);
        let mut scratch = EvalScratch::new();
        // Half the cases fold every place onto the grid, so causality
        // (skipped whenever a place is off the grid) is exercised too.
        let cells = &cells[..g.len()];
        let rm = ResolvedMapping {
            place: cells
                .iter()
                .map(|&(x, y, _)| if on_grid { (x.rem_euclid(3), y.rem_euclid(2)) } else { (x, y) })
                .collect(),
            time: cells.iter().map(|&(_, _, t)| t).collect(),
        };
        let full = check(&g, &rm, &machine);
        let cand = MappingCandidate::new("prop", Mapping::Table(rm.clone()));
        match batch.evaluate_raw_in(&cand, &mut scratch) {
            RawEval::Legal { score, .. } => {
                prop_assert!(full.is_legal());
                prop_assert_eq!(score.to_bits(), fom.score(&ev.evaluate_ref(&rm)).to_bits());
            }
            RawEval::Illegal(total) => prop_assert_eq!(total, full.total_violations),
            RawEval::Unresolvable => prop_assert!(false, "table mapping must resolve"),
        }
    }

    /// The incremental per-PE tile-peak tracking agrees with the full
    /// legality checker's storage verdicts under arbitrary moves, on a
    /// machine with tiles small enough that violations actually occur.
    #[test]
    fn incremental_legality_matches_full_checker(
        spec in prop::collection::vec((0u8..=2, any::<u64>(), any::<u64>()), 1..60),
        moves_seed in any::<u64>()
    ) {
        let g = dag_from_spec(&spec);
        let mut machine = MachineConfig::n5(2, 2);
        machine.tile_bits = 4 * 32; // tiny tiles: hoarding PEs go over
        machine.issue_width = 64; // keep issue legal while nodes pile up
        let ev = Evaluator::new(&g, &machine);
        let init = default_mapper(&g, &machine);
        let mut delta = DeltaEvaluator::new(&ev, &init.place).with_paranoia(false);
        let mut s = moves_seed;
        for _ in 0..30 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let node = ((s >> 48) as usize) % g.len();
            let pe = (((s >> 33) % 2) as i64, ((s >> 17) % 2) as i64);
            delta.apply_move(node, pe);
            let rep = check(&g, &delta.mapping(), &machine);
            let storage = rep
                .errors
                .iter()
                .filter(|e| matches!(e, LegalityError::StorageExceeded { .. }))
                .count() as u64;
            // With 4 PEs we sit far below the checker's 64-error cap,
            // so the counts are exact, not truncated.
            prop_assert_eq!(delta.storage_violations(), storage);
        }
    }

    /// The steal-scheduled tuner (work-stealing pool + ordered
    /// reduction) picks the identical winner, evaluation prefix, and
    /// trajectory as the serial tuner — convergence window and
    /// annealing refinement included.
    #[test]
    fn steal_scheduled_tuner_matches_serial(
        spec in prop::collection::vec((0u8..=2, any::<u64>(), any::<u64>()), 1..50),
        places_seed in any::<u64>(),
        window in 2usize..8
    ) {
        let g = dag_from_spec(&spec);
        let machine = MachineConfig::n5(3, 2);
        let mut cands = vec![
            MappingCandidate::new("serial", Mapping::serial(&g)),
            MappingCandidate::new("default", Mapping::Table(default_mapper(&g, &machine))),
        ];
        let mut s = places_seed;
        for k in 0..6 {
            let places: Vec<(i64, i64)> = (0..g.len()).map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (((s >> 33) % 3) as i64, ((s >> 17) % 2) as i64)
            }).collect();
            cands.push(MappingCandidate::new(
                format!("retimed-{k}"),
                Mapping::Table(retime(&g, &places, &machine)),
            ));
        }
        let ev = Evaluator::new(&g, &machine);
        let mut budget = Budget::unlimited();
        budget.convergence_window = Some(window);
        let refinement = Refinement { chains: 2, iters: 40, seed: places_seed };
        let serial = Tuner::new(&ev, &g, &machine, FigureOfMerit::Edp)
            .with_budget(budget)
            .with_refinement(refinement)
            .tune(&cands);
        let pool = ThreadPool::with_threads(4);
        let stolen = Tuner::new(&ev, &g, &machine, FigureOfMerit::Edp)
            .with_budget(budget)
            .with_refinement(refinement)
            .with_pool(&pool)
            .tune(&cands);
        prop_assert_eq!(serial.evaluated, stolen.evaluated);
        prop_assert_eq!(&serial.trajectory, &stolen.trajectory);
        let (a, b) = (serial.best.unwrap(), stolen.best.unwrap());
        prop_assert_eq!(a.label, b.label);
        prop_assert_eq!(a.score, b.score);
        prop_assert_eq!(a.resolved, b.resolved);
        let al: Vec<&str> = serial.outcome.results.iter().map(|r| r.label.as_str()).collect();
        let bl: Vec<&str> = stolen.outcome.results.iter().map(|r| r.label.as_str()).collect();
        prop_assert_eq!(al, bl);
    }

    /// Ideal cache sanity: misses ≤ accesses; a cold sequential scan of
    /// L-aligned data misses exactly ⌈len/L⌉ times.
    #[test]
    fn cache_invariants(
        len in 1usize..4000,
        l_pow in 0u32..5,
        z_lines in 1usize..64
    ) {
        let l = 1usize << l_pow;
        let mut c = IdealCache::new(z_lines * l, l);
        c.access_range(0, len);
        let s = c.stats();
        prop_assert!(s.misses <= s.accesses);
        prop_assert_eq!(s.misses as usize, len.div_ceil(l));
    }
}
