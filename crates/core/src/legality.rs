//! Mapping legality: the static verifier for space-time mappings.
//!
//! "A legal mapping is one that preserves causality — scheduling element
//! computations after their inputs have been computed, allows time for
//! elements to move from definition to use, and does not exceed storage
//! bounds for elements in transit."
//!
//! [`check`] verifies, for a graph + resolved mapping + machine:
//!
//! 1. **Bounds** — every place is on the grid, every time non-negative.
//! 2. **Causality with wire delay** — for every edge `d → n`,
//!    `time(n) ≥ time(d) + max(1, hops(place(d), place(n)))`.
//! 3. **Issue width** — at most `issue_width` elements per PE per cycle.
//! 4. **Storage** — each value occupies its producer's tile from its
//!    production cycle until its last consumption (outputs: until the
//!    makespan); the peak concurrent footprint per tile must fit.
//!
//! The checker reports *all* violations (capped) rather than failing
//! fast, so a mapping author sees the shape of the problem. This is the
//! crate's nod to Martonosi's statement (§4): the mapping layer is a
//! full-stack interface narrow enough to verify automatically.

use std::collections::HashMap;

use serde::Serialize;

use crate::dataflow::{DataflowGraph, NodeId};
use crate::machine::MachineConfig;
use crate::mapping::ResolvedMapping;

/// Cap on recorded violations (total counts are still exact).
const MAX_RECORDED: usize = 64;

/// A single legality violation.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum LegalityError {
    /// A node is mapped off the grid.
    PlaceOutOfBounds {
        /// Offending node.
        node: NodeId,
        /// Raw coordinates.
        place: (i64, i64),
    },
    /// A node is scheduled before cycle 0.
    NegativeTime {
        /// Offending node.
        node: NodeId,
        /// Scheduled cycle.
        time: i64,
    },
    /// A value would need to arrive before it was produced (or faster
    /// than the wires allow).
    CausalityViolation {
        /// Producer node.
        producer: NodeId,
        /// Consumer node.
        consumer: NodeId,
        /// Minimum legal gap in cycles.
        required_gap: i64,
        /// Actual gap in cycles.
        actual_gap: i64,
    },
    /// Too many elements scheduled on one PE in one cycle.
    IssueWidthExceeded {
        /// PE coordinates.
        place: (i64, i64),
        /// Cycle.
        time: i64,
        /// Elements scheduled.
        count: u32,
        /// Allowed issue width.
        width: u32,
    },
    /// A tile's peak live footprint exceeds its capacity.
    StorageExceeded {
        /// PE coordinates.
        place: (i64, i64),
        /// Peak live bits.
        peak_bits: u64,
        /// Tile capacity in bits.
        capacity_bits: u64,
    },
}

/// Result of a legality check.
#[derive(Debug, Clone, Serialize)]
pub struct LegalityReport {
    /// Recorded violations (at most `MAX_RECORDED` = 64).
    pub errors: Vec<LegalityError>,
    /// Exact total violation count.
    pub total_violations: u64,
    /// Peak live bits over all tiles (useful even when legal).
    pub peak_tile_bits: u64,
}

impl LegalityReport {
    /// Whether the mapping is legal.
    pub fn is_legal(&self) -> bool {
        self.total_violations == 0
    }
}

/// Per-PE peak live bits. A value lives in its producer's tile from its
/// production cycle until its last consumption; output values live until
/// the makespan (they must survive to be drained).
pub fn tile_peaks(
    graph: &DataflowGraph,
    rm: &ResolvedMapping,
    makespan: i64,
) -> HashMap<(i64, i64), u64> {
    let width = u64::from(graph.width_bits);
    // Last-use time per node.
    let mut last_use: Vec<i64> = rm.time.clone(); // at least its own cycle
    for (n, &t) in graph.nodes.iter().zip(&rm.time) {
        for &d in &n.deps {
            if t > last_use[d as usize] {
                last_use[d as usize] = t;
            }
        }
    }
    for (id, n) in graph.nodes.iter().enumerate() {
        if n.output {
            last_use[id] = makespan;
        }
    }
    // Sweep events per PE.
    let mut events: HashMap<(i64, i64), Vec<(i64, i64)>> = HashMap::new();
    for ((&pe, &t), &last) in rm.place.iter().zip(&rm.time).zip(&last_use) {
        let ev = events.entry(pe).or_default();
        ev.push((t, 1));
        ev.push((last + 1, -1));
    }
    let mut peaks = HashMap::new();
    for (pe, mut ev) in events {
        ev.sort_unstable();
        let mut live: i64 = 0;
        let mut peak: i64 = 0;
        for (_, delta) in ev {
            live += delta;
            peak = peak.max(live);
        }
        peaks.insert(pe, peak as u64 * width);
    }
    peaks
}

/// Number of PEs whose peak live footprint exceeds `capacity_bits` —
/// the storage-violation count [`check`] reports for the same peaks.
/// Exposed so the annealer and the incremental evaluator can agree on
/// storage legality without running the full checker.
pub fn storage_violation_count(peaks: &HashMap<(i64, i64), u64>, capacity_bits: u64) -> u64 {
    peaks.values().filter(|&&p| p > capacity_bits).count() as u64
}

/// Check a resolved mapping for legality on a machine.
pub fn check(
    graph: &DataflowGraph,
    rm: &ResolvedMapping,
    machine: &MachineConfig,
) -> LegalityReport {
    let mut errors = Vec::new();
    let mut total: u64 = 0;
    let record = |e: LegalityError, errors: &mut Vec<LegalityError>, total: &mut u64| {
        *total += 1;
        if errors.len() < MAX_RECORDED {
            errors.push(e);
        }
    };

    // 1. Bounds.
    let mut any_oob = false;
    for id in 0..graph.len() {
        let (x, y) = rm.place[id];
        if !machine.contains(x, y) {
            any_oob = true;
            record(
                LegalityError::PlaceOutOfBounds {
                    node: id as NodeId,
                    place: (x, y),
                },
                &mut errors,
                &mut total,
            );
        }
        if rm.time[id] < 0 {
            record(
                LegalityError::NegativeTime {
                    node: id as NodeId,
                    time: rm.time[id],
                },
                &mut errors,
                &mut total,
            );
        }
    }

    // 2. Causality (only meaningful when places are on-grid).
    if !any_oob {
        for (id, n) in graph.nodes.iter().enumerate() {
            let cons_pe = (rm.place[id].0 as u32, rm.place[id].1 as u32);
            for &d in &n.deps {
                let prod_pe = (rm.place[d as usize].0 as u32, rm.place[d as usize].1 as u32);
                let required = machine.required_gap(prod_pe, cons_pe);
                let actual = rm.time[id] - rm.time[d as usize];
                if actual < required {
                    record(
                        LegalityError::CausalityViolation {
                            producer: d,
                            consumer: id as NodeId,
                            required_gap: required,
                            actual_gap: actual,
                        },
                        &mut errors,
                        &mut total,
                    );
                }
            }
        }
    }

    // 3. Issue width.
    let mut issue: HashMap<((i64, i64), i64), u32> = HashMap::new();
    for id in 0..graph.len() {
        *issue.entry((rm.place[id], rm.time[id])).or_insert(0) += 1;
    }
    for ((pe, t), count) in issue {
        if count > machine.issue_width {
            record(
                LegalityError::IssueWidthExceeded {
                    place: pe,
                    time: t,
                    count,
                    width: machine.issue_width,
                },
                &mut errors,
                &mut total,
            );
        }
    }

    // 4. Storage.
    let peaks = tile_peaks(graph, rm, rm.makespan());
    let mut global_peak = 0u64;
    for (pe, peak) in &peaks {
        global_peak = global_peak.max(*peak);
        if *peak > machine.tile_bits {
            record(
                LegalityError::StorageExceeded {
                    place: *pe,
                    peak_bits: *peak,
                    capacity_bits: machine.tile_bits,
                },
                &mut errors,
                &mut total,
            );
        }
    }

    LegalityReport {
        errors,
        total_violations: total,
        peak_tile_bits: global_peak,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::CExpr;
    use crate::mapping::{Mapping, ResolvedMapping};
    use crate::value::Value;

    /// a → b chain of length 3.
    fn chain3() -> DataflowGraph {
        let mut g = DataflowGraph::new("c3", 32);
        let a = g.add_node(CExpr::konst(Value::real(1.0)), vec![], vec![0]);
        let b = g.add_node(CExpr::dep(0), vec![a], vec![1]);
        let c = g.add_node(CExpr::dep(0), vec![b], vec![2]);
        g.mark_output(c);
        g
    }

    #[test]
    fn serial_mapping_is_legal() {
        let g = chain3();
        let m = MachineConfig::linear(4);
        let rm = Mapping::serial(&g).resolve(&g, &m).unwrap();
        let rep = check(&g, &rm, &m);
        assert!(rep.is_legal(), "{:?}", rep.errors);
    }

    #[test]
    fn simultaneous_dependent_nodes_flagged() {
        let g = chain3();
        let m = MachineConfig::linear(4);
        let rm = ResolvedMapping {
            place: vec![(0, 0), (1, 0), (2, 0)],
            time: vec![0, 0, 0],
        };
        let rep = check(&g, &rm, &m);
        assert!(!rep.is_legal());
        assert!(rep
            .errors
            .iter()
            .any(|e| matches!(e, LegalityError::CausalityViolation { .. })));
    }

    #[test]
    fn wire_delay_needs_more_gap_for_distant_pes() {
        let g = chain3();
        let m = MachineConfig::linear(8);
        // b is 5 hops from a but scheduled only 1 cycle later.
        let rm = ResolvedMapping {
            place: vec![(0, 0), (5, 0), (5, 0)],
            time: vec![0, 1, 2],
        };
        let rep = check(&g, &rm, &m);
        let causality: Vec<_> = rep
            .errors
            .iter()
            .filter(|e| matches!(e, LegalityError::CausalityViolation { .. }))
            .collect();
        assert_eq!(causality.len(), 1);
        if let LegalityError::CausalityViolation {
            required_gap,
            actual_gap,
            ..
        } = causality[0]
        {
            assert_eq!(*required_gap, 5);
            assert_eq!(*actual_gap, 1);
        }
    }

    #[test]
    fn out_of_bounds_place_flagged() {
        let g = chain3();
        let m = MachineConfig::linear(2);
        let rm = ResolvedMapping {
            place: vec![(0, 0), (1, 0), (7, 0)],
            time: vec![0, 1, 2],
        };
        let rep = check(&g, &rm, &m);
        assert!(rep
            .errors
            .iter()
            .any(|e| matches!(e, LegalityError::PlaceOutOfBounds { node: 2, .. })));
    }

    #[test]
    fn negative_time_flagged() {
        let g = chain3();
        let m = MachineConfig::linear(2);
        let rm = ResolvedMapping {
            place: vec![(0, 0), (0, 0), (0, 0)],
            time: vec![-1, 0, 1],
        };
        let rep = check(&g, &rm, &m);
        assert!(rep
            .errors
            .iter()
            .any(|e| matches!(e, LegalityError::NegativeTime { node: 0, time: -1 })));
    }

    #[test]
    fn issue_width_enforced() {
        let mut g = DataflowGraph::new("wide", 32);
        for i in 0..3 {
            g.add_node(CExpr::konst(Value::real(i as f64)), vec![], vec![i]);
        }
        let m = MachineConfig::linear(2); // issue_width = 1
        let rm = ResolvedMapping {
            place: vec![(0, 0); 3],
            time: vec![5; 3],
        };
        let rep = check(&g, &rm, &m);
        assert!(rep.errors.iter().any(|e| matches!(
            e,
            LegalityError::IssueWidthExceeded {
                count: 3,
                width: 1,
                ..
            }
        )));
    }

    #[test]
    fn wider_issue_accepts_parallel_elements() {
        let mut g = DataflowGraph::new("wide", 32);
        for i in 0..3 {
            g.add_node(CExpr::konst(Value::real(i as f64)), vec![], vec![i]);
        }
        let mut m = MachineConfig::linear(2);
        m.issue_width = 4;
        let rm = ResolvedMapping {
            place: vec![(0, 0); 3],
            time: vec![5; 3],
        };
        assert!(check(&g, &rm, &m).is_legal());
    }

    #[test]
    fn storage_bound_enforced() {
        // Many values produced early on one PE, all consumed at the end.
        let mut g = DataflowGraph::new("hoard", 32);
        let n = 10usize;
        let mut ids = Vec::new();
        for i in 0..n {
            ids.push(g.add_node(CExpr::konst(Value::real(i as f64)), vec![], vec![i as i64]));
        }
        // A final consumer of all of them (fold).
        let mut acc = ids[0];
        for &id in &ids[1..] {
            acc = g.add_node(CExpr::dep(0).add(CExpr::dep(1)), vec![acc, id], vec![99]);
        }
        let mut m = MachineConfig::linear(1);
        m.issue_width = 1;
        m.tile_bits = 3 * 32; // room for only 3 live values
        let rm = Mapping::serial(&g).resolve(&g, &m).unwrap();
        let rep = check(&g, &rm, &m);
        assert!(rep
            .errors
            .iter()
            .any(|e| matches!(e, LegalityError::StorageExceeded { .. })));
        assert!(rep.peak_tile_bits > m.tile_bits);
    }

    #[test]
    fn peak_tile_bits_reported_when_legal() {
        let g = chain3();
        let m = MachineConfig::linear(4);
        let rm = Mapping::serial(&g).resolve(&g, &m).unwrap();
        let rep = check(&g, &rm, &m);
        assert!(rep.is_legal());
        // Output node lives to makespan; chain keeps ≤2 values live.
        assert!(rep.peak_tile_bits >= 32);
        assert!(rep.peak_tile_bits <= 64);
    }

    #[test]
    fn violation_counts_exact_beyond_cap() {
        // 100 dependent pairs all scheduled simultaneously → 100
        // causality violations, more than the recording cap.
        let mut g = DataflowGraph::new("big", 32);
        let mut deps = Vec::new();
        for i in 0..101 {
            let id = if i == 0 {
                g.add_node(CExpr::konst(Value::ZERO), vec![], vec![i])
            } else {
                g.add_node(CExpr::dep(0), vec![deps[i as usize - 1]], vec![i])
            };
            deps.push(id);
        }
        let mut m = MachineConfig::linear(1);
        m.issue_width = 200;
        let rm = ResolvedMapping {
            place: vec![(0, 0); 101],
            time: vec![0; 101],
        };
        let rep = check(&g, &rm, &m);
        assert_eq!(rep.total_violations, 100);
        assert_eq!(rep.errors.len(), 64);
    }
}
