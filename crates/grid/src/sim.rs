//! The cycle-driven simulation engine.
//!
//! [`Simulator::run`] executes a mapped dataflow graph on the grid:
//!
//! * Each PE issues its elements **in scheduled order**, up to its issue
//!   width per cycle, as soon as (a) the element's scheduled cycle has
//!   arrived and (b) every operand is physically present in the PE.
//! * A produced value is usable at its own PE on the next cycle. For
//!   each remote consumer a message is injected that crosses its first
//!   link in the producing cycle (the systolic clock covers compute +
//!   one hop) and one link per cycle after that, X-Y routed.
//! * Links are wormhole-occupied: a message of `W` bits holds each link
//!   for `⌈W / link_width⌉` cycles; contending messages queue, and the
//!   delay propagates to consumers as *stall cycles* — the gap between
//!   the mapping's promised makespan and physical reality.
//! * Every op, tile access, message, and DRAM fetch is charged with the
//!   same formulas as `fm-core`'s analytic evaluator, so for a legal
//!   mapping total energy matches the prediction exactly.
//!
//! Input tensors are pre-distributed during a load phase before cycle 0
//! (per their [`InputPlacement`]); their movement is charged but not
//! NoC-simulated, matching the evaluator's accounting.

use std::collections::{BTreeMap, HashMap};

use serde::Serialize;

use fm_core::dataflow::{DataflowGraph, NodeId};
use fm_core::legality;
use fm_core::machine::MachineConfig;
use fm_core::mapping::{InputPlacement, ResolvedMapping};
use fm_core::value::Value;

use fm_costmodel::EnergyLedger;

use crate::router::{xy_path, Link};

/// Simulator knobs.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct SimConfig {
    /// Model link contention (wormhole occupancy). With `false`, links
    /// have infinite bandwidth and a legal mapping runs exactly on
    /// schedule.
    pub contention: bool,
    /// Charge one off-chip transfer per output element at the end.
    pub writeback_outputs: bool,
    /// Hang guard: abort after `makespan × factor + 1024` cycles.
    pub max_cycles_factor: u32,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            contention: true,
            writeback_outputs: false,
            max_cycles_factor: 64,
        }
    }
}

/// Simulation failure.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum SimError {
    /// The mapping failed the static legality check (`violations` is
    /// the exact count); the simulator only executes legal mappings.
    MappingIllegal {
        /// Total violations found.
        violations: u64,
    },
    /// The run exceeded the hang guard (indicates a simulator bug or an
    /// absurd contention factor).
    Hung {
        /// Cycle at which the guard fired.
        at_cycle: i64,
        /// Elements executed so far.
        executed: usize,
        /// Total elements.
        total: usize,
    },
    /// Wrong number of input tensors supplied.
    InputArity {
        /// Expected (from the graph).
        expected: usize,
        /// Supplied.
        got: usize,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::MappingIllegal { violations } => {
                write!(f, "mapping is illegal ({violations} violations)")
            }
            SimError::Hung {
                at_cycle,
                executed,
                total,
            } => write!(
                f,
                "simulation hung at cycle {at_cycle} ({executed}/{total} executed)"
            ),
            SimError::InputArity { expected, got } => {
                write!(f, "expected {expected} input tensors, got {got}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// The outcome of a simulation.
#[derive(Debug, Clone, Serialize)]
pub struct SimResult {
    /// Every node's computed value.
    pub values: Vec<Value>,
    /// The mapping's promised makespan.
    pub cycles_scheduled: i64,
    /// Cycles actually taken (≥ scheduled; equal when no contention).
    pub cycles_actual: i64,
    /// Elements that executed later than scheduled.
    pub stalled_elements: u64,
    /// Total cycles of lateness across all elements.
    pub total_stall_cycles: u64,
    /// Energy/traffic, charged with the evaluator's formulas.
    pub ledger: EnergyLedger,
    /// Messages delivered over the NoC.
    pub messages_delivered: u64,
    /// Per-PE busy cycles (elements executed), keyed by coordinates.
    pub pe_busy: Vec<((u32, u32), u64)>,
    /// Per-link traversal counts for links that carried traffic,
    /// sorted by descending count (the NoC heat map).
    pub link_traversals: Vec<(Link, u64)>,
    /// Total cycles messages spent blocked on busy links.
    pub link_wait_cycles: u64,
}

impl SimResult {
    /// Ratio of actual to scheduled cycles (1.0 = the model's promise
    /// held exactly).
    pub fn slowdown(&self) -> f64 {
        self.cycles_actual as f64 / self.cycles_scheduled.max(1) as f64
    }

    /// The busiest link and its traversal count, if any traffic flowed.
    pub fn hottest_link(&self) -> Option<(Link, u64)> {
        self.link_traversals.first().copied()
    }

    /// Mean PE occupancy: busy cycles / (PEs used × actual cycles).
    pub fn mean_pe_occupancy(&self) -> f64 {
        if self.pe_busy.is_empty() || self.cycles_actual == 0 {
            return 0.0;
        }
        let busy: u64 = self.pe_busy.iter().map(|&(_, b)| b).sum();
        busy as f64 / (self.pe_busy.len() as f64 * self.cycles_actual as f64)
    }
}

/// A message in flight.
struct Msg {
    node: NodeId,
    dest: (u32, u32),
    path: Vec<Link>,
    hop: usize,
    /// Earliest cycle at which the next hop may be attempted.
    ready_at: i64,
}

/// The grid simulator.
#[derive(Debug, Clone)]
pub struct Simulator {
    /// Machine being simulated.
    pub machine: MachineConfig,
    /// Knobs.
    pub config: SimConfig,
}

impl Simulator {
    /// A simulator with default config.
    pub fn new(machine: MachineConfig) -> Self {
        Simulator {
            machine,
            config: SimConfig::default(),
        }
    }

    /// Set the config.
    pub fn with_config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Execute `graph` under `rm`, with `inputs` bound and placed per
    /// `placements` (one per input tensor; defaults to DRAM if the
    /// slice is shorter).
    pub fn run(
        &self,
        graph: &DataflowGraph,
        rm: &ResolvedMapping,
        inputs: &[Vec<Value>],
        placements: &[InputPlacement],
    ) -> Result<SimResult, SimError> {
        if inputs.len() != graph.inputs.len() {
            return Err(SimError::InputArity {
                expected: graph.inputs.len(),
                got: inputs.len(),
            });
        }
        let legal = legality::check(graph, rm, &self.machine);
        if !legal.is_legal() {
            return Err(SimError::MappingIllegal {
                violations: legal.total_violations,
            });
        }

        let m = &self.machine;
        let width = u64::from(graph.width_bits);
        let flits = (graph.width_bits as u64).div_ceil(u64::from(m.link_width_bits)) as i64;
        let flits = flits.max(1);
        let consumers = graph.consumers();

        let mut ledger = EnergyLedger::new();
        let mut dram_seen: std::collections::HashSet<(u32, u32)> = Default::default();

        // Per-PE issue queues, sorted by (scheduled time, id). Phase 2
        // visits the PEs in coordinate order: which PE's message claims
        // a contended link first, and the order energy is summed in,
        // must not depend on a hash seed.
        let mut queues: BTreeMap<(u32, u32), Vec<NodeId>> = BTreeMap::new();
        for id in 0..graph.len() {
            let (x, y) = rm.place[id];
            queues
                .entry((x as u32, y as u32))
                .or_default()
                .push(id as NodeId);
        }
        for q in queues.values_mut() {
            q.sort_by_key(|&id| (rm.time[id as usize], id));
        }
        let mut q_pos: HashMap<(u32, u32), usize> = queues.keys().map(|&pe| (pe, 0usize)).collect();

        // Value availability per (node, PE).
        let mut avail: HashMap<(NodeId, (u32, u32)), i64> = HashMap::new();
        let mut values: Vec<Option<Value>> = vec![None; graph.len()];

        let mut in_flight: Vec<Msg> = Vec::new();
        let mut link_busy: HashMap<Link, i64> = HashMap::new();

        let mut executed = 0usize;
        let mut stalled_elements = 0u64;
        let mut total_stall_cycles = 0u64;
        let mut messages_delivered = 0u64;
        let mut last_exec_cycle: i64 = -1;
        let mut pe_busy: HashMap<(u32, u32), u64> = HashMap::new();
        let mut link_traversals: HashMap<Link, u64> = HashMap::new();
        let mut link_wait_cycles: u64 = 0;

        let scheduled = rm.makespan();
        let guard = scheduled
            .saturating_mul(i64::from(self.config.max_cycles_factor))
            .saturating_add(1024);

        let mut t: i64 = 0;
        while executed < graph.len() || !in_flight.is_empty() {
            if t > guard {
                return Err(SimError::Hung {
                    at_cycle: t,
                    executed,
                    total: graph.len(),
                });
            }

            // Phase 1: advance in-flight messages one hop if their link
            // is free (or unconditionally without contention).
            let mut still: Vec<Msg> = Vec::with_capacity(in_flight.len());
            for mut msg in in_flight.drain(..) {
                if msg.ready_at <= t {
                    let link = msg.path[msg.hop];
                    let busy = link_busy.get(&link).copied().unwrap_or(i64::MIN);
                    if !self.config.contention || busy <= t {
                        if self.config.contention {
                            link_busy.insert(link, t + flits);
                        }
                        *link_traversals.entry(link).or_insert(0) += 1;
                        msg.hop += 1;
                        msg.ready_at = t + 1;
                        if msg.hop == msg.path.len() {
                            avail.insert((msg.node, msg.dest), t + 1);
                            messages_delivered += 1;
                            continue;
                        }
                    } else {
                        link_wait_cycles += 1;
                    }
                }
                still.push(msg);
            }
            in_flight = still;

            // Phase 2: issue elements.
            for (&pe, queue) in &queues {
                let pos = q_pos.get_mut(&pe).unwrap();
                let mut issued = 0u32;
                while *pos < queue.len() && issued < m.issue_width {
                    let id = queue[*pos];
                    let node = &graph.nodes[id as usize];
                    if rm.time[id as usize] > t {
                        break;
                    }
                    // Operand availability at this PE.
                    let ready = node
                        .deps
                        .iter()
                        .all(|&d| avail.get(&(d, pe)).is_some_and(|&a| a <= t));
                    if !ready {
                        break; // in-order issue: wait for the head
                    }

                    // Execute: compute the value.
                    let dep_vals: Vec<Value> = node
                        .deps
                        .iter()
                        .map(|&d| values[d as usize].expect("dep executed"))
                        .collect();
                    let mut input_at =
                        |input: u32, flat: u32| inputs[input as usize][flat as usize];
                    values[id as usize] = Some(node.expr.eval(&dep_vals, &mut input_at));

                    // Charge compute + tile write + operand tile reads.
                    for op in node.expr.op_kinds(graph.width_bits) {
                        ledger.charge_compute(m.tech.op_energy(op));
                    }
                    ledger.charge_compute(m.tile_access_energy(width));
                    for _ in &node.deps {
                        ledger.charge_compute(m.tile_access_energy(width));
                    }

                    // Charge input reads per placement.
                    for (input, flat) in node.expr.input_reads() {
                        let placement = placements
                            .get(input as usize)
                            .unwrap_or(&InputPlacement::Dram);
                        match placement {
                            InputPlacement::Dram => {
                                if dram_seen.insert((input, flat)) {
                                    ledger.charge_offchip(width, m.tech.offchip_energy(width));
                                }
                            }
                            InputPlacement::Local(pexpr) => {
                                let spec = &graph.inputs[input as usize];
                                let idx = unflatten(&spec.dims, flat);
                                let home = pexpr.eval(&idx, m.cols);
                                let home_pe = (home.0 as u32, home.1 as u32);
                                if home_pe == pe {
                                    ledger.charge_compute(m.tile_access_energy(width));
                                } else {
                                    let e = m.route_energy(width, home_pe, pe);
                                    ledger.charge_onchip(width, m.distance_mm(home_pe, pe), e);
                                }
                            }
                            InputPlacement::AtUse => {
                                ledger.charge_compute(m.tile_access_energy(width));
                            }
                        }
                    }

                    // Stall accounting.
                    let lateness = t - rm.time[id as usize];
                    if lateness > 0 {
                        stalled_elements += 1;
                        total_stall_cycles += lateness as u64;
                    }
                    last_exec_cycle = last_exec_cycle.max(t);
                    executed += 1;
                    *pe_busy.entry(pe).or_insert(0) += 1;

                    // Local availability next cycle.
                    avail.insert((id, pe), t + 1);

                    // One message per distinct remote consumer PE (a
                    // value moves to a tile once; consumers there read
                    // it locally — matching the evaluator).
                    let mut dest_pes: Vec<(u32, u32)> = consumers[id as usize]
                        .iter()
                        .map(|&c| {
                            let (cx, cy) = rm.place[c as usize];
                            (cx as u32, cy as u32)
                        })
                        .filter(|&cpe| cpe != pe)
                        .collect();
                    dest_pes.sort_unstable();
                    dest_pes.dedup();
                    for cpe in dest_pes {
                        let e = m.route_energy(width, pe, cpe);
                        ledger.charge_onchip(width, m.distance_mm(pe, cpe), e);
                        let path = xy_path(pe, cpe);
                        // First hop happens in the producing cycle
                        // (systolic clock): attempt immediately.
                        let mut msg = Msg {
                            node: id,
                            dest: cpe,
                            path,
                            hop: 0,
                            ready_at: t,
                        };
                        let link = msg.path[0];
                        let busy = link_busy.get(&link).copied().unwrap_or(i64::MIN);
                        if !self.config.contention || busy <= t {
                            if self.config.contention {
                                link_busy.insert(link, t + flits);
                            }
                            *link_traversals.entry(link).or_insert(0) += 1;
                            msg.hop = 1;
                            msg.ready_at = t + 1;
                            if msg.hop == msg.path.len() {
                                avail.insert((id, cpe), t + 1);
                                messages_delivered += 1;
                                continue;
                            }
                        } else {
                            msg.ready_at = t + 1;
                        }
                        in_flight.push(msg);
                    }

                    *pos += 1;
                    issued += 1;
                }
            }

            t += 1;
        }

        if self.config.writeback_outputs {
            for _ in graph.outputs() {
                ledger.charge_offchip(width, m.tech.offchip_energy(width));
            }
        }

        let mut pe_busy: Vec<((u32, u32), u64)> = pe_busy.into_iter().collect();
        pe_busy.sort_unstable();
        let mut link_traversals: Vec<(Link, u64)> = link_traversals.into_iter().collect();
        link_traversals.sort_by(|a, b| {
            b.1.cmp(&a.1)
                .then_with(|| (a.0.from, a.0.to).cmp(&(b.0.from, b.0.to)))
        });

        Ok(SimResult {
            values: values
                .into_iter()
                .map(|v| v.expect("all executed"))
                .collect(),
            cycles_scheduled: scheduled,
            cycles_actual: last_exec_cycle + 1,
            stalled_elements,
            total_stall_cycles,
            ledger,
            messages_delivered,
            pe_busy,
            link_traversals,
            link_wait_cycles,
        })
    }
}

fn unflatten(dims: &[usize], flat: u32) -> Vec<i64> {
    let mut idx = vec![0i64; dims.len()];
    let mut rem = flat as usize;
    for (k, &d) in dims.iter().enumerate().rev() {
        idx[k] = (rem % d) as i64;
        rem /= d;
    }
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use fm_core::cost::Evaluator;
    use fm_core::dataflow::CExpr;
    use fm_core::mapping::Mapping;

    fn linear_chain(n: usize) -> DataflowGraph {
        let mut g = DataflowGraph::new("chain", 32);
        let mut prev: Option<u32> = None;
        for i in 0..n {
            let id = match prev {
                None => g.add_node(CExpr::konst(Value::real(1.0)), vec![], vec![i as i64]),
                Some(p) => g.add_node(
                    CExpr::dep(0).add(CExpr::konst(Value::real(1.0))),
                    vec![p],
                    vec![i as i64],
                ),
            };
            prev = Some(id);
        }
        g.mark_output(prev.unwrap());
        g
    }

    #[test]
    fn functional_values_match_reference() {
        let g = linear_chain(10);
        let m = MachineConfig::linear(4);
        let rm = Mapping::serial(&g).resolve(&g, &m).unwrap();
        let sim = Simulator::new(m);
        let res = sim.run(&g, &rm, &[], &[]).unwrap();
        let reference = g.eval(&[]);
        for (a, b) in res.values.iter().zip(&reference) {
            assert!(a.approx_eq(*b, 1e-12));
        }
        assert_eq!(res.values[9].re, 10.0);
    }

    #[test]
    fn legal_uncontended_mapping_runs_on_schedule() {
        let g = linear_chain(16);
        let m = MachineConfig::linear(4);
        // Systolic blocks: element i at PE i/4, time i (gap 1, hops ≤ 1).
        let rm = ResolvedMapping {
            place: (0..16).map(|i| (i / 4, 0)).collect(),
            time: (0..16).collect(),
        };
        let sim = Simulator::new(m);
        let res = sim.run(&g, &rm, &[], &[]).unwrap();
        assert_eq!(res.cycles_actual, res.cycles_scheduled);
        assert_eq!(res.stalled_elements, 0);
        assert!((res.slowdown() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn energy_matches_analytic_evaluator_exactly() {
        let g = linear_chain(16);
        let m = MachineConfig::linear(4);
        let rm = ResolvedMapping {
            place: (0..16).map(|i| (i / 4, 0)).collect(),
            time: (0..16).collect(),
        };
        let predicted = Evaluator::new(&g, &m).evaluate(&rm);
        let sim = Simulator::new(m);
        let res = sim.run(&g, &rm, &[], &[]).unwrap();
        let p = predicted.ledger.energy.total().raw();
        let s = res.ledger.energy.total().raw();
        assert!((p - s).abs() < 1e-6, "predicted {p} vs simulated {s}");
        assert_eq!(predicted.ledger.onchip_messages, res.ledger.onchip_messages);
        assert_eq!(
            predicted.ledger.offchip_transfers,
            res.ledger.offchip_transfers
        );
    }

    #[test]
    fn illegal_mapping_rejected() {
        let g = linear_chain(4);
        let m = MachineConfig::linear(4);
        let rm = ResolvedMapping {
            place: vec![(0, 0); 4],
            time: vec![0; 4], // dependent nodes simultaneous
        };
        let sim = Simulator::new(m);
        assert!(matches!(
            sim.run(&g, &rm, &[], &[]),
            Err(SimError::MappingIllegal { .. })
        ));
    }

    #[test]
    fn input_arity_checked() {
        let mut g = DataflowGraph::new("in", 32);
        let x = g.add_input("X", vec![2]);
        g.add_node(CExpr::input(x, 0), vec![], vec![0]);
        let m = MachineConfig::linear(2);
        let rm = Mapping::serial(&g).resolve(&g, &m).unwrap();
        let sim = Simulator::new(m);
        assert!(matches!(
            sim.run(&g, &rm, &[], &[]),
            Err(SimError::InputArity {
                expected: 1,
                got: 0
            })
        ));
    }

    #[test]
    fn contention_stalls_but_preserves_values() {
        // Two messages forced through the same link with multi-flit
        // occupancy: B's consumer must stall, values stay correct.
        let mut g = DataflowGraph::new("contend", 64);
        let a = g.add_node(CExpr::konst(Value::real(3.0)), vec![], vec![0]);
        let b = g.add_node(CExpr::konst(Value::real(4.0)), vec![], vec![1]);
        let ca = g.add_node(CExpr::dep(0), vec![a], vec![2]);
        let cb = g.add_node(CExpr::dep(0), vec![b], vec![3]);
        g.mark_output(ca);
        g.mark_output(cb);
        let mut m = MachineConfig::linear(3);
        m.link_width_bits = 16; // 64-bit values → 4 flits per link
                                // a at (0,0) t0, b at (0,0) t1 (same source PE), consumers at
                                // (2,0) scheduled at the causality minimum.
        let rm = ResolvedMapping {
            place: vec![(0, 0), (0, 0), (2, 0), (2, 0)],
            time: vec![0, 1, 2, 3],
        };
        let sim = Simulator::new(m.clone());
        let res = sim.run(&g, &rm, &[], &[]).unwrap();
        assert!(res.cycles_actual > res.cycles_scheduled, "{res:?}");
        assert!(res.stalled_elements >= 1);
        assert_eq!(res.values[2].re, 3.0);
        assert_eq!(res.values[3].re, 4.0);

        // Without contention the same mapping runs on schedule.
        let sim2 = Simulator::new(m).with_config(SimConfig {
            contention: false,
            ..SimConfig::default()
        });
        let res2 = sim2.run(&g, &rm, &[], &[]).unwrap();
        assert_eq!(res2.cycles_actual, res2.cycles_scheduled);
    }

    #[test]
    fn dram_inputs_charged_once() {
        let mut g = DataflowGraph::new("in", 32);
        let x = g.add_input("X", vec![2]);
        let n0 = g.add_node(CExpr::input(x, 0).add(CExpr::input(x, 0)), vec![], vec![0]);
        let _ = n0;
        g.add_node(CExpr::input(x, 1), vec![], vec![1]);
        let m = MachineConfig::linear(2);
        let rm = Mapping::serial(&g).resolve(&g, &m).unwrap();
        let sim = Simulator::new(m);
        let res = sim
            .run(
                &g,
                &rm,
                &[vec![Value::real(1.0), Value::real(2.0)]],
                &[InputPlacement::Dram],
            )
            .unwrap();
        assert_eq!(res.ledger.offchip_transfers, 2);
    }

    #[test]
    fn writeback_charges_outputs() {
        let g = linear_chain(4);
        let m = MachineConfig::linear(2);
        let rm = Mapping::serial(&g).resolve(&g, &m).unwrap();
        let sim = Simulator::new(m).with_config(SimConfig {
            writeback_outputs: true,
            ..SimConfig::default()
        });
        let res = sim.run(&g, &rm, &[], &[]).unwrap();
        assert_eq!(res.ledger.offchip_transfers, 1);
    }

    #[test]
    fn pe_and_link_stats_reported() {
        let g = linear_chain(16);
        let m = MachineConfig::linear(4);
        let rm = ResolvedMapping {
            place: (0..16).map(|i| (i / 4, 0)).collect(),
            time: (0..16).collect(),
        };
        let sim = Simulator::new(m);
        let res = sim.run(&g, &rm, &[], &[]).unwrap();
        // 4 PEs each executed 4 elements.
        assert_eq!(res.pe_busy.len(), 4);
        assert!(res.pe_busy.iter().all(|&(_, b)| b == 4));
        // 3 block-boundary messages, each over one distinct link.
        assert_eq!(res.link_traversals.len(), 3);
        assert!(res.link_traversals.iter().all(|&(_, c)| c == 1));
        assert_eq!(res.link_wait_cycles, 0);
        assert!(res.hottest_link().is_some());
        // Mean occupancy = 16 busy / (4 PEs × 16 cycles).
        assert!((res.mean_pe_occupancy() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn contention_registers_link_waits() {
        let mut g = DataflowGraph::new("contend", 64);
        let a = g.add_node(CExpr::konst(Value::real(3.0)), vec![], vec![0]);
        let b = g.add_node(CExpr::konst(Value::real(4.0)), vec![], vec![1]);
        let ca = g.add_node(CExpr::dep(0), vec![a], vec![2]);
        let cb = g.add_node(CExpr::dep(0), vec![b], vec![3]);
        g.mark_output(ca);
        g.mark_output(cb);
        let mut m = MachineConfig::linear(3);
        m.link_width_bits = 16;
        let rm = ResolvedMapping {
            place: vec![(0, 0), (0, 0), (2, 0), (2, 0)],
            time: vec![0, 1, 2, 3],
        };
        let res = Simulator::new(m).run(&g, &rm, &[], &[]).unwrap();
        assert!(res.link_wait_cycles > 0);
        let hottest = res.hottest_link().unwrap();
        assert_eq!(hottest.1, 2); // both messages crossed the first link
    }

    #[test]
    fn multi_hop_delivery_time() {
        // Producer at (0,0) t=0; consumer at (3,0) must wait 3 hops.
        let mut g = DataflowGraph::new("hop", 32);
        let a = g.add_node(CExpr::konst(Value::real(1.0)), vec![], vec![0]);
        let b = g.add_node(CExpr::dep(0), vec![a], vec![1]);
        g.mark_output(b);
        let m = MachineConfig::linear(4);
        let rm = ResolvedMapping {
            place: vec![(0, 0), (3, 0)],
            time: vec![0, 3],
        };
        let sim = Simulator::new(m);
        let res = sim.run(&g, &rm, &[], &[]).unwrap();
        assert_eq!(res.cycles_actual, 4);
        assert_eq!(res.stalled_elements, 0);
        assert_eq!(res.messages_delivered, 1);
    }
}
