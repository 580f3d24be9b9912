//! Analytic cost evaluation of a mapped function.
//!
//! "This model makes it possible to write algorithms (function +
//! mapping) with predictable execution time and energy because
//! communication — the major source of delay and energy consumption —
//! is made explicit."
//!
//! The [`Evaluator`] walks a dataflow graph under a resolved mapping and
//! charges, against an [`EnergyLedger`]:
//!
//! * **compute** — each expression op at the technology's op energy,
//!   plus one tile write for the produced value;
//! * **on-chip communication** — one message per distinct
//!   (producer, remote consumer PE) pair, at `bits × Manhattan-mm ×
//!   wire energy`; every operand read (local or delivered) is a tile
//!   access. A value consumed twice on one remote PE moves once — the
//!   mapping's job is to place consumers so values need not move at
//!   all;
//! * **input movement** — per [`InputPlacement`]: DRAM fetches (each
//!   distinct element once), on-chip distribution from a home PE, or
//!   nothing for the idealized `AtUse`;
//! * **output writeback** — optionally, one off-chip transfer per output
//!   element.
//!
//! Execution time is simply the mapping's makespan times the clock
//! period — legal mappings have already accounted for transit. The grid
//! simulator (`fm-grid`) executes the same program and must agree with
//! this evaluator on energy exactly and on time up to NoC contention;
//! integration tests assert both.
//!
//! [`Evaluator::evaluate`] charges through the flat engine
//! ([`crate::flat::EvalContext`] holds the one node charge production
//! code runs, and the incremental engines in [`crate::delta`] share
//! it). [`Evaluator::evaluate_ref`] states the same rules directly and
//! is kept as the oracle the engines are tested against; every engine
//! sums through the fixed-shape [`CostTree`], whose shape is the bit
//! contract.

use std::collections::HashSet;

use serde::{Deserialize, Serialize};

use fm_costmodel::{
    CostBackend, CostModelKind, EnergyLedger, Femtojoules, MachineCeilings, MappingTotals, OpKind,
    Picoseconds, RooflinePoint,
};

use crate::dataflow::{DataflowGraph, InputSpec, NodeId};
use crate::legality::tile_peaks;
use crate::machine::MachineConfig;
use crate::mapping::{InputPlacement, ResolvedMapping};
use crate::search::FigureOfMerit;

/// One node's contribution to the energy ledger: everything the
/// evaluator charges that is attributable to a single node — its
/// compute ops, its result tile write, its operand/input reads, and the
/// def→use messages it *produces*. Placement-dependent but
/// time-independent, which is what makes incremental re-costing after a
/// placement move possible (see [`crate::delta::DeltaEvaluator`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NodeCost {
    /// Compute (ALU + local SRAM) femtojoules.
    pub compute_fj: f64,
    /// Compute ops charged.
    pub compute_ops: u64,
    /// On-chip communication femtojoules.
    pub onchip_fj: f64,
    /// On-chip messages charged. Every message carries one value, so
    /// the bits moved are `width × onchip_messages`.
    pub onchip_messages: u64,
    /// On-chip bit-millimeters moved.
    pub onchip_bit_mm: f64,
}

/// A fixed-shape pairwise-reduction tree over per-node costs, stored
/// as a structure of arrays.
///
/// Floating-point addition is not associative, so the *shape* of the
/// summation decides the bits of the total. Both the full evaluator and
/// the incremental one sum leaves through this tree (power-of-two
/// padded with zeros; `0.0 + x == x` exactly for the non-negative
/// energies charged here), so a leaf update followed by an `O(log n)`
/// path refresh reproduces the full sum bit-for-bit.
///
/// Only the three `f64` fields need that shape. An integer sum does
/// not depend on order, so the two counts are kept as one `u32` pair
/// per leaf plus running `u64` totals. The `f64` fields combine
/// independently (field-wise adds), so the layout is one array per
/// field rather than an array of structs: a full rebuild
/// ([`CostTree::refresh`]) streams three contiguous arrays, and the
/// tree can be reset in place with zero allocation once it has grown to
/// a graph's size. At a power-of-two leaf count that is 56 bytes per
/// leaf: 48 for the three trees, 8 for the counts.
///
/// Any power-of-two capacity at or above the leaf count yields the same
/// total bits (the extra zero subtrees add `0.0`), so leaves can be
/// appended (`CostTree::push`) and removed (`CostTree::remove`) in
/// place, re-folding only the paths above the slots that changed.
#[derive(Debug, Clone, Default)]
pub struct CostTree {
    cap: usize,
    compute_fj: Vec<f64>,
    onchip_fj: Vec<f64>,
    onchip_bit_mm: Vec<f64>,
    /// Per leaf: (compute ops, on-chip messages).
    counts: Vec<(u32, u32)>,
    compute_ops: u64,
    onchip_messages: u64,
}

/// Apply one generic array operation to each of a tree's three `f64`
/// field arrays.
macro_rules! each_field {
    ($tree:expr, $op:ident $(, $arg:expr)*) => {{
        $op(&mut $tree.compute_fj $(, $arg)*);
        $op(&mut $tree.onchip_fj $(, $arg)*);
        $op(&mut $tree.onchip_bit_mm $(, $arg)*);
    }};
}

/// Zero `a` at length `n`.
fn zeroed(a: &mut Vec<f64>, n: usize) {
    a.clear();
    a.resize(n, 0.0);
}

/// Combine children into parents over internal slots `lo..=hi`.
fn fold(a: &mut [f64], lo: usize, hi: usize) {
    for j in lo..=hi {
        a[j] = a[2 * j] + a[2 * j + 1];
    }
}

/// Move `len` leaves from capacity `old` to capacity `cap` (the new
/// bottom level); internal slots are left for a refold.
fn relayout(a: &mut Vec<f64>, old: usize, cap: usize, len: usize) {
    a.resize(2 * cap, 0.0);
    a.copy_within(old..old + len, cap);
}

/// Shift leaf slots `from + 1..end` down by one and zero slot `end - 1`.
fn shift_down(a: &mut [f64], from: usize, end: usize) {
    a.copy_within(from + 1..end, from);
    a[end - 1] = 0.0;
}

/// A node's two counts as stored per leaf.
fn counts_of(v: &NodeCost) -> (u32, u32) {
    let narrow = |x: u64| u32::try_from(x).expect("a node's op and message counts fit in u32");
    (narrow(v.compute_ops), narrow(v.onchip_messages))
}

impl CostTree {
    /// An empty tree (all-zero total); grows on first [`Self::reset`].
    pub fn new() -> CostTree {
        CostTree::default()
    }

    /// Build from leaves (empty input yields an all-zero total).
    pub fn build(leaves: &[NodeCost]) -> CostTree {
        let mut t = CostTree::default();
        t.reset(leaves.len());
        for (i, &v) in leaves.iter().enumerate() {
            t.set_leaf(i, v);
        }
        t.refresh();
        t
    }

    /// Re-shape for `len` leaves, zeroing every slot. Allocates only
    /// when the tree grows past any previous capacity, so a scratch
    /// tree reused across evaluations is allocation-free in steady
    /// state.
    pub fn reset(&mut self, len: usize) {
        self.cap = len.next_power_of_two().max(1);
        each_field!(self, zeroed, 2 * self.cap);
        self.counts.clear();
        self.counts.resize(len, (0, 0));
        self.compute_ops = 0;
        self.onchip_messages = 0;
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether the tree holds no leaves.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Write leaf `i` without refreshing internal nodes (pair with
    /// [`Self::refresh`] after a bulk fill). The count totals follow
    /// at once.
    pub fn set_leaf(&mut self, i: usize, v: NodeCost) {
        let j = self.cap + i;
        self.compute_fj[j] = v.compute_fj;
        self.onchip_fj[j] = v.onchip_fj;
        self.onchip_bit_mm[j] = v.onchip_bit_mm;
        let (ops, msgs) = std::mem::replace(&mut self.counts[i], counts_of(&v));
        self.compute_ops = self.compute_ops + v.compute_ops - u64::from(ops);
        self.onchip_messages = self.onchip_messages + v.onchip_messages - u64::from(msgs);
    }

    /// Recompute every internal node bottom-up. Same combine shape as
    /// every path re-fold, so the total is bit-identical either way.
    pub fn refresh(&mut self) {
        if self.cap > 1 {
            self.refold(0, self.cap - 1);
        }
    }

    /// Replace leaf `i` and refresh its root path.
    pub fn update(&mut self, i: usize, v: NodeCost) {
        self.set_leaf(i, v);
        self.refold(i, i);
    }

    /// Append a leaf. A full tree first doubles its capacity in place
    /// (amortized O(1) per push); otherwise only the new leaf's root
    /// path is re-folded.
    pub(crate) fn push(&mut self, v: NodeCost) {
        let len = self.len();
        if len == self.cap {
            let old = self.cap;
            self.cap = (2 * old).max(1);
            each_field!(self, relayout, old, self.cap, len);
            self.refresh();
        }
        self.counts.push((0, 0));
        self.update(len, v);
    }

    /// Remove leaf `i`, shifting the leaves above it down one slot, and
    /// re-fold the paths above the shifted slots: O(log n) for the last
    /// leaf, O(n − i) in general.
    pub(crate) fn remove(&mut self, i: usize) {
        let (cap, len) = (self.cap, self.len());
        each_field!(self, shift_down, cap + i, cap + len);
        let (ops, msgs) = self.counts.remove(i);
        self.compute_ops -= u64::from(ops);
        self.onchip_messages -= u64::from(msgs);
        self.refold(i, len - 1);
    }

    /// Re-fold every internal node above leaf slots `lo..=hi`, level by
    /// level.
    fn refold(&mut self, lo: usize, hi: usize) {
        let (mut lo, mut hi) = (self.cap + lo, self.cap + hi);
        while lo > 1 {
            lo /= 2;
            hi /= 2;
            each_field!(self, fold, lo, hi);
        }
    }

    /// Current value of leaf `i`.
    pub fn leaf(&self, i: usize) -> NodeCost {
        let j = self.cap + i;
        let (ops, msgs) = self.counts[i];
        NodeCost {
            compute_fj: self.compute_fj[j],
            compute_ops: u64::from(ops),
            onchip_fj: self.onchip_fj[j],
            onchip_messages: u64::from(msgs),
            onchip_bit_mm: self.onchip_bit_mm[j],
        }
    }

    /// The tree-shaped sum of all leaves.
    pub fn total(&self) -> NodeCost {
        NodeCost {
            compute_fj: self.compute_fj[1],
            compute_ops: self.compute_ops,
            onchip_fj: self.onchip_fj[1],
            onchip_messages: self.onchip_messages,
            onchip_bit_mm: self.onchip_bit_mm[1],
        }
    }
}

/// Placement-independent off-chip totals: DRAM input fetches (each
/// distinct element once) and optional output writeback. A pure
/// function of the graph and the evaluator's input placements, so the
/// incremental evaluator computes them once and reuses them.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OffchipTotals {
    /// Off-chip femtojoules.
    pub fj: f64,
    /// Off-chip transfers.
    pub transfers: u64,
    /// Off-chip bits moved.
    pub bits: u64,
}

/// Unflatten a row-major flat index against a tensor's dims.
pub(crate) fn unflatten(spec: &InputSpec, flat: u32) -> Vec<i64> {
    let mut idx = vec![0i64; spec.dims.len()];
    let mut rem = flat as usize;
    for (k, &d) in spec.dims.iter().enumerate().rev() {
        idx[k] = (rem % d) as i64;
        rem /= d;
    }
    idx
}

/// The outcome of evaluating one mapped function.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostReport {
    /// Graph name.
    pub name: String,
    /// Makespan in cycles.
    pub cycles: i64,
    /// Makespan in picoseconds (cycles × clock period).
    pub time_ps: Picoseconds,
    /// Energy and traffic, by category.
    pub ledger: EnergyLedger,
    /// Peak live bits in any one tile.
    pub peak_tile_bits: u64,
    /// Distinct PEs used.
    pub pes_used: usize,
    /// Elements per (PE used × cycle): 1.0 is a perfectly dense systolic
    /// schedule.
    pub utilization: f64,
    /// Total element count (the function's work at element granularity).
    pub elements: u64,
}

impl CostReport {
    /// Total energy.
    pub fn energy(&self) -> Femtojoules {
        self.ledger.energy.total()
    }

    /// Energy-delay product in fJ·ps.
    pub fn edp(&self) -> f64 {
        self.energy().raw() * self.time_ps.raw()
    }
}

/// Analytic evaluator for a graph on a machine.
#[derive(Debug, Clone)]
pub struct Evaluator<'a> {
    graph: &'a DataflowGraph,
    machine: &'a MachineConfig,
    /// Where each input lives (read by the flat engine's context).
    pub(crate) input_placements: Vec<InputPlacement>,
    /// Whether output writeback is charged.
    pub(crate) writeback_outputs: bool,
    /// Whether def→use traffic routes as multicast trees.
    pub(crate) multicast: bool,
    cost_model: CostModelKind,
}

impl<'a> Evaluator<'a> {
    /// New evaluator. Inputs default to [`InputPlacement::Dram`] (the
    /// honest default: data starts off chip) and outputs are not written
    /// back.
    pub fn new(graph: &'a DataflowGraph, machine: &'a MachineConfig) -> Self {
        Evaluator {
            graph,
            machine,
            input_placements: vec![InputPlacement::Dram; graph.inputs.len()],
            writeback_outputs: false,
            multicast: false,
            cost_model: CostModelKind::default(),
        }
    }

    /// Charge and score under a different cost backend. The default
    /// ([`CostModelKind::Analytic`]) is bit-identical to the historical
    /// hard-coded model.
    pub fn with_cost_model(mut self, kind: CostModelKind) -> Self {
        self.cost_model = kind;
        self
    }

    /// Which cost backend this evaluator charges under.
    pub fn cost_model(&self) -> CostModelKind {
        self.cost_model
    }

    /// The active backend instance.
    pub fn backend(&self) -> &'static dyn CostBackend {
        self.cost_model.backend()
    }

    /// Route def→use traffic as multicast trees (union of X-Y paths,
    /// shared prefixes paid once) instead of per-destination unicasts.
    /// **Analytic what-if only**: the grid simulator models unicast, so
    /// the sim-agreement invariant applies to the default (unicast)
    /// evaluator.
    pub fn with_multicast(mut self, on: bool) -> Self {
        self.multicast = on;
        self
    }

    /// Set the placement of one input.
    pub fn with_input_placement(mut self, input: usize, p: InputPlacement) -> Self {
        self.input_placements[input] = p;
        self
    }

    /// Set every input's placement at once.
    pub fn with_all_inputs(mut self, p: InputPlacement) -> Self {
        for slot in &mut self.input_placements {
            *slot = p.clone();
        }
        self
    }

    /// Charge one off-chip transfer per output element.
    pub fn with_writeback(mut self, on: bool) -> Self {
        self.writeback_outputs = on;
        self
    }

    /// The graph under evaluation.
    pub fn graph(&self) -> &'a DataflowGraph {
        self.graph
    }

    /// The machine evaluated against.
    pub fn machine(&self) -> &'a MachineConfig {
        self.machine
    }

    /// The reference charge of node `id` under the given placements:
    /// its ops, result write, operand/input reads, and the def→use
    /// messages it produces to its (remote) consumers (`consumers` is
    /// node `id`'s consumer list). Depends only on `place[id]`, the
    /// places of `id`'s consumers, and the evaluator's input placements
    /// — never on times. Production code charges through
    /// [`crate::flat::EvalContext`]; this is [`Self::evaluate_ref`]'s.
    fn node_cost_in(
        &self,
        id: usize,
        place: &[(i64, i64)],
        consumers: &[NodeId],
        pes: &mut Vec<(i64, i64)>,
    ) -> NodeCost {
        let g = self.graph;
        let m = self.machine;
        let be = self.backend();
        let width = u64::from(g.width_bits);
        let n = &g.nodes[id];
        let mut c = NodeCost::default();
        let compute = |e: Femtojoules, c: &mut NodeCost| {
            c.compute_fj += e.raw();
            c.compute_ops += 1;
        };
        let onchip = |mm: f64, e: Femtojoules, c: &mut NodeCost| {
            c.onchip_fj += e.raw();
            c.onchip_messages += 1;
            c.onchip_bit_mm += width as f64 * mm;
        };

        // Compute: expression ops + one tile write for the result.
        for op in n.expr.op_kinds(g.width_bits) {
            compute(be.op_energy(&m.tech, op), &mut c);
        }
        compute(be.tile_access_energy(&m.tech, width), &mut c);

        let cons = place[id];
        // Operand reads: one tile access per dependency (the value is
        // local by then — produced here or delivered here).
        for _ in &n.deps {
            compute(be.tile_access_energy(&m.tech, width), &mut c);
        }

        // Input reads. DRAM reads are charged in [`Self::offchip_totals`]
        // (once per distinct element, not per read).
        for (input, flat) in n.expr.input_reads() {
            match &self.input_placements[input as usize] {
                InputPlacement::Dram => {}
                InputPlacement::Local(pexpr) => {
                    let spec = &g.inputs[input as usize];
                    let idx = unflatten(spec, flat);
                    let home = pexpr.eval(&idx, m.cols);
                    if home == cons {
                        compute(be.tile_access_energy(&m.tech, width), &mut c);
                    } else {
                        let a = (home.0 as u32, home.1 as u32);
                        let b = (cons.0 as u32, cons.1 as u32);
                        let e = be.wire_energy(&m.tech, width, m.tech.chip.manhattan(a, b));
                        onchip(m.distance_mm(a, b), e, &mut c);
                    }
                }
                InputPlacement::AtUse => {
                    compute(be.tile_access_energy(&m.tech, width), &mut c);
                }
            }
        }

        // Def→use movement this node *produces*: one message per
        // distinct remote consumer PE.
        let prod = place[id];
        pes.clear();
        pes.extend(
            consumers
                .iter()
                .map(|&cn| place[cn as usize])
                .filter(|&p| p != prod),
        );
        pes.sort_unstable();
        pes.dedup();
        let a = (prod.0 as u32, prod.1 as u32);
        if self.multicast {
            if !pes.is_empty() {
                let dests: Vec<(u32, u32)> = pes.iter().map(|p| (p.0 as u32, p.1 as u32)).collect();
                let (mm, _links) = m.multicast_route(a, &dests);
                let e = be.wire_energy(&m.tech, width, fm_costmodel::Millimeters::new(mm));
                onchip(mm, e, &mut c);
            }
        } else {
            for &pe in pes.iter() {
                let b = (pe.0 as u32, pe.1 as u32);
                let e = be.wire_energy(&m.tech, width, m.tech.chip.manhattan(a, b));
                onchip(m.distance_mm(a, b), e, &mut c);
            }
        }
        c
    }

    /// The reference off-chip totals: DRAM fetches (each distinct
    /// element once) plus optional output writeback.
    /// Placement-independent.
    fn offchip_totals(&self) -> OffchipTotals {
        let g = self.graph;
        let m = self.machine;
        let width = u64::from(g.width_bits);
        let mut dram_elements: HashSet<(u32, u32)> = HashSet::new();
        for n in &g.nodes {
            for (input, flat) in n.expr.input_reads() {
                if matches!(self.input_placements[input as usize], InputPlacement::Dram) {
                    dram_elements.insert((input, flat));
                }
            }
        }
        let mut off = OffchipTotals::default();
        let be = self.backend();
        let charge = |off: &mut OffchipTotals| {
            off.fj += be.offchip_energy(&m.tech, width).raw();
            off.transfers += 1;
            off.bits += width;
        };
        for _ in &dram_elements {
            charge(&mut off);
        }
        if self.writeback_outputs {
            for _ in g.outputs() {
                charge(&mut off);
            }
        }
        off
    }

    /// Assemble a [`CostReport`] from tree-summed node costs, off-chip
    /// totals, and schedule aggregates. Shared verbatim between
    /// [`Self::evaluate`] and the incremental evaluator so both produce
    /// bit-identical reports from identical components.
    pub(crate) fn assemble(
        &self,
        total: NodeCost,
        off: &OffchipTotals,
        cycles: i64,
        peak_tile_bits: u64,
        pes_used: usize,
    ) -> CostReport {
        self.assemble_with_name(
            self.graph.name.clone(),
            total,
            off,
            cycles,
            peak_tile_bits,
            pes_used,
        )
    }

    /// [`Self::assemble`] with a caller-supplied name. The flat
    /// engine's scoring path passes an empty string so assembling a
    /// report allocates nothing; every numeric field is computed by the
    /// exact same arithmetic either way.
    pub(crate) fn assemble_with_name(
        &self,
        name: String,
        total: NodeCost,
        off: &OffchipTotals,
        cycles: i64,
        peak_tile_bits: u64,
        pes_used: usize,
    ) -> CostReport {
        let g = self.graph;
        let mut ledger = EnergyLedger::new();
        ledger.energy.compute = Femtojoules::new(total.compute_fj);
        ledger.energy.onchip_comm = Femtojoules::new(total.onchip_fj);
        ledger.energy.offchip = Femtojoules::new(off.fj);
        ledger.compute_ops = total.compute_ops;
        ledger.onchip_messages = total.onchip_messages;
        ledger.onchip_bits = total.onchip_messages * u64::from(g.width_bits);
        ledger.onchip_bit_mm = total.onchip_bit_mm;
        ledger.offchip_transfers = off.transfers;
        ledger.offchip_bits = off.bits;

        let utilization = if cycles > 0 && pes_used > 0 {
            g.len() as f64 / (pes_used as f64 * cycles as f64)
        } else {
            0.0
        };
        CostReport {
            name,
            cycles,
            time_ps: self.machine.clock_period() * cycles as f64,
            ledger,
            peak_tile_bits,
            pes_used,
            utilization,
            elements: g.len() as u64,
        }
    }

    /// Backend-neutral aggregates of a report, for scoring and
    /// roofline placement.
    pub fn totals(&self, r: &CostReport) -> MappingTotals {
        MappingTotals {
            compute_ops: r.ledger.compute_ops,
            onchip_bits: r.ledger.onchip_bits,
            onchip_bit_mm: r.ledger.onchip_bit_mm,
            offchip_bits: r.ledger.offchip_bits,
            energy_fj: r.energy().raw(),
            time_ps: r.time_ps.raw(),
            cycles: r.cycles,
            pes_used: r.pes_used,
            peak_tile_bits: r.peak_tile_bits,
        }
    }

    /// The target machine's roofline ceilings.
    pub fn ceilings(&self) -> MachineCeilings {
        self.machine.ceilings()
    }

    /// Scalar score of a report under the active backend (lower is
    /// better). For the default backend this is bit-identical to
    /// [`FigureOfMerit::score`]; other backends may substitute their
    /// own time/energy axes (`Edp` composes as `time × energy`, which
    /// matches the historical `energy × time` bit-for-bit).
    pub fn score(&self, fom: FigureOfMerit, r: &CostReport) -> f64 {
        if self.cost_model == CostModelKind::Analytic {
            // Fast path, and the bit-identity anchor: the exact
            // pre-backend arithmetic.
            return fom.score(r);
        }
        let be = self.backend();
        let totals = self.totals(r);
        match fom {
            FigureOfMerit::Time => be.time_score(&totals, &self.ceilings()),
            FigureOfMerit::Energy => be.energy_score(&totals),
            FigureOfMerit::Edp => {
                be.time_score(&totals, &self.ceilings()) * be.energy_score(&totals)
            }
            FigureOfMerit::Footprint => r.peak_tile_bits as f64,
        }
    }

    /// Where this report sits under the machine's roofline.
    pub fn roofline(&self, r: &CostReport) -> RooflinePoint {
        self.backend().roofline(&self.totals(r), &self.ceilings())
    }

    /// Evaluate the mapped function. The mapping is assumed legal; run
    /// [`crate::legality::check`] first.
    ///
    /// This runs the flat engine ([`crate::flat`]): PE coordinates are
    /// interned to dense ids (off-grid places of an unchecked mapping
    /// past the grid, one id per distinct place), per-node costs stream
    /// into a structure-of-arrays [`CostTree`], and all working memory
    /// comes from a thread-local scratch arena. Debug builds assert the
    /// result bit-identical to [`Self::evaluate_ref`] on every call.
    pub fn evaluate(&self, rm: &ResolvedMapping) -> CostReport {
        let ctx = crate::flat::EvalContext::new(self);
        let report = crate::flat::with_thread_scratch(|scratch| {
            ctx.evaluate_report(self, &rm.place, &rm.time, scratch)
        });
        debug_assert_eq!(
            report,
            self.evaluate_ref(rm),
            "flat evaluation diverged from the reference path"
        );
        report
    }

    /// Check and evaluate the mapped function in one flat pass: `Err`
    /// with the exact violation total [`crate::legality::check`]
    /// reports when the mapping is illegal, else `Ok` with the report
    /// [`Self::evaluate`] returns. The mapping must cover the graph
    /// (one place and one time per node). Debug builds assert both arms
    /// against the reference checker and evaluator.
    pub fn evaluate_checked(&self, rm: &ResolvedMapping) -> Result<CostReport, u64> {
        let ctx = crate::flat::EvalContext::new(self);
        let verdict = crate::flat::with_thread_scratch(|scratch| {
            ctx.verdict(self, &rm.place, &rm.time, &mut scratch.buf)
        })
        .map(|mut report| {
            report.name = self.graph.name.clone();
            report
        });
        debug_assert_eq!(
            verdict,
            match crate::legality::check(self.graph, rm, self.machine).total_violations {
                0 => Ok(self.evaluate_ref(rm)),
                total => Err(total),
            },
            "flat verdict diverged from the reference checker and evaluator"
        );
        verdict
    }

    /// Reference implementation of [`Self::evaluate`]: the original
    /// per-call path (consumer lists, leaves and off-chip totals all
    /// rebuilt here). Kept as the bit-identity oracle the flat and
    /// incremental engines are asserted and benchmarked (E22) against;
    /// no production path runs it.
    #[doc(hidden)]
    pub fn evaluate_ref(&self, rm: &ResolvedMapping) -> CostReport {
        let g = self.graph;
        let consumers = g.consumers();
        let mut pes = Vec::new();
        let leaves: Vec<NodeCost> = (0..g.len())
            .map(|id| self.node_cost_in(id, &rm.place, &consumers[id], &mut pes))
            .collect();
        let total = CostTree::build(&leaves).total();
        let off = self.offchip_totals();
        let cycles = rm.makespan();
        let peak_tile_bits = tile_peaks(g, rm, cycles)
            .values()
            .copied()
            .max()
            .unwrap_or(0);
        self.assemble(total, &off, cycles, peak_tile_bits, rm.pes_used())
    }
}

/// Cost of running the same function on a conventional out-of-order
/// core: every op pays the instruction-overhead factor, every distinct
/// input element is a DRAM access, and execution is serial (one element
/// per add-latency). This is the paper's "10,000× loss of efficiency"
/// comparator for experiments E2 and E5.
pub fn conventional_core_report(graph: &DataflowGraph, machine: &MachineConfig) -> CostReport {
    let width = u64::from(graph.width_bits);
    let mut ledger = EnergyLedger::new();
    let mut dram: HashSet<(u32, u32)> = HashSet::new();
    for n in &graph.nodes {
        for op in n.expr.op_kinds(graph.width_bits) {
            let raw = machine.tech.op_energy(op);
            ledger.charge_compute(raw);
            ledger.charge_overhead(machine.tech.instruction_energy(op) - raw);
        }
        for read in n.expr.input_reads() {
            dram.insert(read);
        }
    }
    for _ in &dram {
        ledger.charge_offchip(width, machine.tech.offchip_energy(width));
    }
    let cycles = graph.len() as i64;
    CostReport {
        name: format!("{} (conventional core)", graph.name),
        cycles,
        time_ps: machine.tech.op_latency(OpKind::add32()) * cycles as f64,
        ledger,
        peak_tile_bits: 0,
        pes_used: 1,
        utilization: 1.0,
        elements: graph.len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::IdxExpr;
    use crate::dataflow::CExpr;
    use crate::mapping::{Mapping, PlaceExpr, ResolvedMapping};
    use crate::value::Value;

    fn two_pe_edge() -> (DataflowGraph, ResolvedMapping, MachineConfig) {
        let mut g = DataflowGraph::new("edge", 32);
        let a = g.add_node(CExpr::konst(Value::real(1.0)), vec![], vec![0]);
        let b = g.add_node(
            CExpr::dep(0).add(CExpr::konst(Value::real(1.0))),
            vec![a],
            vec![1],
        );
        g.mark_output(b);
        let m = MachineConfig::linear(4);
        let rm = ResolvedMapping {
            place: vec![(0, 0), (1, 0)],
            time: vec![0, 1],
        };
        (g, rm, m)
    }

    #[test]
    fn cross_pe_edge_charged_as_onchip_message() {
        let (g, rm, m) = two_pe_edge();
        let rep = Evaluator::new(&g, &m).evaluate(&rm);
        assert_eq!(rep.ledger.onchip_messages, 1);
        assert_eq!(rep.ledger.onchip_bits, 32);
        let expected = m.route_energy(32, (0, 0), (1, 0));
        assert!((rep.ledger.energy.onchip_comm.raw() - expected.raw()).abs() < 1e-9);
    }

    #[test]
    fn same_pe_edge_is_not_a_message() {
        let (g, _, m) = two_pe_edge();
        let rm = ResolvedMapping {
            place: vec![(0, 0), (0, 0)],
            time: vec![0, 1],
        };
        let rep = Evaluator::new(&g, &m).evaluate(&rm);
        assert_eq!(rep.ledger.onchip_messages, 0);
        assert_eq!(rep.ledger.energy.onchip_comm.raw(), 0.0);
    }

    #[test]
    fn dram_inputs_charged_once_per_distinct_element() {
        let mut g = DataflowGraph::new("reads", 32);
        let x = g.add_input("X", vec![4]);
        // Two nodes read element 0; one reads element 1.
        g.add_node(CExpr::input(x, 0).add(CExpr::input(x, 1)), vec![], vec![0]);
        g.add_node(CExpr::input(x, 0), vec![], vec![1]);
        let m = MachineConfig::linear(2);
        let rm = ResolvedMapping {
            place: vec![(0, 0), (1, 0)],
            time: vec![0, 1],
        };
        let rep = Evaluator::new(&g, &m).evaluate(&rm);
        assert_eq!(rep.ledger.offchip_transfers, 2); // elements 0 and 1
    }

    #[test]
    fn local_input_home_vs_remote() {
        let mut g = DataflowGraph::new("local", 32);
        let x = g.add_input("X", vec![2]);
        g.add_node(CExpr::input(x, 0), vec![], vec![0]);
        g.add_node(CExpr::input(x, 1), vec![], vec![1]);
        let m = MachineConfig::linear(4);
        let rm = ResolvedMapping {
            place: vec![(0, 0), (1, 0)],
            time: vec![0, 1],
        };
        // Homed by index: element i at PE i → both reads are local.
        let rep = Evaluator::new(&g, &m)
            .with_input_placement(0, InputPlacement::Local(PlaceExpr::row0(IdxExpr::i())))
            .evaluate(&rm);
        assert_eq!(rep.ledger.onchip_messages, 0);
        assert_eq!(rep.ledger.offchip_transfers, 0);

        // Homed all at PE 3 → both reads are remote messages.
        let rep2 = Evaluator::new(&g, &m)
            .with_input_placement(0, InputPlacement::Local(PlaceExpr::row0(IdxExpr::c(3))))
            .evaluate(&rm);
        assert_eq!(rep2.ledger.onchip_messages, 2);
    }

    #[test]
    fn writeback_charges_outputs() {
        let (g, rm, m) = two_pe_edge();
        let rep = Evaluator::new(&g, &m).with_writeback(true).evaluate(&rm);
        assert_eq!(rep.ledger.offchip_transfers, 1);
    }

    #[test]
    fn utilization_and_makespan() {
        let (g, rm, m) = two_pe_edge();
        let rep = Evaluator::new(&g, &m).evaluate(&rm);
        assert_eq!(rep.cycles, 2);
        assert_eq!(rep.pes_used, 2);
        assert!((rep.utilization - 2.0 / 4.0).abs() < 1e-12);
        assert!((rep.time_ps.raw() - 2.0 * m.clock_period().raw()).abs() < 1e-9);
    }

    #[test]
    fn conventional_core_pays_overhead() {
        let (g, _, m) = two_pe_edge();
        let conv = conventional_core_report(&g, &m);
        // One add op in the graph → overhead ≈ (10000-1) × its energy.
        let compute = conv.ledger.energy.compute.raw();
        let overhead = conv.ledger.energy.overhead.raw();
        assert!(overhead > 9000.0 * compute / 2.0);
        assert!(conv.ledger.energy.overhead.raw() > 0.0);
    }

    #[test]
    fn mapped_beats_conventional_on_energy() {
        // The paper's headline: mapped spatial execution is orders of
        // magnitude more energy-efficient than a conventional core.
        // On a dense grid (short hops) the gap is ~70×; on a sparse
        // 4-PE grid one hop spans 7 mm of die and the gap narrows —
        // also the paper's point (distance is what costs).
        let (g, _, _) = two_pe_edge();
        let m = MachineConfig::n5(32, 32);
        let rm = ResolvedMapping {
            place: vec![(0, 0), (1, 0)],
            time: vec![0, 1],
        };
        let mapped = Evaluator::new(&g, &m).evaluate(&rm);
        let conv = conventional_core_report(&g, &m);
        assert!(conv.energy().raw() > 10.0 * mapped.energy().raw());
    }

    #[test]
    fn serial_mapping_of_chain_cost_is_linear() {
        let mut g = DataflowGraph::new("chain", 32);
        let mut prev: Option<u32> = None;
        for i in 0..10 {
            let id = match prev {
                None => g.add_node(CExpr::konst(Value::ZERO), vec![], vec![i]),
                Some(p) => g.add_node(CExpr::dep(0), vec![p], vec![i]),
            };
            prev = Some(id);
        }
        let m = MachineConfig::linear(1);
        let rm = Mapping::serial(&g).resolve(&g, &m).unwrap();
        let rep = Evaluator::new(&g, &m).evaluate(&rm);
        assert_eq!(rep.cycles, 10);
        assert_eq!(rep.ledger.onchip_messages, 0);
    }

    #[test]
    fn multicast_never_costs_more_than_unicast() {
        // A producer with consumers strung down a line: multicast pays
        // the longest path once, unicast pays every prefix again.
        let mut g = DataflowGraph::new("bcast", 32);
        let src = g.add_node(CExpr::konst(Value::real(1.0)), vec![], vec![0]);
        for i in 1..=5i64 {
            g.add_node(CExpr::dep(0), vec![src], vec![i]);
        }
        let m = MachineConfig::linear(8);
        let rm = ResolvedMapping {
            place: (0..6).map(|i| (i, 0)).collect(),
            time: (0..6).map(|i| i.max(1)).collect(),
        };
        let uni = Evaluator::new(&g, &m).evaluate(&rm);
        let multi = Evaluator::new(&g, &m).with_multicast(true).evaluate(&rm);
        assert!(multi.ledger.energy.onchip_comm.raw() < uni.ledger.energy.onchip_comm.raw());
        // The line multicast costs exactly the longest unicast.
        let longest = m.route_energy(32, (0, 0), (5, 0)).raw();
        assert!((multi.ledger.energy.onchip_comm.raw() - longest).abs() < 1e-9);
        // Events: one multicast vs five unicasts.
        assert_eq!(multi.ledger.onchip_messages, 1);
        assert_eq!(uni.ledger.onchip_messages, 5);
    }

    #[test]
    fn off_grid_unchecked_mapping_evaluates_like_the_reference() {
        // Off-grid places (two nodes sharing one) and a negative time:
        // the flat engine interns them past the grid and must charge,
        // sweep and count PEs exactly as the reference does.
        let mut g = DataflowGraph::new("oob", 32);
        let x = g.add_input("X", vec![4]);
        let a = g.add_node(CExpr::input(x, 0), vec![], vec![0]);
        let b = g.add_node(CExpr::dep(0).add(CExpr::input(x, 1)), vec![a], vec![1]);
        let c = g.add_node(CExpr::dep(0).add(CExpr::dep(1)), vec![a, b], vec![2]);
        g.add_node(CExpr::dep(0).add(CExpr::input(x, 2)), vec![c], vec![3]);
        let m = MachineConfig::linear(4);
        let rm = ResolvedMapping {
            place: vec![(-1, 0), (5, 2), (0, 0), (-1, 0)],
            time: vec![-1, 0, 3, 4],
        };
        for ev in [
            Evaluator::new(&g, &m).with_writeback(true),
            Evaluator::new(&g, &m)
                .with_input_placement(0, InputPlacement::Local(PlaceExpr::row0(IdxExpr::i())))
                .with_writeback(true),
            Evaluator::new(&g, &m).with_all_inputs(InputPlacement::AtUse),
        ] {
            assert_eq!(ev.evaluate(&rm), ev.evaluate_ref(&rm));
        }
    }

    #[test]
    fn unflatten_row_major() {
        let spec = InputSpec {
            name: "A".into(),
            dims: vec![3, 4],
        };
        assert_eq!(unflatten(&spec, 0), vec![0, 0]);
        assert_eq!(unflatten(&spec, 6), vec![1, 2]);
        assert_eq!(unflatten(&spec, 11), vec![2, 3]);
    }

    #[test]
    fn edp_positive() {
        let (g, rm, m) = two_pe_edge();
        let rep = Evaluator::new(&g, &m).evaluate(&rm);
        assert!(rep.edp() > 0.0);
    }
}
