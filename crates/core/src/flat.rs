//! The flat evaluation engine: interned PE ids, structure-of-arrays
//! cost folds, and zero-allocation candidate batching.
//!
//! The analytic evaluator's promise is *predictable* cost, but the
//! original hot path spent its cycles in `HashMap<(i64,i64),…>`
//! lookups and per-candidate `Vec` reallocation rather than in the
//! cost arithmetic itself. This module restructures evaluation the way
//! the paper says to restructure computation: make the data layout
//! explicit and contiguous. It is the one place production code
//! charges nodes and checks legality; the `HashMap`-based reference
//! (`Evaluator::evaluate_ref`, `legality::check`) is the oracle it is
//! tested against.
//!
//! Three pieces:
//!
//! * [`EvalContext`] — everything shared by every candidate of one
//!   (graph, machine, evaluator) triple: CSR consumer lists, the
//!   placement-independent prefix of every node's cost (expression
//!   ops, result write and operand reads — a fixed f64 partial sum, so
//!   continuing from it reproduces the reference accumulation
//!   bit-for-bit), per-node input-read homes with the unflatten/affine
//!   work pre-evaluated, and the off-chip totals. Built once per tune;
//!   the session engine ([`crate::delta::DeltaCandidates`]) keeps one
//!   alive and patches it in place per structural edit.
//! * [`EvalScratch`] — a reusable arena holding every buffer one
//!   evaluation needs (resolved places/times, interned PE ids, per-PE
//!   lifetimes, the SoA [`CostTree`]). Buffers are cleared, never
//!   freed, so steady-state evaluation performs **zero heap
//!   allocation**.
//! * [`BatchEvaluator`] — the per-candidate entry point the tuner's
//!   work-stealing loop calls: resolve into scratch, check legality
//!   with dense per-PE arrays, cost through the context, score. Its
//!   result is debug-asserted bit-identical to the reference
//!   `search::evaluate_candidate_ref` path.
//!
//! **Interning rule.** A place `(x, y)` on the `cols × rows` grid
//! interns to `pe = y * cols + x` as a dense `u32`. An off-grid place
//! (possible only in unchecked mappings) interns past the grid, to
//! `cols * rows + k`, where `k` numbers the evaluation's distinct
//! off-grid places. Every mapping therefore gets its verdict here: the
//! legality phases return the exact `legality::check` total (bounds
//! count off-grid nodes and negative times, causality is skipped when
//! any place is off the grid, issue width and storage run over every
//! id), and the cost fold charges exactly what the reference charges.
//!
//! Every number produced here is bit-identical to the reference path:
//! the pairwise cost tree keeps its exact shape for the three `f64`
//! fields (SoA only changes *storage*; the integer counts are plain
//! sums), charge order within a node is unchanged, and the per-PE
//! sweep (`peak_live`) merges each PE's lifetime starts and ends in
//! member order — sorting either only when it is out of order — which
//! visits the same events in the same order as sorting the event
//! pairs the `HashMap` version sorts. The same pass counts each PE's
//! over-width issue cycles, so the issue check needs no sort of its
//! own.

use std::cell::RefCell;
use std::collections::HashMap;

use crate::cost::{CostReport, CostTree, Evaluator, NodeCost, OffchipTotals};
use crate::dataflow::{DataflowGraph, Node, NodeId};
use crate::machine::MachineConfig;
use crate::mapping::InputPlacement;
use crate::mutate::AppliedEdit;
use crate::search::{evaluate_candidate_ref, CandidateEval, FigureOfMerit, MappingCandidate};

/// One pre-resolved non-DRAM input read of a node.
#[derive(Debug, Clone, Copy)]
struct InputRead {
    /// Home PE for [`InputPlacement::Local`]; ignored for `AtUse`.
    home: (i64, i64),
    /// `AtUse` read: always a local tile access, wherever the consumer
    /// sits.
    at_use: bool,
}

/// Shared, placement-independent evaluation state for one
/// (graph, machine, evaluator) triple. Build once per tune (or per
/// `Evaluator::evaluate` call), reuse across every candidate.
#[derive(Debug, Clone)]
pub struct EvalContext {
    /// CSR consumer lists: node `id`'s consumers are
    /// `cons_data[cons_off[id]..cons_off[id+1]]`, ascending — the same
    /// order `DataflowGraph::consumers` produces.
    cons_off: Vec<u32>,
    cons_data: Vec<NodeId>,
    /// Per-node placement-independent cost prefix: expression ops, the
    /// result tile write, and one tile access per operand — exactly
    /// the charges `node_cost` makes before it looks at any place.
    base: Vec<NodeCost>,
    /// CSR non-DRAM input reads per node, in expression read order
    /// (DRAM reads contribute nothing placement-dependent).
    read_off: Vec<u32>,
    reads: Vec<InputRead>,
    /// Reads per distinct DRAM-placed input element; the key count is
    /// the off-chip fetch count.
    dram_refs: HashMap<(u32, u32), u32>,
    /// Per-node output mark, read by every lifetime sweep.
    output: Vec<bool>,
    /// Nodes marked as outputs.
    marked_outputs: u64,
    /// Nodes with at least one consumer: when nothing is marked, the
    /// sinks are the writeback set.
    nonsink: u64,
    /// Off-chip totals (a pure function of graph + placements).
    off: OffchipTotals,
    /// One tile access, in femtojoules (every such charge is
    /// identical).
    tile_fj: f64,
    width: u64,
    cols: i64,
    rows: i64,
    pe_count: usize,
    multicast: bool,
}

impl EvalContext {
    /// Precompute the shared state for `ev`'s (graph, machine) pair.
    pub fn new(ev: &Evaluator<'_>) -> EvalContext {
        let g = ev.graph();
        let m = ev.machine();
        let n = g.len();
        let width = u64::from(g.width_bits);
        let mut ctx = EvalContext {
            cons_off: vec![0u32; n + 1],
            cons_data: Vec::new(),
            base: Vec::with_capacity(n),
            read_off: vec![0],
            reads: Vec::new(),
            dram_refs: HashMap::new(),
            output: Vec::with_capacity(n),
            marked_outputs: 0,
            nonsink: 0,
            off: OffchipTotals::default(),
            tile_fj: ev.backend().tile_access_energy(&m.tech, width).raw(),
            width,
            cols: i64::from(m.cols),
            rows: i64::from(m.rows),
            pe_count: m.cols as usize * m.rows as usize,
            multicast: ev.multicast,
        };

        // CSR consumers: count, prefix, scatter in id order — the
        // scatter order reproduces `consumers()`'s ascending lists.
        for node in &g.nodes {
            for &d in &node.deps {
                ctx.cons_off[d as usize + 1] += 1;
            }
        }
        for i in 0..n {
            ctx.nonsink += u64::from(ctx.cons_off[i + 1] > 0);
            ctx.cons_off[i + 1] += ctx.cons_off[i];
        }
        let mut cursor: Vec<u32> = ctx.cons_off[..n].to_vec();
        ctx.cons_data = vec![0 as NodeId; ctx.cons_off[n] as usize];
        for (id, node) in g.nodes.iter().enumerate() {
            for &d in &node.deps {
                let slot = &mut cursor[d as usize];
                ctx.cons_data[*slot as usize] = id as NodeId;
                *slot += 1;
            }
        }

        for node in &g.nodes {
            ctx.push_node(ev, node);
        }
        ctx.refresh_offchip(ev);
        ctx
    }

    /// Append `node`'s placement-independent cost prefix and its
    /// pre-resolved non-DRAM input reads; count its DRAM reads and its
    /// output mark.
    fn push_node(&mut self, ev: &Evaluator<'_>, node: &Node) {
        let g = ev.graph();
        let m = ev.machine();
        let be = ev.backend();
        let mut c = NodeCost::default();
        let compute = |e: f64, c: &mut NodeCost| {
            c.compute_fj += e;
            c.compute_ops += 1;
        };
        for op in node.expr.op_kinds(g.width_bits) {
            compute(be.op_energy(&m.tech, op).raw(), &mut c);
        }
        compute(self.tile_fj, &mut c);
        for _ in &node.deps {
            compute(self.tile_fj, &mut c);
        }
        self.base.push(c);

        for (input, flat) in node.expr.input_reads() {
            match &ev.input_placements[input as usize] {
                InputPlacement::Dram => *self.dram_refs.entry((input, flat)).or_insert(0) += 1,
                InputPlacement::Local(pexpr) => {
                    let idx = crate::cost::unflatten(&g.inputs[input as usize], flat);
                    self.reads.push(InputRead {
                        home: pexpr.eval(&idx, m.cols),
                        at_use: false,
                    });
                }
                InputPlacement::AtUse => self.reads.push(InputRead {
                    home: (0, 0),
                    at_use: true,
                }),
            }
        }
        self.read_off.push(self.reads.len() as u32);
        self.output.push(node.output);
        self.marked_outputs += u64::from(node.output);
    }

    /// Re-derive the off-chip totals from the DRAM fetch count and the
    /// writeback count. Every transfer is charged identically (same
    /// width), so folding one charge per transfer reproduces the
    /// reference totals bit-for-bit.
    fn refresh_offchip(&mut self, ev: &Evaluator<'_>) {
        let writeback = match (ev.writeback_outputs, self.marked_outputs) {
            (false, _) => 0,
            (true, 0) => self.len() as u64 - self.nonsink,
            (true, marked) => marked,
        };
        let fj = ev
            .backend()
            .offchip_energy(&ev.machine().tech, self.width)
            .raw();
        let mut off = OffchipTotals::default();
        for _ in 0..self.dram_refs.len() as u64 + writeback {
            off.fj += fj;
            off.transfers += 1;
            off.bits += self.width;
        }
        self.off = off;
    }

    /// Follow one applied structural edit in place. `ev` wraps the
    /// post-edit graph and is configured as it was for [`Self::new`].
    /// The new node's cost prefix and input reads are appended (or the
    /// removed node's dropped), the consumer lists are patched, and the
    /// DRAM-read refcounts and the writeback count stay exact — the
    /// result equals a fresh [`Self::new`] on the post-edit graph.
    pub(crate) fn apply_edit(&mut self, ev: &Evaluator<'_>, edit: &AppliedEdit) {
        match edit {
            AppliedEdit::AddNode { id } => {
                let node = &ev.graph().nodes[*id as usize];
                // The new id is the largest: its (empty) list goes last
                // and it joins the end of each producer's list.
                self.cons_off.push(self.cons_data.len() as u32);
                for &d in &node.deps {
                    self.cons_insert(d as usize, *id);
                }
                self.push_node(ev, node);
            }
            AppliedEdit::RemoveNode { id, node } => {
                let r = *id as usize;
                for &d in &node.deps {
                    self.cons_remove(d as usize, *id);
                }
                // The removed node had no consumers: drop its empty
                // list, then renumber the ids above it (there are none
                // when it was the last node).
                self.cons_off.remove(r + 1);
                if r + 1 < self.len() {
                    for c in &mut self.cons_data {
                        if *c > *id {
                            *c -= 1;
                        }
                    }
                }
                self.base.remove(r);
                let (lo, hi) = (self.read_off[r], self.read_off[r + 1]);
                self.reads.drain(lo as usize..hi as usize);
                self.read_off.remove(r + 1);
                for o in &mut self.read_off[r + 1..] {
                    *o -= hi - lo;
                }
                for (input, flat) in node.expr.input_reads() {
                    if matches!(ev.input_placements[input as usize], InputPlacement::Dram) {
                        let refs = self
                            .dram_refs
                            .get_mut(&(input, flat))
                            .expect("DRAM refcount underflow");
                        *refs -= 1;
                        if *refs == 0 {
                            self.dram_refs.remove(&(input, flat));
                        }
                    }
                }
                self.output.remove(r);
                self.marked_outputs -= u64::from(node.output);
            }
            AppliedEdit::RetargetEdge {
                node,
                old_dep,
                new_dep,
                ..
            } => {
                self.cons_remove(*old_dep as usize, *node);
                self.cons_insert(*new_dep as usize, *node);
            }
            AppliedEdit::ResizeTile { .. } => {}
        }
        self.refresh_offchip(ev);
    }

    /// Insert consumer `c` into producer `d`'s list, keeping it
    /// ascending.
    fn cons_insert(&mut self, d: usize, c: NodeId) {
        let (lo, hi) = (self.cons_off[d] as usize, self.cons_off[d + 1] as usize);
        self.nonsink += u64::from(lo == hi);
        let at = lo + self.cons_data[lo..hi].partition_point(|&x| x <= c);
        self.cons_data.insert(at, c);
        for o in &mut self.cons_off[d + 1..] {
            *o += 1;
        }
    }

    /// Remove one occurrence of consumer `c` from producer `d`'s list.
    fn cons_remove(&mut self, d: usize, c: NodeId) {
        let (lo, hi) = (self.cons_off[d] as usize, self.cons_off[d + 1] as usize);
        let at = lo
            + self.cons_data[lo..hi]
                .binary_search(&c)
                .expect("consumer recorded on its producer");
        self.cons_data.remove(at);
        for o in &mut self.cons_off[d + 1..] {
            *o -= 1;
        }
        self.nonsink -= u64::from(hi - lo == 1);
    }

    /// Number of nodes the context describes.
    pub(crate) fn len(&self) -> usize {
        self.base.len()
    }

    /// Node `id`'s consumers, ascending (CSR view of
    /// `DataflowGraph::consumers`).
    pub(crate) fn consumers(&self, id: usize) -> &[NodeId] {
        &self.cons_data[self.cons_off[id] as usize..self.cons_off[id + 1] as usize]
    }

    /// The off-chip totals.
    pub(crate) fn offchip(&self) -> OffchipTotals {
        self.off
    }

    /// Whether node `id` is marked as an output.
    #[inline]
    pub(crate) fn is_output(&self, id: usize) -> bool {
        self.output[id]
    }

    /// Dense id of an on-grid place (`y * cols + x`); `None` off the
    /// grid.
    #[inline]
    pub(crate) fn pe_id(&self, p: (i64, i64)) -> Option<u32> {
        if p.0 >= 0 && p.1 >= 0 && p.0 < self.cols && p.1 < self.rows {
            Some((p.1 * self.cols + p.0) as u32)
        } else {
            None
        }
    }

    /// Bits per value (the graph's width).
    pub(crate) fn width_bits(&self) -> u64 {
        self.width
    }

    /// PEs on the grid; ids at or past this count are off-grid places.
    pub(crate) fn grid_pes(&self) -> usize {
        self.pe_count
    }

    /// Whether the edge from on-grid id `pd` (value ready at `td`) to
    /// on-grid id `pn` (starting at `tn`) violates causality: the
    /// consumer starts before the value can arrive over the wires.
    pub(crate) fn late(&self, machine: &MachineConfig, pd: u32, td: i64, pn: u32, tn: i64) -> bool {
        tn - td < machine.required_gap(self.coords(pd), self.coords(pn))
    }

    fn coords(&self, pe: u32) -> (u32, u32) {
        let (x, y) = self.place_of(pe);
        (x as u32, y as u32)
    }

    /// The place on-grid id `pe` interns (the inverse of
    /// [`Self::pe_id`]).
    #[inline]
    pub(crate) fn place_of(&self, pe: u32) -> (i64, i64) {
        let pe = i64::from(pe);
        (pe % self.cols, pe / self.cols)
    }

    /// Intern every place into `buf.node_pe` by the module's rule:
    /// on-grid places to their [`Self::pe_id`], off-grid places past
    /// the grid to `cols * rows + k`, with `k` numbering the distinct
    /// off-grid places in sorted order. Leaves each off-grid
    /// (place, node) pair in `buf.offgrid`, sorted, and the number of
    /// ids in use in `buf.ids`.
    pub(crate) fn intern_places(&self, place: &[(i64, i64)], buf: &mut ScratchBuf) {
        buf.node_pe.clear();
        buf.offgrid.clear();
        for (id, &p) in place.iter().enumerate() {
            let pe = match self.pe_id(p) {
                Some(pe) => pe,
                None => {
                    buf.offgrid.push((p, id as NodeId));
                    u32::MAX
                }
            };
            buf.node_pe.push(pe);
        }
        buf.offgrid.sort_unstable();
        let mut next = self.pe_count;
        for k in 0..buf.offgrid.len() {
            let (p, id) = buf.offgrid[k];
            if k > 0 && buf.offgrid[k - 1].0 != p {
                next += 1;
            }
            buf.node_pe[id as usize] = next as u32;
        }
        buf.ids = next + usize::from(!buf.offgrid.is_empty());
    }

    /// Node `id`'s full cost under the placement `place` (node id →
    /// place): the precomputed prefix plus the placement-dependent
    /// input reads and def→use messages, charged in exactly the
    /// reference charge's order (`Evaluator::node_cost_in`) so the f64
    /// accumulation is bit-identical. The one node charge production
    /// code runs.
    pub(crate) fn node_cost(
        &self,
        ev: &Evaluator<'_>,
        id: usize,
        place: impl Fn(usize) -> (i64, i64),
        pes: &mut Vec<(i64, i64)>,
        dests: &mut Vec<(u32, u32)>,
    ) -> NodeCost {
        let m = ev.machine();
        let be = ev.backend();
        let width = self.width;
        let mut c = self.base[id];
        let cons = place(id);
        let onchip = |mm: f64, fj: f64, c: &mut NodeCost| {
            c.onchip_fj += fj;
            c.onchip_messages += 1;
            c.onchip_bit_mm += width as f64 * mm;
        };

        for r in &self.reads[self.read_off[id] as usize..self.read_off[id + 1] as usize] {
            if r.at_use || r.home == cons {
                c.compute_fj += self.tile_fj;
                c.compute_ops += 1;
            } else {
                let a = (r.home.0 as u32, r.home.1 as u32);
                let b = (cons.0 as u32, cons.1 as u32);
                let e = be.wire_energy(&m.tech, width, m.tech.chip.manhattan(a, b));
                onchip(m.distance_mm(a, b), e.raw(), &mut c);
            }
        }

        let prod = cons;
        pes.clear();
        pes.extend(
            self.consumers(id)
                .iter()
                .map(|&cn| place(cn as usize))
                .filter(|&p| p != prod),
        );
        pes.sort_unstable();
        pes.dedup();
        let a = (prod.0 as u32, prod.1 as u32);
        if self.multicast {
            if !pes.is_empty() {
                dests.clear();
                dests.extend(pes.iter().map(|p| (p.0 as u32, p.1 as u32)));
                let (mm, _links) = m.multicast_route(a, dests);
                let e = be.wire_energy(&m.tech, width, fm_costmodel::Millimeters::new(mm));
                onchip(mm, e.raw(), &mut c);
            }
        } else {
            for &pe in pes.iter() {
                let b = (pe.0 as u32, pe.1 as u32);
                let e = be.wire_energy(&m.tech, width, m.tech.chip.manhattan(a, b));
                onchip(m.distance_mm(a, b), e.raw(), &mut c);
            }
        }
        c
    }

    /// Flat cost evaluation of an (assumed-legal) resolved mapping:
    /// the same report `Evaluator::evaluate_ref` assembles, computed
    /// through dense arrays and the scratch arena. Off-grid places are
    /// interned past the grid, so every mapping is costed here.
    pub(crate) fn evaluate_report(
        &self,
        ev: &Evaluator<'_>,
        place: &[(i64, i64)],
        time: &[i64],
        scratch: &mut EvalScratch,
    ) -> CostReport {
        let buf = &mut scratch.buf;
        self.intern_places(place, buf);
        let cycles = makespan_of(time);
        let sweep = self.sweep_tiles(ev.machine(), time, cycles, buf);
        let mut report = self.cost(ev, place, cycles, &sweep, buf);
        report.name = ev.graph().name.clone();
        report
    }

    /// Legality and cost of a resolved mapping in one flat pass: the
    /// exact violation total `legality::check` reports when it is
    /// above zero, else the report (assembled with an empty name, so
    /// nothing allocates).
    pub(crate) fn verdict(
        &self,
        ev: &Evaluator<'_>,
        place: &[(i64, i64)],
        time: &[i64],
        buf: &mut ScratchBuf,
    ) -> Result<CostReport, u64> {
        self.intern_places(place, buf);
        let cycles = makespan_of(time);
        let sweep = self.sweep_tiles(ev.machine(), time, cycles, buf);
        match self.violation_total(ev.machine(), time, &sweep, buf) {
            0 => Ok(self.cost(ev, place, cycles, &sweep, buf)),
            total => Err(total),
        }
    }

    /// Per-node costs → SoA tree → the report (with an empty name).
    fn cost(
        &self,
        ev: &Evaluator<'_>,
        place: &[(i64, i64)],
        cycles: i64,
        sweep: &TileSweep,
        buf: &mut ScratchBuf,
    ) -> CostReport {
        let ScratchBuf {
            tree, pes, dests, ..
        } = buf;
        self.fill_tree(ev, |i| place[i], tree, pes, dests);
        ev.assemble_with_name(
            String::new(),
            tree.total(),
            &self.off,
            cycles,
            sweep.peak,
            sweep.pes_used,
        )
    }

    /// Charge every node under `place` (node id → place) into `tree`
    /// (reset to the node count) and fold it.
    pub(crate) fn fill_tree(
        &self,
        ev: &Evaluator<'_>,
        place: impl Fn(usize) -> (i64, i64) + Copy,
        tree: &mut CostTree,
        pes: &mut Vec<(i64, i64)>,
        dests: &mut Vec<(u32, u32)>,
    ) {
        tree.reset(self.len());
        for id in 0..self.len() {
            tree.set_leaf(id, self.node_cost(ev, id, place, pes, dests));
        }
        tree.refresh();
    }

    /// The flat tile sweep: last-use relaxation over the CSR consumer
    /// lists, a counting scatter of every node's (start, last use)
    /// lifetime into its PE's slice (in id order, so each slice is in
    /// member order), and one [`peak_live`] pass per PE. Returns the
    /// storage violations, the global peak, the occupied-PE count and
    /// the over-width issue cells. Requires `buf.node_pe` to be
    /// interned.
    fn sweep_tiles(
        &self,
        machine: &MachineConfig,
        time: &[i64],
        makespan: i64,
        buf: &mut ScratchBuf,
    ) -> TileSweep {
        let n = time.len();
        let ids = buf.ids;
        // Last use: own cycle, relaxed over consumers, outputs pinned
        // to the makespan.
        buf.last_use.clear();
        buf.last_use.extend((0..n).map(|id| {
            if self.output[id] {
                makespan
            } else {
                self.consumers(id)
                    .iter()
                    .fold(time[id], |lu, &c| lu.max(time[c as usize]))
            }
        }));

        // Counting scatter: one lifetime per node, grouped by PE.
        buf.pe_off.clear();
        buf.pe_off.resize(ids + 1, 0);
        for &pe in &buf.node_pe {
            buf.pe_off[pe as usize + 1] += 1;
        }
        for i in 0..ids {
            let prev = buf.pe_off[i];
            buf.pe_off[i + 1] += prev;
        }
        buf.start.resize(n, 0);
        buf.end.resize(n, 0);
        buf.pe_cursor.clear();
        buf.pe_cursor.extend_from_slice(&buf.pe_off[..ids]);
        for (id, &t) in time.iter().enumerate() {
            let pe = buf.node_pe[id] as usize;
            let at = buf.pe_cursor[pe] as usize;
            buf.start[at] = t;
            buf.end[at] = buf.last_use[id];
            buf.pe_cursor[pe] += 1;
        }

        let mut sweep = TileSweep::default();
        for pe in 0..ids {
            let lo = buf.pe_off[pe] as usize;
            let hi = buf.pe_off[pe + 1] as usize;
            if lo == hi {
                continue;
            }
            let pe_sweep = peak_live(
                &mut buf.start[lo..hi],
                &mut buf.end[lo..hi],
                self.width,
                machine.issue_width,
            );
            sweep.pes_used += 1;
            sweep.peak = sweep.peak.max(pe_sweep.peak);
            sweep.storage_violations += u64::from(pe_sweep.peak > machine.tile_bits);
            sweep.issue_over += u64::from(pe_sweep.issue_over);
        }
        sweep
    }

    /// The flat legality check over interned places: the exact
    /// violation total `legality::check` reports, for every mapping.
    /// Requires `buf.node_pe` to be interned and `sweep` to be its
    /// tile sweep.
    fn violation_total(
        &self,
        machine: &MachineConfig,
        time: &[i64],
        sweep: &TileSweep,
        buf: &ScratchBuf,
    ) -> u64 {
        // 1. Bounds: off-grid nodes and negative times.
        let oob = buf.offgrid.len() as u64;
        let mut total = oob + time.iter().filter(|&&t| t < 0).count() as u64;

        // 2. Causality, only meaningful (and only counted) with every
        // place on the grid.
        if oob == 0 {
            for (d, &td) in time.iter().enumerate() {
                let pd = buf.node_pe[d];
                for &c in self.consumers(d) {
                    let c = c as usize;
                    total += u64::from(self.late(machine, pd, td, buf.node_pe[c], time[c]));
                }
            }
        }

        // 3. Issue width and 4. storage: counted by the tile sweep.
        total + sweep.issue_over + sweep.storage_violations
    }
}

/// What one tile sweep learned.
#[derive(Debug, Default, Clone, Copy)]
struct TileSweep {
    storage_violations: u64,
    issue_over: u64,
    peak: u64,
    pes_used: usize,
}

/// What one PE's lifetime sweep learns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PeSweep {
    /// Peak live bits in the PE's tile.
    pub(crate) peak: u64,
    /// The latest cycle any member issues at.
    pub(crate) last: i64,
    /// Cycles at which more members issue than the issue width allows.
    pub(crate) issue_over: u32,
}

/// The per-PE sweep. A value issued at `start[k]` occupies the tile
/// through cycle `end[k]` (its last use); the peak is the most values
/// live at once, exactly what sorting the (start, +1) / (end + 1, −1)
/// events and running a prefix sum gives. The lifetimes come in member
/// order, where both the starts and the ends are usually ascending
/// already, so each is sorted only when it is out of order and the two
/// are then merged: at equal cycles an end frees its slot before a
/// start takes one, as the event sort orders them. The same pass reads
/// the latest start and counts the cycles with more than `issue_width`
/// starts. Leaves both slices sorted.
pub(crate) fn peak_live(
    start: &mut [i64],
    end: &mut [i64],
    width_bits: u64,
    issue_width: u32,
) -> PeSweep {
    if !start.is_sorted() {
        start.sort_unstable();
    }
    if !end.is_sorted() {
        end.sort_unstable();
    }
    let (mut live, mut peak, mut j) = (0i64, 0i64, 0usize);
    let (mut run, mut issue_over) = (0u32, 0u32);
    for (k, &s) in start.iter().enumerate() {
        while j < end.len() && end[j] < s {
            live -= 1;
            j += 1;
        }
        live += 1;
        peak = peak.max(live);
        run = if k > 0 && start[k - 1] == s {
            run + 1
        } else {
            1
        };
        issue_over += u32::from(u64::from(run) == u64::from(issue_width) + 1);
    }
    PeSweep {
        peak: peak as u64 * width_bits,
        last: start.last().copied().unwrap_or(i64::MIN),
        issue_over,
    }
}

/// The makespan of a time assignment (latest cycle + 1).
fn makespan_of(time: &[i64]) -> i64 {
    time.iter().copied().max().map_or(0, |t| t + 1)
}

/// A reusable arena holding every buffer one candidate evaluation
/// needs. Check one out per worker thread ([`with_thread_scratch`]) or
/// own one (`WarmCache` does); buffers are cleared between uses and
/// never shrink, so steady-state evaluation allocates nothing.
#[derive(Debug, Default)]
pub struct EvalScratch {
    /// Resolved places (the scratch the mapping resolves into).
    pub(crate) place: Vec<(i64, i64)>,
    /// Resolved times.
    pub(crate) time: Vec<i64>,
    /// Everything else (split out so place/time can be borrowed
    /// alongside the working buffers).
    pub(crate) buf: ScratchBuf,
}

/// The working buffers of an [`EvalScratch`], separate from the
/// resolved place/time vectors so the borrow checker can see the two
/// halves are disjoint.
#[derive(Debug, Default)]
pub struct ScratchBuf {
    /// Distinct remote consumer PEs of the node being costed.
    pub(crate) pes: Vec<(i64, i64)>,
    /// Multicast destination list (what-if path only).
    pub(crate) dests: Vec<(u32, u32)>,
    /// Interned PE id per node.
    pub(crate) node_pe: Vec<u32>,
    /// Off-grid (place, node) pairs, sorted by place.
    pub(crate) offgrid: Vec<((i64, i64), NodeId)>,
    /// Ids in use: the grid's PEs plus the distinct off-grid places.
    pub(crate) ids: usize,
    /// Per-PE lifetime offsets (counting-sort prefix) and cursors.
    pe_off: Vec<u32>,
    pe_cursor: Vec<u32>,
    /// Lifetime starts and ends (last uses): grouped per PE in the flat
    /// sweep, one PE's members in `Tiles::refresh_peak`.
    pub(crate) start: Vec<i64>,
    pub(crate) end: Vec<i64>,
    /// Last-use cycle per node.
    last_use: Vec<i64>,
    /// The SoA cost tree this evaluation folds through.
    tree: CostTree,
}

impl EvalScratch {
    /// A fresh, empty arena.
    pub fn new() -> EvalScratch {
        EvalScratch::default()
    }
}

thread_local! {
    static THREAD_SCRATCH: RefCell<EvalScratch> = RefCell::new(EvalScratch::new());
}

/// Run `f` with this thread's persistent [`EvalScratch`]. Each worker
/// thread keeps one arena alive across candidates, which is what makes
/// the tuner's steady state allocation-free. Re-entrant calls (debug
/// parity asserts evaluating inside an outer evaluation) get a
/// temporary arena instead of deadlocking on the `RefCell`.
pub fn with_thread_scratch<R>(f: impl FnOnce(&mut EvalScratch) -> R) -> R {
    THREAD_SCRATCH.with(|s| match s.try_borrow_mut() {
        Ok(mut guard) => f(&mut guard),
        Err(_) => f(&mut EvalScratch::new()),
    })
}

/// A flat evaluation of one candidate, before any result is
/// materialized: everything the tuner's ranking needs, in registers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RawEval {
    /// Legal: the figure-of-merit score plus the report aggregates
    /// benches read.
    Legal {
        /// Scalar score (lower is better) — bit-identical to scoring
        /// the assembled report.
        score: f64,
        /// Makespan in cycles.
        cycles: i64,
        /// Total energy in femtojoules.
        energy_fj: f64,
        /// Peak live bits in any one tile.
        peak_tile_bits: u64,
    },
    /// Illegal, with the exact violation total `legality::check`
    /// reports.
    Illegal(u64),
    /// The mapping does not resolve against the graph.
    Unresolvable,
}

/// Batched candidate evaluation: one [`EvalContext`] shared across a
/// candidate list, per-candidate work done entirely in scratch. This
/// is what `Tuner::tune` fans out over its thread pool — the context
/// hoists the parse/lower/consumer work the reference path redid per
/// candidate.
#[derive(Debug)]
pub struct BatchEvaluator<'a> {
    ev: &'a Evaluator<'a>,
    graph: &'a DataflowGraph,
    machine: &'a MachineConfig,
    fom: FigureOfMerit,
    ctx: EvalContext,
}

impl<'a> BatchEvaluator<'a> {
    /// Precompute the shared context. `graph`/`machine` must be the
    /// evaluator's own (the same contract `evaluate_candidate` has).
    pub fn new(
        ev: &'a Evaluator<'a>,
        graph: &'a DataflowGraph,
        machine: &'a MachineConfig,
        fom: FigureOfMerit,
    ) -> Self {
        BatchEvaluator {
            ev,
            graph,
            machine,
            fom,
            ctx: EvalContext::new(ev),
        }
    }

    /// Evaluate one candidate with this thread's scratch arena.
    /// Bit-identical to `search::evaluate_candidate` (debug-asserted).
    pub fn evaluate_candidate(&self, candidate: &MappingCandidate) -> CandidateEval {
        with_thread_scratch(|scratch| self.evaluate_candidate_in(candidate, scratch))
    }

    /// [`Self::evaluate_candidate`] with an explicit scratch arena.
    pub fn evaluate_candidate_in(
        &self,
        candidate: &MappingCandidate,
        scratch: &mut EvalScratch,
    ) -> CandidateEval {
        let eval = match self.judge(candidate, scratch) {
            Ok(mut report) => {
                // Name the report; the mapping stays in the arena (the
                // tuner resolves only its winner's).
                report.name = self.graph.name.clone();
                let score = self.ev.score(self.fom, &report);
                CandidateEval::Legal { report, score }
            }
            Err(RawEval::Illegal(total)) => CandidateEval::Illegal(total),
            Err(_) => CandidateEval::Unresolvable,
        };
        debug_assert_eq!(
            eval,
            evaluate_candidate_ref(self.ev, self.graph, self.machine, candidate, self.fom),
            "flat candidate evaluation diverged from the reference path"
        );
        eval
    }

    /// The allocation-free core: resolve into scratch, flat legality,
    /// flat cost, score — nothing heap-allocated in steady state,
    /// off-grid candidates included. On success
    /// `scratch.place`/`scratch.time` hold the resolved mapping.
    pub fn evaluate_raw_in(
        &self,
        candidate: &MappingCandidate,
        scratch: &mut EvalScratch,
    ) -> RawEval {
        match self.judge(candidate, scratch) {
            Ok(report) => RawEval::Legal {
                score: self.ev.score(self.fom, &report),
                cycles: report.cycles,
                energy_fj: report.energy().raw(),
                peak_tile_bits: report.peak_tile_bits,
            },
            Err(raw) => raw,
        }
    }

    /// Resolve, check and cost one candidate in scratch: the report
    /// (assembled with an empty name, so nothing allocates) when the
    /// mapping is legal, else its [`RawEval::Illegal`] total or
    /// [`RawEval::Unresolvable`].
    fn judge(
        &self,
        candidate: &MappingCandidate,
        scratch: &mut EvalScratch,
    ) -> Result<CostReport, RawEval> {
        let EvalScratch { place, time, buf } = scratch;
        if candidate
            .mapping
            .resolve_into(self.graph, self.machine, place, time)
            .is_err()
        {
            return Err(RawEval::Unresolvable);
        }
        self.ctx
            .verdict(self.ev, place, time, buf)
            .map_err(RawEval::Illegal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::CExpr;
    use crate::mapping::{Mapping, ResolvedMapping};
    use crate::search::evaluate_candidate;
    use crate::value::Value;

    fn chain(n: usize) -> DataflowGraph {
        let mut g = DataflowGraph::new("chain", 32);
        let mut prev = None;
        for i in 0..n {
            let id = match prev {
                None => g.add_node(CExpr::konst(Value::real(1.0)), vec![], vec![i as i64]),
                Some(p) => g.add_node(
                    CExpr::dep(0).add(CExpr::konst(Value::real(2.0))),
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
    fn flat_matches_reference_on_legal_candidates() {
        let g = chain(12);
        let m = MachineConfig::linear(4);
        let ev = Evaluator::new(&g, &m);
        let cand = MappingCandidate::new("serial", Mapping::serial(&g));
        let batch = BatchEvaluator::new(&ev, &g, &m, FigureOfMerit::Edp);
        let flat = batch.evaluate_candidate(&cand);
        let reference = evaluate_candidate(&ev, &g, &m, &cand, FigureOfMerit::Edp);
        assert_eq!(flat, reference);
    }

    #[test]
    fn flat_matches_reference_on_illegal_candidates() {
        let g = chain(6);
        let m = MachineConfig::linear(4);
        let ev = Evaluator::new(&g, &m);
        // Everything at cycle 0 on one PE: causality + issue width
        // violations.
        let rm = ResolvedMapping {
            place: vec![(0, 0); 6],
            time: vec![0; 6],
        };
        let cand = MappingCandidate::new("bad", Mapping::Table(rm));
        let batch = BatchEvaluator::new(&ev, &g, &m, FigureOfMerit::Time);
        let flat = batch.evaluate_candidate(&cand);
        let reference = evaluate_candidate(&ev, &g, &m, &cand, FigureOfMerit::Time);
        assert_eq!(flat, reference);
    }

    #[test]
    fn off_grid_candidate_falls_back_with_exact_total() {
        let g = chain(3);
        let m = MachineConfig::linear(2);
        let ev = Evaluator::new(&g, &m);
        let rm = ResolvedMapping {
            place: vec![(-1, 0), (5, 0), (0, 0)],
            time: vec![0, 1, 2],
        };
        let cand = MappingCandidate::new("oob", Mapping::Table(rm));
        let batch = BatchEvaluator::new(&ev, &g, &m, FigureOfMerit::Time);
        let flat = batch.evaluate_candidate(&cand);
        let reference = evaluate_candidate(&ev, &g, &m, &cand, FigureOfMerit::Time);
        assert_eq!(flat, reference);
    }

    /// The event sort the merge replaces: (start, +1) and
    /// (end + 1, −1) events, sorted, then a prefix sum.
    fn sorted_peak(lives: &[(i64, i64)]) -> i64 {
        let mut events: Vec<(i64, i64)> = lives
            .iter()
            .flat_map(|&(s, e)| [(s, 1), (e + 1, -1)])
            .collect();
        events.sort_unstable();
        let (mut live, mut peak) = (0i64, 0i64);
        for (_, delta) in events {
            live += delta;
            peak = peak.max(live);
        }
        peak
    }

    #[test]
    fn merged_peak_equals_sorted_peak_on_random_lifetimes() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        for round in 0..2000 {
            let n = rng.random_range(1..24usize);
            let span = rng.random_range(1..12i64);
            let mut lives: Vec<(i64, i64)> = (0..n)
                .map(|_| {
                    let s = rng.random_range(-2..span);
                    // Zero-length lives (end == start) and ends that
                    // meet the next start exactly are both common here.
                    (s, s + rng.random_range(0..4i64))
                })
                .collect();
            // Member order: usually ascending (as the engines see it),
            // sometimes shuffled.
            if round % 3 != 0 {
                lives.sort_unstable();
            } else {
                for k in (1..n).rev() {
                    lives.swap(k, rng.random_range(0..=k));
                }
            }
            let mut start: Vec<i64> = lives.iter().map(|l| l.0).collect();
            let mut end: Vec<i64> = lives.iter().map(|l| l.1).collect();
            let width = rng.random_range(1..4u32);
            let got = peak_live(&mut start, &mut end, 32, width);
            assert_eq!(got.peak, sorted_peak(&lives) as u64 * 32, "lives {lives:?}");
            assert_eq!(got.last, lives.iter().map(|l| l.0).max().unwrap());
            let over = start
                .chunk_by(|a, b| a == b)
                .filter(|run| run.len() as u32 > width)
                .count() as u32;
            assert_eq!(got.issue_over, over, "lives {lives:?} width {width}");
        }
    }

    #[test]
    fn raw_eval_scores_match_full_eval() {
        let g = chain(9);
        let m = MachineConfig::linear(4);
        let ev = Evaluator::new(&g, &m);
        let cand = MappingCandidate::new("serial", Mapping::serial(&g));
        let batch = BatchEvaluator::new(&ev, &g, &m, FigureOfMerit::Edp);
        let mut scratch = EvalScratch::new();
        let raw = batch.evaluate_raw_in(&cand, &mut scratch);
        let full = batch.evaluate_candidate(&cand);
        match (raw, full) {
            (
                RawEval::Legal { score, cycles, .. },
                CandidateEval::Legal {
                    report, score: s, ..
                },
            ) => {
                assert_eq!(score.to_bits(), s.to_bits());
                assert_eq!(cycles, report.cycles);
            }
            other => panic!("expected legal/legal, got {other:?}"),
        }
    }
}
