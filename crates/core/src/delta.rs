//! Incremental cost/legality evaluation: cone-sized work per change.
//!
//! Two engines repair cached evaluation state instead of re-deriving it,
//! and both sit on the flat engine's layout ([`crate::flat`]): its
//! [`EvalContext`] charges every node, its interning rule names every
//! PE, and one dense per-PE structure (`Tiles`: members by interned PE
//! id, each PE's last sweep — peak, latest issue cycle and over-width
//! issue cells — the over-capacity and issue counts, and last uses) is
//! built by one cold pass. The flat engine's `peak_live` is the one
//! definition of a PE's sweep: the annealing engine sweeps each PE with
//! it, and re-runs it one PE at a time; the session engine sorts each
//! PE's lifetimes once, into its per-PE index, reads the sweep off the
//! index, and is checked against `peak_live`.
//!
//! [`DeltaEvaluator`] follows single-node placement moves — what the
//! annealer in [`crate::search`] proposes. Re-deriving the schedule and
//! re-walking the whole graph per move costs O(|V|+|E|), graph-sized
//! work for a cone-sized change, so it repairs only what a move can
//! touch:
//!
//! * **Times** (list schedule): node ids are topological (`deps[k] < id`)
//!   and the retime rule consults only *smaller-id* nodes (producers,
//!   and same-PE occupancy in id order). Processing the dirty set in
//!   increasing id order therefore reaches the exact
//!   [`retime`](crate::search::retime) fixpoint with each node
//!   recomputed at most once. The dirty seed for moving node `n` is
//!   `{n} ∪ consumers(n) ∪ {ids > n on the source or destination PE}`;
//!   a node whose time changes re-dirties its consumers and its same-PE
//!   successors. Every id dirtied is above the one being retimed, so
//!   the dirty set is a bitset over node ids drained by one upward
//!   scan. A PE's successors are scanned once per move from each lower
//!   slot, not once per retimed member (`MoveScratch::ripple`), and a
//!   popped node whose ready cycle and slot range the move left alone
//!   keeps its time without a gap scan. A retimed node moved one term
//!   of its own last use and of each producer's, so a last use is
//!   re-folded over its consumers only when the moved term held the
//!   maximum and fell.
//! * **Ledger** (energy/traffic): per-node contributions
//!   ([`NodeCost`]) are time-independent, and a move changes only the
//!   moved node's own contribution and its producers' def→use messages
//!   — `deg(n) + 1` leaves of a fixed-shape reduction tree
//!   ([`CostTree`]), refreshed in O(deg·log V). Because the full
//!   evaluator sums through the *same* tree, totals agree bit-for-bit.
//! * **Storage legality**: only the source/destination PEs, the PEs of
//!   retimed nodes, and the PEs of values whose last use moved can
//!   change. A PE among them whose member count × value width exceeds
//!   the tile capacity is re-swept at once, since it may be over
//!   capacity. Any other cannot be, so only its latest issue cycle
//!   (which the makespan needs) is taken, by a member scan, and its
//!   peak sweep is deferred until something reads peaks: a full
//!   [`DeltaEvaluator::report`] or the footprint objective. The undo
//!   journal restores deferrals with the sweeps. A sweep reads the
//!   PE's lifetimes in member order, where they are usually ascending
//!   already, and merges them, sorting only when they are out of
//!   order. Output lifetimes use a far-future sentinel instead of the
//!   makespan — the peak of an interval stack is invariant to any
//!   right endpoint past the last start — so peaks never depend on
//!   makespan changes.
//! * **Aggregates**: makespan and the global peak are maxima over the
//!   per-PE sweeps (one pass over the PEs, not the nodes); PEs-used is
//!   the number of occupied PEs; the storage-violation count is
//!   maintained as sweeps change. [`DeltaEvaluator::score`] is
//!   therefore one tree-root read plus a pass over the PEs, and
//!   allocates nothing; [`DeltaEvaluator::report`] first sweeps the
//!   deferred PEs.
//!
//! In debug builds every [`DeltaEvaluator::apply_move`] re-derives the
//! full schedule and report and asserts bit-exact equality
//! ([`DeltaEvaluator::assert_parity`]); property tests in the workspace
//! root drive random move sequences through the same assertion.
//!
//! Every cached field is a pure function of the placement vector, so
//! undoing a move can always fall back to applying the reverse move;
//! [`DeltaEvaluator::undo`] is cheaper — each move journals the values
//! it overwrites (`refresh_peak` hands back the sweep it replaced), and
//! replaying the journal in reverse restores the prior state with no
//! scheduling, sweeping, or sorting at all. The annealer uses it to make
//! rejected proposals nearly free.
//!
//! [`DeltaCandidates`] applies the same bit-exactness discipline to a
//! *pool* of mapping candidates under **structural** edits
//! ([`AppliedEdit`]: add/remove node, retarget edge, resize tile).
//! One [`EvalContext`] follows every edit in place (new cost prefixes
//! and input reads, patched consumer lists, exact DRAM and writeback
//! counts). A candidate's places and times are pure functions of each
//! node's immutable domain index (affine) or of a fixed table, so an
//! edit never reschedules surviving nodes — the legality counters
//! (bounds, causality, and the per-PE sweeps' issue width and storage)
//! and the cost-tree leaves are repaired in edit-cone-sized work per
//! candidate, the tree re-folding only the paths above changed slots,
//! and a candidate's evaluation stays bit-identical to
//! [`BatchEvaluator::evaluate_candidate`](crate::flat::BatchEvaluator::evaluate_candidate)
//! run cold on the edited graph.
//!
//! An edit moves at most a few lifetimes on a PE (a member added or
//! removed, a producer's last use moved), but a PE may hold thousands
//! of members, so the session engine does not re-sweep it. Since the
//! times never change, each PE keeps its members' lifetime events
//! (issue and free) sorted, in blocks of 64 that each carry their sum
//! and their largest prefix sum (`LiveIndex`). The PE's peak is the
//! largest running sum, a fold over the blocks; a moved last use moves
//! one event, usually within its block; a member comes or goes as two
//! events. A repair therefore costs O(64 + m/64) on a PE of m members,
//! not O(m), and the sweep it yields equals `peak_live` over the same
//! members bit for bit (the parity tests check every PE after every
//! edit). Per node, a candidate keeps a time, an interned PE id (its
//! place is derived from the id), a last use, two lifetime events and
//! a cost leaf — about 90 bytes on the session benchmark's shape — and
//! an evaluation hands back a report and a score, never a copy of the
//! mapping.
//! An edit that invalidates a candidate (a table length change, a new
//! node without a domain index) drops its cached state; the next
//! evaluation rebuilds it cold and counts the rebuild, which is how the
//! session layer above classifies warm vs cold re-tunes.

use crate::cost::{CostReport, CostTree, Evaluator, NodeCost};
use crate::dataflow::{DataflowGraph, Node, NodeId};
use crate::flat::{peak_live, EvalContext, PeSweep, ScratchBuf};
use crate::machine::MachineConfig;
use crate::mapping::{Mapping, ResolvedMapping};
use crate::mutate::AppliedEdit;
use crate::search::{CandidateEval, FigureOfMerit};

/// Stand-in for "lives forever" in lifetime sweeps. Any value past the
/// last production cycle yields the same peak; this one also never
/// overflows `+ 1`.
const FAR_FUTURE: i64 = i64::MAX / 4;

/// Per-PE occupancy and storage state over interned PE ids: the one
/// dense structure both incremental engines keep. `M` is how a PE
/// holds its members: the anneal engine's ascending id lists, or the
/// session engine's [`LiveIndex`]es.
#[derive(Debug)]
struct Tiles<M = Vec<NodeId>> {
    /// Members per PE, indexed by interned PE id. Empty means
    /// unoccupied (kept allocated for reuse).
    members: Vec<M>,
    /// Number of non-empty member lists — the report's PEs-used.
    occupied: usize,
    /// Each PE's last sweep (peak, latest issue cycle, over-width issue
    /// cells); `None` = unoccupied. The makespan and the global peak
    /// are maxima over it.
    sweeps: Vec<Option<PeSweep>>,
    /// PEs whose peak exceeds the tile capacity.
    over_capacity: u64,
    /// Issue cells over the machine's width, summed over PEs.
    issue_over: u64,
    /// max(own time, consumer times). The anneal engine does not extend
    /// outputs here — its sweep substitutes [`FAR_FUTURE`] for them;
    /// the session engine stores [`FAR_FUTURE`] for them.
    last_use: Vec<i64>,
}

/// Node `id`'s last use: its own time, relaxed over its consumers'.
fn last_use_of(ctx: &EvalContext, time: &[i64], id: usize) -> i64 {
    ctx.consumers(id)
        .iter()
        .fold(time[id], |lu, &c| lu.max(time[c as usize]))
}

/// The earliest cycle node `i`'s operands allow at its place: each
/// producer's time plus the wire gap from its place — the `ready` of
/// [`crate::search::retime`]'s list schedule.
fn ready_at(
    graph: &DataflowGraph,
    machine: &MachineConfig,
    place: &[(i64, i64)],
    time: &[i64],
    i: usize,
) -> i64 {
    let to = (place[i].0 as u32, place[i].1 as u32);
    graph.nodes[i].deps.iter().fold(0, |ready, &d| {
        let from = place[d as usize];
        let gap = machine.required_gap((from.0 as u32, from.1 as u32), to);
        ready.max(time[d as usize] + gap)
    })
}

/// Intern `place` by the flat engine's rule, leaving the ids in
/// `buf.node_pe` and the off-grid pairs in `buf.offgrid`, and list each
/// interned PE's members, ascending.
fn member_lists(ctx: &EvalContext, place: &[(i64, i64)], buf: &mut ScratchBuf) -> Vec<Vec<NodeId>> {
    ctx.intern_places(place, buf);
    let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); buf.ids];
    for (id, &pe) in buf.node_pe.iter().enumerate() {
        members[pe as usize].push(id as NodeId);
    }
    members
}

impl Tiles {
    /// The anneal engine's cold pass: [`member_lists`], then last uses
    /// and every occupied PE's sweep.
    fn build(
        ctx: &EvalContext,
        place: &[(i64, i64)],
        time: &[i64],
        machine: &MachineConfig,
        buf: &mut ScratchBuf,
    ) -> Tiles {
        let members = member_lists(ctx, place, buf);
        let ids = members.len();
        let mut tiles = Tiles {
            occupied: members.iter().filter(|l| !l.is_empty()).count(),
            members,
            sweeps: vec![None; ids],
            over_capacity: 0,
            issue_over: 0,
            last_use: (0..time.len())
                .map(|id| last_use_of(ctx, time, id))
                .collect(),
        };
        for pe in 0..ids {
            tiles.refresh_peak(pe, ctx, time, machine, buf);
        }
        tiles
    }

    /// Add node `id` to PE `pe`'s member list, keeping it ascending.
    fn insert(&mut self, pe: usize, id: NodeId) {
        let list = &mut self.members[pe];
        self.occupied += usize::from(list.is_empty());
        let at = list.binary_search(&id).expect_err("node already on its PE");
        list.insert(at, id);
    }

    /// Take node `id` off PE `pe`'s member list; returns its position.
    fn remove(&mut self, pe: usize, id: NodeId) -> usize {
        let list = &mut self.members[pe];
        let at = list.binary_search(&id).expect("node on its PE");
        list.remove(at);
        self.occupied -= usize::from(list.is_empty());
        at
    }

    /// Sweep PE `pe`: [`peak_live`] over its members' lifetimes, in
    /// member order, through `buf`'s lifetime buffers; `None` when the
    /// PE is unoccupied.
    fn sweep(
        &self,
        pe: usize,
        ctx: &EvalContext,
        time: &[i64],
        machine: &MachineConfig,
        buf: &mut ScratchBuf,
    ) -> Option<PeSweep> {
        let list = &self.members[pe];
        (!list.is_empty()).then(|| {
            buf.start.clear();
            buf.end.clear();
            for &j in list {
                let j = j as usize;
                buf.start.push(time[j]);
                buf.end.push(if ctx.is_output(j) {
                    FAR_FUTURE
                } else {
                    self.last_use[j]
                });
            }
            peak_live(
                &mut buf.start,
                &mut buf.end,
                ctx.width_bits(),
                machine.issue_width,
            )
        })
    }

    /// Re-sweep PE `pe` and fold a change into the over-capacity and
    /// issue counts. Returns the sweep it replaced when the sweep
    /// changed.
    fn refresh_peak(
        &mut self,
        pe: usize,
        ctx: &EvalContext,
        time: &[i64],
        machine: &MachineConfig,
        buf: &mut ScratchBuf,
    ) -> Option<Option<PeSweep>> {
        let new = self.sweep(pe, ctx, time, machine, buf);
        (self.sweeps[pe] != new).then(|| self.set_sweep(pe, new, machine.tile_bits))
    }
}

impl<M: Default> Tiles<M> {
    /// Make room for PE id `pe` (a newly interned off-grid place).
    fn ensure(&mut self, pe: usize) {
        if pe >= self.members.len() {
            self.members.resize_with(pe + 1, M::default);
            self.sweeps.resize(pe + 1, None);
        }
    }
}

impl<M> Tiles<M> {
    fn makespan(&self) -> i64 {
        self.sweeps
            .iter()
            .flatten()
            .map(|s| s.last + 1)
            .max()
            .unwrap_or(0)
    }

    fn global_peak(&self) -> u64 {
        self.sweeps
            .iter()
            .flatten()
            .map(|s| s.peak)
            .max()
            .unwrap_or(0)
    }

    /// Re-derive node `id`'s last use from its consumers' times;
    /// returns the value it replaced when it changed.
    fn relax_last_use(&mut self, ctx: &EvalContext, time: &[i64], id: usize) -> Option<i64> {
        let lu = last_use_of(ctx, time, id);
        (lu != self.last_use[id]).then(|| std::mem::replace(&mut self.last_use[id], lu))
    }

    /// Node `id`'s last use after one time it folds over (its own or
    /// a consumer's) moved from `old` to `new`: exact without a re-fold
    /// unless the moved time held the maximum and fell. Returns the
    /// value it replaced when it changed.
    fn follow_last_use(
        &mut self,
        ctx: &EvalContext,
        time: &[i64],
        id: usize,
        old: i64,
        new: i64,
    ) -> Option<i64> {
        let lu = self.last_use[id];
        if new > lu {
            Some(std::mem::replace(&mut self.last_use[id], new))
        } else if old == lu && new < old {
            self.relax_last_use(ctx, time, id)
        } else {
            None
        }
    }

    /// Set PE `pe`'s sweep, keeping the over-capacity and issue counts
    /// exact; returns the sweep it replaced.
    fn set_sweep(&mut self, pe: usize, sweep: Option<PeSweep>, tile_bits: u64) -> Option<PeSweep> {
        let old = std::mem::replace(&mut self.sweeps[pe], sweep);
        if let Some(o) = old {
            self.over_capacity -= u64::from(o.peak > tile_bits);
            self.issue_over -= u64::from(o.issue_over);
        }
        if let Some(v) = sweep {
            self.over_capacity += u64::from(v.peak > tile_bits);
            self.issue_over += u64::from(v.issue_over);
        }
        old
    }
}

/// Lifetime events per [`LiveIndex`] block: blocks are built this full
/// and split in two when they reach twice this.
const BLOCK: usize = 64;

/// Reads where a lifetime event sits in sweep order from a candidate's
/// times and last uses (the session engine's, where an output's last
/// use is [`FAR_FUTURE`]).
#[derive(Clone, Copy)]
struct EventOrder<'s> {
    time: &'s [i64],
    last_use: &'s [i64],
}

impl EventOrder<'_> {
    /// Event `e`'s key, (cycle, kind, node). Node `j`'s start event
    /// `2j + 1` sits at its issue cycle and its end event `2j` at the
    /// cycle its slot frees, last use + 1. At equal cycles a slot frees
    /// before a start takes one: the order [`peak_live`] visits them in.
    #[inline]
    fn key(&self, e: u32) -> (i64, u32, u32) {
        let j = (e >> 1) as usize;
        let cycle = if e & 1 == 1 {
            self.time[j]
        } else {
            self.last_use[j] + 1
        };
        (cycle, e & 1, e >> 1)
    }

    /// Node `j`'s start event, with its cycle.
    fn start(&self, j: NodeId) -> (i64, u32) {
        (self.time[j as usize], j << 1 | 1)
    }

    /// Node `j`'s end event, with its cycle.
    fn end(&self, j: NodeId) -> (i64, u32) {
        (self.last_use[j as usize] + 1, j << 1)
    }
}

/// A run of a [`LiveIndex`]'s events, with the summary the peak folds
/// and the key the block-level search reads.
#[derive(Debug)]
struct EventBlock {
    /// The key of the last event, so that finding a block reads no
    /// event.
    last: (i64, u32, u32),
    /// Starts minus ends.
    sum: i32,
    /// The largest running sum over the block's prefixes.
    max: i32,
    /// Start events.
    starts: u32,
    /// Events in sweep order; never empty.
    ev: Vec<u32>,
}

impl EventBlock {
    fn new(ev: Vec<u32>, order: EventOrder<'_>) -> EventBlock {
        let mut block = EventBlock {
            last: (0, 0, 0),
            sum: 0,
            max: 0,
            starts: 0,
            ev,
        };
        block.summarize(order);
        block
    }

    /// Re-derive the summary and the last key from the events.
    fn summarize(&mut self, order: EventOrder<'_>) {
        let (mut sum, mut max, mut starts) = (0i32, i32::MIN, 0u32);
        for &e in &self.ev {
            let start = e & 1;
            sum += 2 * start as i32 - 1;
            max = max.max(sum);
            starts += start;
        }
        (self.sum, self.max, self.starts) = (sum, max, starts);
        self.last = order.key(self.ev[self.ev.len() - 1]);
    }
}

/// The session engine's per-PE max-live index: one PE's members and
/// their sweep, kept under edits at O(B + m/B) per change for m
/// members, blocks of B events, instead of an O(m) re-sweep.
///
/// A PE's [`peak_live`] sweep is the largest running sum over its
/// lifetime events in sweep order: +1 where a member issues, −1 where
/// its slot frees. A candidate's times never change under structural
/// edits; only last uses move, and members come and go. So the index
/// holds each member as two `u32` events (8 bytes per member) sorted
/// by [`EventOrder`], in blocks that each carry their sum and their
/// largest prefix sum. A moved last use re-positions its end event,
/// within its block when it stays there; a member comes or goes as its
/// two events; each is a binary search and a shift within one block,
/// and the peak is a fold over the block summaries. The latest issue
/// cycle is the last start event; the over-width issue cycles are
/// counted as starts come and go, since the starts at one cycle are
/// adjacent in sweep order.
#[derive(Debug, Default)]
struct LiveIndex {
    blocks: Vec<EventBlock>,
    /// Issue cycles with more starts than the issue width.
    issue_over: u32,
}

impl LiveIndex {
    /// Index the members `list`: their starts and their ends, each
    /// with its cycle and each sorted only when out of order, merged
    /// into blocks in one pass that also sums each block and counts
    /// the over-width issue cycles. `events` is a reusable buffer.
    fn build(
        list: &[NodeId],
        order: EventOrder<'_>,
        issue_width: u32,
        events: &mut Vec<(i64, u32)>,
    ) -> LiveIndex {
        let m = list.len();
        events.clear();
        events.extend(list.iter().map(|&j| order.start(j)));
        events.extend(list.iter().map(|&j| order.end(j)));
        // (cycle, event) pairs order starts, and ends, by (cycle, node).
        let (starts, ends) = events.split_at_mut(m);
        for half in [starts, ends] {
            if !half.is_sorted() {
                half.sort_unstable();
            }
        }
        let mut index = LiveIndex {
            blocks: Vec::with_capacity((2 * m).div_ceil(BLOCK)),
            issue_over: 0,
        };
        let block = |len: usize| EventBlock {
            last: (0, 0, 0),
            sum: 0,
            max: i32::MIN,
            starts: 0,
            ev: Vec::with_capacity(BLOCK.min(len)),
        };
        let mut open = block(2 * m);
        let (mut i, mut j) = (0, m);
        let (mut run, mut prev) = (0u32, None);
        while i < m || j < 2 * m {
            // At equal cycles the end goes first.
            let at = if j == 2 * m || (i < m && events[i].0 < events[j].0) {
                &mut i
            } else {
                &mut j
            };
            let (cycle, e) = events[*at];
            *at += 1;
            let start = e & 1;
            if start == 1 {
                run = if prev == Some(cycle) { run + 1 } else { 1 };
                prev = Some(cycle);
                index.issue_over += u32::from(u64::from(run) == u64::from(issue_width) + 1);
            }
            open.sum += 2 * start as i32 - 1;
            open.max = open.max.max(open.sum);
            open.starts += start;
            open.last = (cycle, start, e >> 1);
            open.ev.push(e);
            if open.ev.len() == BLOCK {
                let left = 2 * m - i - (j - m);
                index.blocks.push(std::mem::replace(&mut open, block(left)));
            }
        }
        if !open.ev.is_empty() {
            index.blocks.push(open);
        }
        index
    }

    fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// The member ids, in issue order.
    #[cfg(test)]
    fn members(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.blocks
            .iter()
            .flat_map(|b| &b.ev)
            .filter(|&&e| e & 1 == 1)
            .map(|&e| e >> 1)
    }

    /// The first event at or past `key`, as (block, offset); the block
    /// is `blocks.len()` when every event sits before `key`.
    fn seek(&self, key: (i64, u32, u32), order: EventOrder<'_>) -> (usize, usize) {
        self.seek_by(key, |e| order.key(e))
    }

    /// [`Self::seek`], reading each event's key with `key_of`.
    fn seek_by(
        &self,
        key: (i64, u32, u32),
        key_of: impl Fn(u32) -> (i64, u32, u32),
    ) -> (usize, usize) {
        let b = self.blocks.partition_point(|b| b.last < key);
        let at = self
            .blocks
            .get(b)
            .map_or(0, |b| b.ev.partition_point(|&e| key_of(e) < key));
        (b, at)
    }

    /// Move event `e`, whose key was `old`, to where `order` places it
    /// now. A move that stays within its block (a last use moved past
    /// a few events) re-sums that block once.
    fn reposition(&mut self, e: u32, old: (i64, u32, u32), order: EventOrder<'_>) {
        let (b, at) = self.seek_by(old, |x| if x == e { old } else { order.key(x) });
        let new = order.key(e);
        let prev = b.checked_sub(1).map(|p| self.blocks[p].last);
        let block = &mut self.blocks[b];
        assert_eq!(block.ev[at], e, "lifetime event in its place");
        block.ev.remove(at);
        let stays =
            prev.is_none_or(|p| p < new) && block.ev.last().is_some_and(|&l| new < order.key(l));
        if stays {
            let to = block.ev.partition_point(|&x| order.key(x) < new);
            block.ev.insert(to, e);
            block.summarize(order);
        } else {
            if block.ev.is_empty() {
                self.blocks.remove(b);
            } else {
                block.summarize(order);
            }
            self.insert(e, order);
        }
    }

    /// Put event `e` in its place in sweep order.
    fn insert(&mut self, e: u32, order: EventOrder<'_>) {
        let (mut b, mut at) = self.seek(order.key(e), order);
        if b == self.blocks.len() {
            let Some(last) = self.blocks.last() else {
                self.blocks.push(EventBlock::new(vec![e], order));
                return;
            };
            (b, at) = (b - 1, last.ev.len());
        }
        let block = &mut self.blocks[b];
        block.ev.insert(at, e);
        if block.ev.len() == 2 * BLOCK {
            let tail = block.ev.split_off(BLOCK);
            block.summarize(order);
            self.blocks.insert(b + 1, EventBlock::new(tail, order));
        } else {
            block.summarize(order);
        }
    }

    /// Take event `e` out; its key must read as it did when it went in.
    fn remove(&mut self, e: u32, order: EventOrder<'_>) {
        let (b, at) = self.seek(order.key(e), order);
        let block = &mut self.blocks[b];
        assert_eq!(block.ev[at], e, "lifetime event in its place");
        block.ev.remove(at);
        if block.ev.is_empty() {
            self.blocks.remove(b);
        } else {
            block.summarize(order);
        }
    }

    /// Start events at cycle `t`, counted up to `cap`.
    fn starts_at(&self, t: i64, cap: u32, order: EventOrder<'_>) -> u32 {
        let (b, at) = self.seek((t, 1, 0), order);
        let mut n = 0;
        for (k, block) in self.blocks.iter().enumerate().skip(b) {
            for &e in &block.ev[if k == b { at } else { 0 }..] {
                if n == cap || e & 1 == 0 || order.time[(e >> 1) as usize] != t {
                    return n;
                }
                n += 1;
            }
        }
        n
    }

    /// Whether `issue_width` is first exceeded (or last, on the way
    /// down) when the starts at cycle `t` number what they number now.
    fn at_issue_bound(&self, t: i64, issue_width: u32, order: EventOrder<'_>) -> bool {
        let n = self.starts_at(t, issue_width.saturating_add(2), order);
        u64::from(n) == u64::from(issue_width) + 1
    }

    /// Add member `j`, whose time and last use `order` reads.
    fn add(&mut self, j: NodeId, order: EventOrder<'_>, issue_width: u32) {
        self.insert(j << 1 | 1, order);
        self.insert(j << 1, order);
        let t = order.time[j as usize];
        self.issue_over += u32::from(self.at_issue_bound(t, issue_width, order));
    }

    /// Take member `j` out.
    fn take(&mut self, j: NodeId, order: EventOrder<'_>, issue_width: u32) {
        let t = order.time[j as usize];
        self.issue_over -= u32::from(self.at_issue_bound(t, issue_width, order));
        self.remove(j << 1 | 1, order);
        self.remove(j << 1, order);
    }

    /// Node ids above `r` shift down by one (node `r` was removed). The
    /// order is unchanged.
    fn renumber_above(&mut self, r: NodeId) {
        for block in &mut self.blocks {
            for e in &mut block.ev {
                if *e >> 1 > r {
                    *e -= 2;
                }
            }
            block.last.2 -= u32::from(block.last.2 > r);
        }
    }

    /// The PE's sweep, exactly as [`peak_live`] over its members gives
    /// it; `None` when the PE is unoccupied.
    fn sweep(&self, order: EventOrder<'_>, width_bits: u64) -> Option<PeSweep> {
        let last = self.blocks.iter().rev().find(|b| b.starts > 0)?;
        let last = last.ev.iter().rev().find(|&&e| e & 1 == 1)?;
        let (mut sum, mut peak) = (0i32, 0i32);
        for b in &self.blocks {
            peak = peak.max(sum + b.max);
            sum += b.sum;
        }
        Some(PeSweep {
            peak: peak as u64 * width_bits,
            last: order.time[(last >> 1) as usize],
            issue_over: self.issue_over,
        })
    }
}

impl Tiles<LiveIndex> {
    /// The session engine's cold pass: [`member_lists`], last uses
    /// (outputs' at [`FAR_FUTURE`]), each PE's members indexed, and its
    /// sweep read off its index — each PE's lifetimes are sorted once,
    /// for the index, and never swept on their own.
    fn indexed(
        ctx: &EvalContext,
        place: &[(i64, i64)],
        time: &[i64],
        machine: &MachineConfig,
        buf: &mut ScratchBuf,
    ) -> Tiles<LiveIndex> {
        let lists = member_lists(ctx, place, buf);
        let last_use: Vec<i64> = (0..time.len())
            .map(|id| {
                if ctx.is_output(id) {
                    FAR_FUTURE
                } else {
                    last_use_of(ctx, time, id)
                }
            })
            .collect();
        let order = EventOrder {
            time,
            last_use: &last_use,
        };
        let mut events = Vec::new();
        let members: Vec<LiveIndex> = lists
            .iter()
            .map(|list| LiveIndex::build(list, order, machine.issue_width, &mut events))
            .collect();
        let mut tiles = Tiles {
            occupied: lists.iter().filter(|l| !l.is_empty()).count(),
            sweeps: vec![None; members.len()],
            members,
            over_capacity: 0,
            issue_over: 0,
            last_use,
        };
        for pe in 0..tiles.members.len() {
            tiles.refresh(pe, time, ctx.width_bits(), machine.tile_bits);
        }
        tiles
    }

    fn order<'s>(&'s self, time: &'s [i64]) -> EventOrder<'s> {
        EventOrder {
            time,
            last_use: &self.last_use,
        }
    }

    /// Add node `j` to PE `pe`; its time and last use are in place.
    fn add(&mut self, pe: usize, j: NodeId, time: &[i64], issue_width: u32) {
        let order = EventOrder {
            time,
            last_use: &self.last_use,
        };
        let index = &mut self.members[pe];
        self.occupied += usize::from(index.is_empty());
        index.add(j, order, issue_width);
    }

    /// Take node `j` off PE `pe`, before the arrays drop it.
    fn take(&mut self, pe: usize, j: NodeId, time: &[i64], issue_width: u32) {
        let order = EventOrder {
            time,
            last_use: &self.last_use,
        };
        let index = &mut self.members[pe];
        index.take(j, order, issue_width);
        self.occupied -= usize::from(index.is_empty());
    }

    /// Set node `j`'s last use on PE `pe` to `lu`, moving its end
    /// event; returns whether it changed.
    fn move_end(&mut self, pe: usize, j: usize, lu: i64, time: &[i64]) -> bool {
        let old = std::mem::replace(&mut self.last_use[j], lu);
        if old == lu {
            return false;
        }
        let end = (j as NodeId) << 1;
        let order = EventOrder {
            time,
            last_use: &self.last_use,
        };
        self.members[pe].reposition(end, (old + 1, 0, j as NodeId), order);
        true
    }

    /// Bring PE `pe`'s sweep up to date from its index.
    fn refresh(&mut self, pe: usize, time: &[i64], width_bits: u64, tile_bits: u64) {
        let sweep = self.members[pe].sweep(self.order(time), width_bits);
        if self.sweeps[pe] != sweep {
            self.set_sweep(pe, sweep, tile_bits);
        }
    }

    /// Assert that every last use is exact; that every PE's index
    /// holds exactly the members `node_pe` puts on it, in sweep order,
    /// with exact block summaries; that its sweep and the held one
    /// equal a fresh [`peak_live`] over those members; and that the
    /// over-capacity, issue and occupancy counts are the sums over the
    /// held sweeps. O(|V|) and allocating: for parity checks.
    #[cfg(test)]
    fn assert_indexed(
        &self,
        ctx: &EvalContext,
        node_pe: &[u32],
        time: &[i64],
        machine: &MachineConfig,
    ) {
        let order = self.order(time);
        let width = ctx.width_bits();
        for (j, &lu) in self.last_use.iter().enumerate() {
            let want = if ctx.is_output(j) {
                FAR_FUTURE
            } else {
                last_use_of(ctx, time, j)
            };
            assert_eq!(lu, want, "node {j}: stale last use");
        }
        let mut on = vec![0usize; self.members.len()];
        for &pe in node_pe {
            on[pe as usize] += 1;
        }
        let (mut over_capacity, mut issue_over, mut occupied) = (0, 0, 0);
        for (pe, index) in self.members.iter().enumerate() {
            let ev: Vec<u32> = index.blocks.iter().flat_map(|b| b.ev.clone()).collect();
            assert!(
                ev.windows(2).all(|w| order.key(w[0]) < order.key(w[1])),
                "PE {pe}: events out of sweep order"
            );
            for b in &index.blocks {
                let fresh = EventBlock::new(b.ev.clone(), order);
                assert_eq!(
                    (b.last, b.sum, b.max, b.starts),
                    (fresh.last, fresh.sum, fresh.max, fresh.starts),
                    "PE {pe}: stale block summary"
                );
            }
            let members: Vec<NodeId> = index.members().collect();
            assert_eq!(members.len(), on[pe], "PE {pe}: member count");
            assert_eq!(ev.len(), 2 * members.len(), "PE {pe}: unpaired events");
            assert!(
                members.iter().all(|&j| node_pe[j as usize] == pe as u32),
                "PE {pe}: a member of another PE"
            );
            let (mut start, mut end): (Vec<i64>, Vec<i64>) = members
                .iter()
                .map(|&j| (time[j as usize], self.last_use[j as usize]))
                .unzip();
            let fresh = (!members.is_empty())
                .then(|| peak_live(&mut start, &mut end, width, machine.issue_width));
            assert_eq!(index.sweep(order, width), fresh, "PE {pe}: indexed sweep");
            assert_eq!(self.sweeps[pe], fresh, "PE {pe}: held sweep");
            if let Some(f) = fresh {
                over_capacity += u64::from(f.peak > machine.tile_bits);
                issue_over += u64::from(f.issue_over);
                occupied += 1;
            }
        }
        assert_eq!(
            (self.over_capacity, self.issue_over, self.occupied),
            (over_capacity, issue_over, occupied),
            "per-PE counts"
        );
    }
}

/// One recorded mutation of [`DeltaEvaluator`] state, with the value
/// it replaced — replaying a move's entries in reverse restores the
/// exact prior state without re-running any scheduling.
#[derive(Debug, Clone, Copy)]
enum UndoEntry {
    /// The moved node's former place (undo moves it back).
    Place {
        node: usize,
        pe: (i64, i64),
    },
    Time {
        id: NodeId,
        t: i64,
    },
    LastUse {
        id: NodeId,
        t: i64,
    },
    Ready {
        id: NodeId,
        t: i64,
    },
    /// A PE's former sweep and whether its peak was deferred.
    Sweep {
        pe: u32,
        v: Option<PeSweep>,
        deferred: bool,
    },
    Leaf {
        id: NodeId,
        cost: NodeCost,
    },
}

/// Per-PE occupancy shared across the pops of one move: the slots of
/// finalized smaller-id same-PE members, as a bitmap over a window of
/// cycles filled as a cursor walks up the PE's membership list, and
/// the slots the move has vacated and taken on the PE so far.
#[derive(Debug, Default)]
struct Occ {
    cursor: usize,
    /// The window's first cycle: bit `t − base` of `bits` marks slot
    /// `t`. `i64::MAX` until the move's first gap search on the PE.
    base: i64,
    bits: Vec<u64>,
    vacated: Vec<i64>,
    taken: Vec<i64>,
}

impl Occ {
    /// The list schedule's slot for member `i` of a PE (members `list`,
    /// ascending) ready at `ready`: the first cycle from `ready` on that
    /// no smaller-id member holds, the gap [`crate::search::retime`]'s
    /// scan finds. Fewer than `list.len()` members hold cycles from
    /// `ready` on, so the answer is at most `ready + list.len()`, and
    /// the window need only span those cycles: it is at least twice the
    /// member count wide, and is re-anchored at `ready` (and refilled
    /// from the list's start) when they fall outside it.
    fn first_free(&mut self, list: &[NodeId], i: NodeId, ready: i64, time: &[i64]) -> i64 {
        let top = ready + list.len() as i64;
        if ready < self.base || top >= self.base + 64 * self.bits.len() as i64 {
            let words = list.len() / 32 + 2;
            if self.bits.len() < words {
                self.bits.resize(words, 0);
            }
            self.bits.fill(0);
            self.base = ready - ready % 64;
            self.cursor = 0;
        }
        let end = self.base + 64 * self.bits.len() as i64;
        while self.cursor < list.len() && list[self.cursor] < i {
            let t = time[list[self.cursor] as usize];
            if (self.base..end).contains(&t) {
                let k = (t - self.base) as usize;
                debug_assert!(
                    self.bits[k / 64] & 1 << (k % 64) == 0,
                    "finalized same-PE times are pairwise distinct"
                );
                self.bits[k / 64] |= 1 << (k % 64);
            }
            self.cursor += 1;
        }
        let k = (ready - self.base) as usize;
        let mut w = k / 64;
        let mut free = !self.bits[w] & !0 << (k % 64);
        while free == 0 {
            w += 1;
            free = !self.bits[w];
        }
        self.base + 64 * w as i64 + i64::from(free.trailing_zeros())
    }
}

/// The retime pass's dirty set: one bit per node id. Every push
/// targets an id above the latest pop, so a scan that only moves
/// upward pops the ids in increasing order and leaves the set empty
/// for the next move.
#[derive(Debug, Default)]
struct Frontier {
    words: Vec<u64>,
    /// The word the scan is at.
    at: usize,
}

impl Frontier {
    /// An empty set over `n` ids.
    fn new(n: usize) -> Frontier {
        Frontier {
            words: vec![0; n.div_ceil(64)],
            at: 0,
        }
    }

    /// Start a move whose dirty ids are all at least `first`.
    fn start(&mut self, first: usize) {
        debug_assert!(self.words.iter().all(|&w| w == 0), "frontier drained");
        self.at = first / 64;
    }

    #[inline]
    fn push(&mut self, id: usize) {
        debug_assert!(id / 64 >= self.at, "pushes target ids above the scan");
        self.words[id / 64] |= 1 << (id % 64);
    }

    /// The smallest dirty id, removed from the set.
    #[inline]
    fn pop(&mut self) -> Option<usize> {
        while let Some(&w) = self.words.get(self.at) {
            if w != 0 {
                self.words[self.at] = w & (w - 1);
                return Some(self.at * 64 + w.trailing_zeros() as usize);
            }
            self.at += 1;
        }
        None
    }
}

/// Reusable per-move working buffers. Taken out of the evaluator at the
/// start of [`DeltaEvaluator::apply_move`] (so the borrow checker sees
/// them as locals) and put back at the end; cleared via epoch stamps and
/// `clear()`, never freed, so steady-state moves allocate nothing.
#[derive(Debug, Default)]
struct MoveScratch {
    frontier: Frontier,
    /// Dense per-PE occupancy records, validated by epoch stamp.
    occ: Vec<Occ>,
    occ_epoch: Vec<u64>,
    /// Per PE, the lowest slot a same-PE ripple has started from this
    /// move (see [`MoveScratch::ripple`]), validated by epoch stamp.
    rippled: Vec<i64>,
    ripple_epoch: Vec<u64>,
    epoch: u64,
    /// Interned ids of PEs whose lifetimes may have moved, each listed
    /// once: `dirty_epoch[pe]` is stamped when `pe` is listed.
    dirty_pes: Vec<usize>,
    dirty_epoch: Vec<u64>,
    /// The flat engine's buffers for peak re-sweeps and re-costs.
    buf: ScratchBuf,
}

impl MoveScratch {
    /// Push the members of PE `pe` (its ascending member list `list`)
    /// above id `after` whose time is at or past `lo`: the same-PE
    /// successors whose gap scan can reach a slot vacated or taken at
    /// `lo` or later (a scan never consults slots above its node's own
    /// time). A PE already rippled this move from `lo` or below is not
    /// scanned again, and that is exact: pops come in increasing id
    /// order, so every member above `after` is still unpopped, its time
    /// unchanged since that ripple, which pushed it if it is at or past
    /// `lo` — and it is still in the frontier.
    #[inline]
    fn ripple(&mut self, pe: usize, list: &[NodeId], after: NodeId, lo: i64, time: &[i64]) {
        if self.ripple_epoch[pe] == self.epoch && self.rippled[pe] <= lo {
            return;
        }
        self.ripple_epoch[pe] = self.epoch;
        self.rippled[pe] = lo;
        let pos = list.partition_point(|&j| j <= after);
        for &j in &list[pos..] {
            if time[j as usize] >= lo {
                self.frontier.push(j as usize);
            }
        }
    }

    /// PE `pe`'s occupancy record for this move, reset on first use.
    #[inline]
    fn occ(&mut self, pe: usize) -> &mut Occ {
        let o = &mut self.occ[pe];
        if self.occ_epoch[pe] != self.epoch {
            self.occ_epoch[pe] = self.epoch;
            o.cursor = 0;
            o.base = i64::MAX;
            o.vacated.clear();
            o.taken.clear();
        }
        o
    }

    /// Whether this move has so far left PE `pe`'s slots in `lo..hi`
    /// and its slot `hi` as they were: no slot vacated in `lo..hi`, and
    /// none taken in `lo..=hi`.
    #[inline]
    fn untouched(&self, pe: usize, lo: i64, hi: i64) -> bool {
        let o = &self.occ[pe];
        self.occ_epoch[pe] != self.epoch
            || !(o.vacated.iter().any(|&v| lo <= v && v < hi)
                || o.taken.iter().any(|&t| lo <= t && t <= hi))
    }

    /// List PE `pe` as dirty, once per move.
    #[inline]
    fn dirty(&mut self, pe: usize) {
        if self.dirty_epoch[pe] != self.epoch {
            self.dirty_epoch[pe] = self.epoch;
            self.dirty_pes.push(pe);
        }
    }
}

/// Incremental evaluator over single-node placement moves.
///
/// Holds a placement (times always the [`retime`](crate::search::retime)
/// list schedule of that placement) plus every derived quantity the full
/// evaluator would compute, and repairs them in cone-sized work per
/// [`Self::apply_move`]. [`Self::report`] is bit-identical to
/// `Evaluator::evaluate` on [`Self::mapping`], by construction and by
/// debug-mode assertion.
pub struct DeltaEvaluator<'e, 'a> {
    ev: &'e Evaluator<'a>,
    graph: &'a DataflowGraph,
    machine: &'a MachineConfig,
    /// The flat engine's context: CSR consumer lists, cost prefixes,
    /// off-chip totals, and the interning rule.
    ctx: EvalContext,
    place: Vec<(i64, i64)>,
    time: Vec<i64>,
    /// Per node, the earliest cycle its operands allow (the list
    /// schedule's `ready`; its time is the first free slot from there).
    ready: Vec<i64>,
    /// Per-PE state by interned PE id (every held place is on-grid by
    /// invariant).
    tiles: Tiles,
    /// PEs whose peak sweep waits for [`Self::flush_deferred`]. Their
    /// sweep holds the exact latest issue cycle but no peak and no
    /// issue cells; only a PE whose members' values all fit its tile
    /// at once is deferred, so its over-capacity share (none) is exact.
    deferred: Vec<bool>,
    tree: CostTree,
    /// Mutations of the most recent [`Self::apply_move`], for
    /// [`Self::undo`]. Cleared at the start of each move.
    journal: Vec<UndoEntry>,
    /// Reusable per-move buffers (see [`MoveScratch`]).
    scratch: MoveScratch,
    paranoid: bool,
}

impl<'e, 'a> DeltaEvaluator<'e, 'a> {
    /// Build from an initial placement (all places must be on-grid).
    /// Times are derived by list scheduling, exactly as
    /// [`crate::search::retime`] would.
    pub fn new(ev: &'e Evaluator<'a>, init_places: &[(i64, i64)]) -> Self {
        let graph = ev.graph();
        let machine = ev.machine();
        assert_eq!(
            init_places.len(),
            graph.len(),
            "placement length must match graph"
        );
        for &(x, y) in init_places {
            assert!(machine.contains(x, y), "initial place ({x},{y}) off-grid");
        }
        let rm = crate::search::retime(graph, init_places, machine);
        let ctx = EvalContext::new(ev);
        let mut scratch = MoveScratch {
            frontier: Frontier::new(graph.len()),
            ..MoveScratch::default()
        };
        let buf = &mut scratch.buf;
        let tiles = Tiles::build(&ctx, &rm.place, &rm.time, machine, buf);
        let mut tree = CostTree::new();
        let place = |i: usize| rm.place[i];
        ctx.fill_tree(ev, place, &mut tree, &mut buf.pes, &mut buf.dests);
        let ready = (0..graph.len())
            .map(|i| ready_at(graph, machine, &rm.place, &rm.time, i))
            .collect();
        DeltaEvaluator {
            ev,
            graph,
            machine,
            ctx,
            place: rm.place,
            time: rm.time,
            ready,
            deferred: vec![false; tiles.members.len()],
            tiles,
            tree,
            journal: Vec::new(),
            scratch,
            paranoid: true,
        }
    }

    /// Interned id of a held (on-grid) place.
    #[inline]
    fn pe_id(&self, pe: (i64, i64)) -> usize {
        self.ctx.pe_id(pe).expect("held places are on the grid") as usize
    }

    /// Disable (or re-enable) the per-move full-parity assertion that
    /// runs in debug builds. Useful for debug-build throughput tests;
    /// release builds never run the assertion either way.
    pub fn with_paranoia(mut self, on: bool) -> Self {
        self.paranoid = on;
        self
    }

    /// Current place of a node.
    pub fn place_of(&self, node: usize) -> (i64, i64) {
        self.place[node]
    }

    /// The current mapping (places + list-scheduled times).
    pub fn mapping(&self) -> ResolvedMapping {
        ResolvedMapping {
            place: self.place.clone(),
            time: self.time.clone(),
        }
    }

    /// Number of PEs whose peak live bits exceed the machine's tile
    /// capacity — the same count [`crate::legality::check`] reports as
    /// `StorageExceeded` violations.
    pub fn storage_violations(&self) -> u64 {
        self.tiles.over_capacity
    }

    /// The current cost report, bit-identical to running the full
    /// evaluator on [`Self::mapping`]. Sweeps the deferred PEs first.
    pub fn report(&mut self) -> CostReport {
        self.flush_deferred();
        self.assemble(self.graph.name.clone(), self.tiles.global_peak())
    }

    /// Score of the current mapping under `fom` (lower is better) —
    /// identical arithmetic to `ev.score(fom, &self.report())` under
    /// the evaluator's active cost backend. Only the footprint
    /// objective reads peaks, so only it sweeps the deferred PEs; the
    /// report behind the score is assembled without a name, so scoring
    /// allocates nothing.
    pub fn score(&mut self, fom: FigureOfMerit) -> f64 {
        if fom == FigureOfMerit::Footprint {
            self.flush_deferred();
        }
        let score = self
            .ev
            .score(fom, &self.assemble(String::new(), self.tiles.global_peak()));
        if cfg!(debug_assertions) && self.paranoid {
            let exact = self.assemble(String::new(), self.checked_peak());
            assert_eq!(
                score.to_bits(),
                self.ev.score(fom, &exact).to_bits(),
                "a deferred peak changed the {fom:?} score"
            );
        }
        score
    }

    /// The report from the cost tree's root, the off-chip totals and
    /// the per-PE aggregates, with the given name and global peak.
    fn assemble(&self, name: String, peak: u64) -> CostReport {
        self.ev.assemble_with_name(
            name,
            self.tree.total(),
            &self.ctx.offchip(),
            self.tiles.makespan(),
            peak,
            self.tiles.occupied,
        )
    }

    /// Sweep every deferred PE, so every sweep is exact. Nothing is
    /// journaled: the last move journaled every PE it deferred, and a
    /// deferred PE it did not touch sweeps to the same peak before and
    /// after it.
    fn flush_deferred(&mut self) {
        for pe in 0..self.deferred.len() {
            if std::mem::replace(&mut self.deferred[pe], false) {
                self.tiles.refresh_peak(
                    pe,
                    &self.ctx,
                    &self.time,
                    self.machine,
                    &mut self.scratch.buf,
                );
            }
        }
    }

    /// Bring dirty PE `pe`'s sweep up to date after a move, journaling
    /// the sweep and the deferral it replaces. A PE whose member count
    /// × value width fits its tile cannot be over capacity whatever its
    /// lifetimes, so its peak sweep is deferred and only its latest
    /// issue cycle, which the makespan reads, is taken now. Any other
    /// PE is swept now. A deferred PE is journaled even when its held
    /// sweep did not change: its lifetimes did, so an undo after a
    /// flush must put the deferral back.
    fn refresh_or_defer(&mut self, pe: usize, buf: &mut ScratchBuf) {
        let list = &self.tiles.members[pe];
        let fits = !list.is_empty()
            && (list.len() as u64).saturating_mul(self.ctx.width_bits()) <= self.machine.tile_bits;
        let replaced = if fits {
            let unswept = list
                .iter()
                .map(|&j| self.time[j as usize])
                .max()
                .map(|last| PeSweep {
                    peak: 0,
                    last,
                    issue_over: 0,
                });
            (self.tiles.sweeps[pe] != unswept)
                .then(|| self.tiles.set_sweep(pe, unswept, self.machine.tile_bits))
        } else {
            self.tiles
                .refresh_peak(pe, &self.ctx, &self.time, self.machine, buf)
        };
        let deferred = std::mem::replace(&mut self.deferred[pe], fits);
        if fits || deferred || replaced.is_some() {
            self.journal.push(UndoEntry::Sweep {
                pe: pe as u32,
                v: replaced.unwrap_or(self.tiles.sweeps[pe]),
                deferred,
            });
        }
    }

    /// Move `node` to `new_pe` (must be on-grid) and repair all cached
    /// state. Work is proportional to the retimed cone, the moved
    /// node's degree, and the affected PEs' populations — not the graph.
    ///
    /// To undo, apply the reverse move: all state is a pure function of
    /// the placement.
    pub fn apply_move(&mut self, node: usize, new_pe: (i64, i64)) {
        assert!(node < self.graph.len(), "node out of range");
        assert!(
            self.machine.contains(new_pe.0, new_pe.1),
            "move target {new_pe:?} off-grid"
        );
        self.journal.clear();
        let old_pe = self.place[node];
        if old_pe == new_pe {
            return;
        }
        let id = node as NodeId;
        let old_pid = self.pe_id(old_pe);
        let new_pid = self.pe_id(new_pe);

        // Check the per-move buffers out of self so the borrow checker
        // sees them as locals, independent of the cached state.
        let mut s = std::mem::take(&mut self.scratch);
        let pe_count = self.tiles.members.len();
        if s.occ.len() < pe_count {
            s.occ.resize_with(pe_count, Occ::default);
            s.occ_epoch.resize(pe_count, 0);
            s.rippled.resize(pe_count, 0);
            s.ripple_epoch.resize(pe_count, 0);
            s.dirty_epoch.resize(pe_count, 0);
        }
        s.epoch += 1;
        s.dirty_pes.clear();
        // Every id the move dirties is the moved node or above it.
        s.frontier.start(node);

        // Membership: the PE→nodes index drives occupancy, peaks, and
        // the pes_used count.
        // Later source-PE nodes may now schedule earlier — but only
        // those at or past the vacated slot.
        self.tiles.remove(old_pid, id);
        s.ripple(
            old_pid,
            &self.tiles.members[old_pid],
            id,
            self.time[node],
            &self.time,
        );
        s.occ(old_pid).vacated.push(self.time[node]);
        // Later destination-PE nodes are dirtied when the moved node
        // pops (first, by id order) and its new slot is known — seeding
        // them all here would over-approximate.
        self.tiles.insert(new_pid, id);
        self.place[node] = new_pe;
        self.journal.push(UndoEntry::Place { node, pe: old_pe });

        // The moved node reschedules; its consumers' wire-delay gaps
        // changed even if its time does not.
        s.frontier.push(node);
        for &c in self.ctx.consumers(node) {
            s.frontier.push(c as usize);
        }

        // Retime the dirty set in increasing id order. Every quantity a
        // node's schedule consults (producer times, smaller-id same-PE
        // occupancy) is final by the time it pops, so one pass reaches
        // the list-schedule fixpoint.
        //
        // A popped node keeps its time without a gap scan when its
        // ready cycle has not fallen, is still at or below its time,
        // and the move has vacated no slot in between nor taken one
        // there or at its time: its old scan range is still occupied
        // and its slot still free. Otherwise, occupancy is shared
        // across pops on the same PE: pops arrive in increasing id
        // order, so each PE's occupied slots can be marked in a bitmap
        // as a cursor walks up its membership list, instead of
        // re-collecting them per pop, and the first free slot is a bit
        // scan (`Occ::first_free`). The records live in a dense per-PE
        // array validated by epoch stamp.
        s.dirty(old_pid);
        s.dirty(new_pid);
        while let Some(iu) = s.frontier.pop() {
            let i = iu as NodeId;
            let pid = self.pe_id(self.place[iu]);
            let ready = ready_at(self.graph, self.machine, &self.place, &self.time, iu);
            let was = std::mem::replace(&mut self.ready[iu], ready);
            if ready != was {
                self.journal.push(UndoEntry::Ready { id: i, t: was });
            }
            let t_old = self.time[iu];
            if iu != node && was <= ready && ready <= t_old && s.untouched(pid, ready, t_old) {
                continue;
            }
            let t_new = s
                .occ(pid)
                .first_free(&self.tiles.members[pid], i, ready, &self.time);
            // Ripple: same-PE successors at or past the perturbed slot
            // range, here the moved node's new slot (its old one was on
            // the source PE), even when its time did not change; for
            // any other node, the slot range it left and took.
            if iu == node || t_new != t_old {
                let lo = if iu == node { t_new } else { t_old.min(t_new) };
                s.ripple(pid, &self.tiles.members[pid], i, lo, &self.time);
                s.occ(pid).taken.push(t_new);
            }
            if t_new == t_old {
                continue;
            }
            s.occ(pid).vacated.push(t_old);
            self.time[iu] = t_new;
            self.journal.push(UndoEntry::Time { id: i, t: t_old });
            s.dirty(pid);

            // Consumers read this node's new time.
            for &c in self.ctx.consumers(iu) {
                s.frontier.push(c as usize);
            }

            // A time change moves this value's production and possibly
            // the last use of its operands: one term of each of those
            // maxima moved from `t_old` to `t_new`.
            if let Some(t) = self
                .tiles
                .follow_last_use(&self.ctx, &self.time, iu, t_old, t_new)
            {
                self.journal.push(UndoEntry::LastUse { id: i, t });
            }
            for k in 0..self.graph.nodes[iu].deps.len() {
                let du = self.graph.nodes[iu].deps[k] as usize;
                if let Some(t) = self
                    .tiles
                    .follow_last_use(&self.ctx, &self.time, du, t_old, t_new)
                {
                    self.journal.push(UndoEntry::LastUse {
                        id: du as NodeId,
                        t,
                    });
                    s.dirty(self.pe_id(self.place[du]));
                }
            }
        }

        // Re-cost the moved node (its reads and the messages it sends)
        // and its producers (the messages they send to it).
        self.journal.push(UndoEntry::Leaf {
            id,
            cost: self.tree.leaf(node),
        });
        let place = |i: usize| self.place[i];
        let c = self
            .ctx
            .node_cost(self.ev, node, place, &mut s.buf.pes, &mut s.buf.dests);
        self.tree.update(node, c);
        for k in 0..self.graph.nodes[node].deps.len() {
            let du = self.graph.nodes[node].deps[k] as usize;
            self.journal.push(UndoEntry::Leaf {
                id: du as NodeId,
                cost: self.tree.leaf(du),
            });
            let c = self
                .ctx
                .node_cost(self.ev, du, place, &mut s.buf.pes, &mut s.buf.dests);
            self.tree.update(du, c);
        }

        // Re-sweep (or defer) only the PEs whose lifetimes or issue
        // cycles could have moved.
        for k in 0..s.dirty_pes.len() {
            self.refresh_or_defer(s.dirty_pes[k], &mut s.buf);
        }
        self.scratch = s;

        if cfg!(debug_assertions) && self.paranoid {
            self.assert_parity();
        }
    }

    /// Revert the most recent [`Self::apply_move`] by replaying its
    /// journal in reverse: every entry restores the exact value the
    /// move overwrote, so no schedule, lifetime, or peak is recomputed.
    /// A second `undo` (or one after a no-op move) is a no-op.
    pub fn undo(&mut self) {
        while let Some(e) = self.journal.pop() {
            match e {
                UndoEntry::Place { node, pe } => {
                    let id = node as NodeId;
                    self.tiles.remove(self.pe_id(self.place[node]), id);
                    self.tiles.insert(self.pe_id(pe), id);
                    self.place[node] = pe;
                }
                UndoEntry::Time { id, t } => self.time[id as usize] = t,
                UndoEntry::LastUse { id, t } => self.tiles.last_use[id as usize] = t,
                UndoEntry::Ready { id, t } => self.ready[id as usize] = t,
                UndoEntry::Sweep { pe, v, deferred } => {
                    self.tiles.set_sweep(pe as usize, v, self.machine.tile_bits);
                    self.deferred[pe as usize] = deferred;
                }
                UndoEntry::Leaf { id, cost } => self.tree.update(id as usize, cost),
            }
        }
        if cfg!(debug_assertions) && self.paranoid {
            self.assert_parity();
        }
    }

    /// The global peak with every PE swept afresh, asserting that each
    /// held sweep is exact — or, for a deferred PE, that it holds the
    /// exact latest issue cycle and a peak its tile holds. O(|V|), and
    /// it allocates: for parity checks only.
    fn checked_peak(&self) -> u64 {
        let mut buf = ScratchBuf::default();
        let mut peak = 0;
        for (pe, &held) in self.tiles.sweeps.iter().enumerate() {
            let fresh = self
                .tiles
                .sweep(pe, &self.ctx, &self.time, self.machine, &mut buf);
            if self.deferred[pe] {
                let (f, h) = fresh.zip(held).expect("a deferred PE is occupied");
                assert_eq!(f.last, h.last, "deferred PE {pe}: stale latest issue");
                assert!(
                    f.peak <= self.machine.tile_bits,
                    "deferred PE {pe} is over capacity"
                );
            } else {
                assert_eq!(fresh, held, "PE {pe}: stale sweep");
            }
            peak = peak.max(fresh.map_or(0, |f| f.peak));
        }
        peak
    }

    /// Assert bit-exact agreement with the full pipeline: times against
    /// [`crate::search::retime`], every PE's sweep against a fresh one,
    /// the report against `Evaluator::evaluate`, and the
    /// storage-violation count against the reference sweep
    /// (`legality::tile_peaks`).
    /// Deferred sweeps stay deferred. O(|V|+|E|) — runs automatically
    /// after every move in debug builds (see [`Self::with_paranoia`]).
    pub fn assert_parity(&self) {
        let rm = crate::search::retime(self.graph, &self.place, self.machine);
        assert_eq!(
            rm.time, self.time,
            "incremental retime departed from the full list schedule"
        );
        for i in 0..self.graph.len() {
            assert_eq!(
                self.ready[i],
                ready_at(self.graph, self.machine, &self.place, &self.time, i),
                "node {i}: stale ready cycle"
            );
        }
        let full = self.ev.evaluate(&rm);
        let mine = self.assemble(self.graph.name.clone(), self.checked_peak());
        assert_eq!(full, mine, "incremental report != full evaluate");
        let peaks = crate::legality::tile_peaks(self.graph, &rm, rm.makespan());
        let over = peaks.values().filter(|&&p| p > self.machine.tile_bits);
        assert_eq!(
            over.count() as u64,
            self.tiles.over_capacity,
            "incremental storage-violation count != full legality sweep"
        );
    }
}

/// Cached evaluation state of one resolvable candidate: its static
/// times and interned places plus every aggregate
/// [`crate::legality::check`] and `Evaluator::evaluate` would derive,
/// maintained incrementally. Places are not stored: an on-grid id
/// names its place (`y·cols + x`), and an off-grid id `grid + k` names
/// `offgrid[k]`.
struct CandState {
    time: Vec<i64>,
    /// Interned PE id per node, by the flat engine's rule.
    node_pe: Vec<u32>,
    /// The candidate's off-grid places: place `k` interns to
    /// `grid + k`.
    offgrid: Vec<(i64, i64)>,
    /// Nodes mapped off the grid.
    oob: u64,
    /// Nodes scheduled before cycle 0.
    neg: u64,
    /// Causality-violating edges between on-grid endpoints (per dep
    /// slot, duplicates counted). Only added to the violation total
    /// when `oob == 0`, exactly like the full checker.
    causality: u64,
    /// Per-PE state, each PE's members in a [`LiveIndex`]; its sweeps
    /// also count the over-width issue cells (off-grid ids included,
    /// exactly like the full checker).
    tiles: Tiles<LiveIndex>,
    /// Per-node costs, built the first time the candidate is legal
    /// (costing an illegal placement is meaningless); the leaves listed
    /// in `dirty` are stale, re-costed lazily at evaluation time.
    tree: Option<CostTree>,
    dirty: Vec<NodeId>,
}

/// The place interned id `pe` stands for, given a candidate's off-grid
/// table.
fn interned_place(ctx: &EvalContext, offgrid: &[(i64, i64)], pe: u32) -> (i64, i64) {
    match (pe as usize).checked_sub(ctx.grid_pes()) {
        Some(k) => offgrid[k],
        None => ctx.place_of(pe),
    }
}

impl CandState {
    /// Build from scratch for a resolved candidate — the same work the
    /// cold path does, cached.
    fn build(
        ctx: &EvalContext,
        ev: &Evaluator<'_>,
        rm: ResolvedMapping,
        buf: &mut ScratchBuf,
    ) -> CandState {
        let machine = ev.machine();
        let tiles = Tiles::indexed(ctx, &rm.place, &rm.time, machine, buf);
        let mut offgrid: Vec<(i64, i64)> = buf.offgrid.iter().map(|&(p, _)| p).collect();
        offgrid.dedup();
        let mut this = CandState {
            node_pe: buf.node_pe.clone(),
            offgrid,
            oob: buf.offgrid.len() as u64,
            neg: rm.time.iter().filter(|&&t| t < 0).count() as u64,
            causality: 0,
            tiles,
            time: rm.time,
            tree: None,
            dirty: Vec::new(),
        };
        for d in 0..this.time.len() {
            for &c in ctx.consumers(d) {
                this.causality += this.edge_violation(ctx, machine, d, c as usize);
            }
        }
        if this.total() == 0 {
            let mut tree = CostTree::new();
            let place = |i: usize| rm.place[i];
            ctx.fill_tree(ev, place, &mut tree, &mut buf.pes, &mut buf.dests);
            this.tree = Some(tree);
        }
        this
    }

    /// Exact violation total, mirroring the full checker's phases:
    /// causality is only meaningful (and only counted) with every place
    /// on-grid.
    fn total(&self) -> u64 {
        let causality = if self.oob == 0 { self.causality } else { 0 };
        self.oob + self.neg + causality + self.tiles.issue_over + self.tiles.over_capacity
    }

    /// Whether the edge `d → n` violates causality: 1 if the consumer
    /// runs before the producer's value can arrive, else 0. Edges with
    /// an off-grid endpoint contribute 0 (the full checker counts
    /// causality only when every place is on-grid). Pure in the
    /// endpoints' static places and times, so adding and later removing
    /// the same edge telescopes exactly.
    fn edge_violation(
        &self,
        ctx: &EvalContext,
        machine: &MachineConfig,
        d: usize,
        n: usize,
    ) -> u64 {
        let (pd, pn) = (self.node_pe[d], self.node_pe[n]);
        let grid = ctx.grid_pes() as u32;
        u64::from(pd < grid && pn < grid && ctx.late(machine, pd, self.time[d], pn, self.time[n]))
    }

    /// Intern one new node's place by the flat engine's rule; an
    /// off-grid place not seen before takes the next id past the grid.
    fn intern(&mut self, ctx: &EvalContext, p: (i64, i64)) -> u32 {
        if let Some(pe) = ctx.pe_id(p) {
            return pe;
        }
        let k = match self.offgrid.iter().position(|&q| q == p) {
            Some(k) => k,
            None => {
                self.offgrid.push(p);
                self.offgrid.len() - 1
            }
        };
        self.tiles.ensure(ctx.grid_pes() + k);
        (ctx.grid_pes() + k) as u32
    }

    /// Mark node `id`'s leaf stale (a tree not built yet is filled
    /// whole when first needed).
    fn stale(&mut self, id: usize) {
        if self.tree.is_some() {
            self.dirty.push(id as NodeId);
        }
    }

    /// Producers `deps` gained or lost a consumer: re-derive their last
    /// uses (moving their end events), mark their leaves stale (their
    /// def→use messages changed), and refresh the sweeps of `seed` (the
    /// PE whose members changed, if any) and of the PEs whose lifetimes
    /// moved. `pes` is a reusable list.
    fn touch_producers(
        &mut self,
        ctx: &EvalContext,
        ev: &Evaluator<'_>,
        deps: impl IntoIterator<Item = usize>,
        seed: Option<u32>,
        pes: &mut Vec<u32>,
    ) {
        pes.clear();
        pes.extend(seed);
        for du in deps {
            if !ctx.is_output(du) {
                let pe = self.node_pe[du];
                let lu = last_use_of(ctx, &self.time, du);
                if self.tiles.move_end(pe as usize, du, lu, &self.time) {
                    pes.push(pe);
                }
            }
            self.stale(du);
        }
        pes.sort_unstable();
        pes.dedup();
        for &pe in pes.iter() {
            self.tiles.refresh(
                pe as usize,
                &self.time,
                ctx.width_bits(),
                ev.machine().tile_bits,
            );
        }
    }

    /// A node was appended with the given (statically resolved) place
    /// and time. `ctx` already follows the edit.
    fn repair_add(
        &mut self,
        ctx: &EvalContext,
        ev: &Evaluator<'_>,
        id: usize,
        p: (i64, i64),
        t: i64,
        pes: &mut Vec<u32>,
    ) {
        let machine = ev.machine();
        let deps = &ev.graph().nodes[id].deps;
        let pe = self.intern(ctx, p);
        self.time.push(t);
        self.node_pe.push(pe);
        self.oob += u64::from(pe as usize >= ctx.grid_pes());
        self.neg += u64::from(t < 0);
        for &d in deps {
            self.causality += self.edge_violation(ctx, machine, d as usize, id);
        }
        // No consumers yet: the new node's value dies at birth, unless
        // it is an output.
        let lu = if ctx.is_output(id) { FAR_FUTURE } else { t };
        self.tiles.last_use.push(lu);
        self.tiles
            .add(pe as usize, id as NodeId, &self.time, machine.issue_width);
        if let Some(tree) = &mut self.tree {
            tree.push(NodeCost::default());
        }
        self.stale(id);
        let deps = deps.iter().map(|&d| d as usize);
        self.touch_producers(ctx, ev, deps, Some(pe), pes);
    }

    /// Consumerless node `r` was removed; ids above it shifted down.
    /// `ctx` already follows the edit.
    fn repair_remove(
        &mut self,
        ctx: &EvalContext,
        ev: &Evaluator<'_>,
        r: usize,
        removed: &Node,
        pes: &mut Vec<u32>,
    ) {
        let machine = ev.machine();
        let (pe, t) = (self.node_pe[r], self.time[r]);
        self.oob -= u64::from(pe as usize >= ctx.grid_pes());
        self.neg -= u64::from(t < 0);
        // Subtract with the pre-compaction arrays: the removed node's
        // entries are still present and its deps all sit below it.
        for &d in &removed.deps {
            self.causality -= self.edge_violation(ctx, machine, d as usize, r);
        }
        self.tiles
            .take(pe as usize, r as NodeId, &self.time, machine.issue_width);
        if r + 1 < self.time.len() {
            for index in &mut self.tiles.members {
                index.renumber_above(r as NodeId);
            }
        }
        self.time.remove(r);
        self.node_pe.remove(r);
        self.tiles.last_use.remove(r);
        if let Some(tree) = &mut self.tree {
            tree.remove(r);
        }
        let r = r as NodeId;
        self.dirty.retain(|&i| i != r);
        for i in self.dirty.iter_mut() {
            if *i > r {
                *i -= 1;
            }
        }
        let deps = removed.deps.iter().map(|&d| d as usize);
        self.touch_producers(ctx, ev, deps, Some(pe), pes);
    }

    /// Dep slot of `node` moved from `old_dep` to `new_dep`. Places and
    /// times are untouched; only one causality edge, the two producers'
    /// message costs, and their last-use lifetimes can change. The
    /// edited node's own leaf is unchanged — its operand count, input
    /// reads, and produced messages do not depend on who feeds it.
    fn repair_retarget(
        &mut self,
        ctx: &EvalContext,
        ev: &Evaluator<'_>,
        node: usize,
        old_dep: usize,
        new_dep: usize,
        pes: &mut Vec<u32>,
    ) {
        if old_dep == new_dep {
            return;
        }
        let machine = ev.machine();
        self.causality -= self.edge_violation(ctx, machine, old_dep, node);
        self.causality += self.edge_violation(ctx, machine, new_dep, node);
        self.touch_producers(ctx, ev, [old_dep, new_dep], None, pes);
    }

    /// Bring the cost tree up to date — fill it whole the first time,
    /// else re-cost the stale leaves and re-fold their paths — and
    /// return it. Called only when the candidate is legal, so every id
    /// is on the grid.
    fn flush(&mut self, ctx: &EvalContext, ev: &Evaluator<'_>, buf: &mut ScratchBuf) -> &CostTree {
        let CandState {
            node_pe,
            offgrid,
            tree,
            dirty,
            ..
        } = self;
        let place = |i: usize| interned_place(ctx, offgrid, node_pe[i]);
        let tree = match tree {
            Some(tree) => {
                dirty.sort_unstable();
                dirty.dedup();
                for &id in dirty.iter() {
                    let c = ctx.node_cost(ev, id as usize, place, &mut buf.pes, &mut buf.dests);
                    tree.update(id as usize, c);
                }
                tree
            }
            None => {
                let tree = tree.insert(CostTree::new());
                ctx.fill_tree(ev, place, tree, &mut buf.pes, &mut buf.dests);
                tree
            }
        };
        dirty.clear();
        tree
    }
}

/// A pool of candidate mappings kept evaluable across structural edits.
///
/// Feed it every [`AppliedEdit`] receipt (in order) via [`Self::apply`];
/// [`Self::evaluate`] then returns, for any candidate, exactly what
/// [`BatchEvaluator::evaluate_candidate`](crate::flat::BatchEvaluator::evaluate_candidate)
/// would return against the *current* graph and machine — same
/// [`CandidateEval`] variant, same violation count, bit-identical report
/// and score — without re-walking the graph when incremental repair
/// sufficed.
///
/// The evaluator passed to [`Self::new`], [`Self::apply`], and
/// [`Self::evaluate`] must be configured identically each time (same
/// input placements, writeback, multicast) and must wrap the graph and
/// machine as evolved *only* through the applied edits.
pub struct DeltaCandidates {
    mappings: Vec<Mapping>,
    /// The flat engine's context for the current graph, following every
    /// applied edit.
    ctx: EvalContext,
    /// Nodes with no domain index — any makes affine candidates
    /// unresolvable.
    unindexed: usize,
    /// One cached state per candidate; `None` = unresolvable now, or
    /// invalidated and awaiting a lazy cold rebuild.
    states: Vec<Option<CandState>>,
    rebuilds: u64,
    /// Reusable buffers for cold builds, peak sweeps and leaf flushes,
    /// so repairs and warm re-evaluations (the `tune_warm` path) do
    /// not allocate.
    buf: ScratchBuf,
    /// Reusable list of the PEs one repair re-sweeps.
    pes: Vec<u32>,
}

impl DeltaCandidates {
    /// Build the pool, eagerly caching state for every candidate that
    /// resolves against the evaluator's current graph and machine.
    pub fn new(ev: &Evaluator<'_>, mappings: Vec<Mapping>) -> Self {
        let graph = ev.graph();
        let machine = ev.machine();
        let ctx = EvalContext::new(ev);
        let mut buf = ScratchBuf::default();
        let states = mappings
            .iter()
            .map(|m| {
                m.resolve(graph, machine)
                    .ok()
                    .map(|rm| CandState::build(&ctx, ev, rm, &mut buf))
            })
            .collect();
        DeltaCandidates {
            unindexed: graph.nodes.iter().filter(|n| n.index.is_empty()).count(),
            mappings,
            ctx,
            states,
            rebuilds: 0,
            buf,
            pes: Vec::new(),
        }
    }

    /// Number of candidates in the pool.
    pub fn len(&self) -> usize {
        self.mappings.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.mappings.is_empty()
    }

    /// How many candidates have been rebuilt cold at evaluation time
    /// because an edit invalidated their cached state. Zero across an
    /// edit/evaluate cycle means every evaluation was served warm.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Whether candidate `i`'s mapping resolves against the current
    /// graph — the same predicate as `Mapping::resolve`, answered from
    /// maintained counters.
    fn resolvable(&self, i: usize) -> bool {
        let len = self.ctx.len();
        match &self.mappings[i] {
            Mapping::Affine(_) => self.unindexed == 0,
            Mapping::Table(t) => t.place.len() == len && t.time.len() == len,
        }
    }

    /// Fold one applied edit into the shared context and every cached
    /// candidate state. `ev` must wrap the *post-edit* graph/machine.
    pub fn apply(&mut self, ev: &Evaluator<'_>, edit: &AppliedEdit) {
        let graph = ev.graph();
        self.ctx.apply_edit(ev, edit);
        match edit {
            AppliedEdit::AddNode { id } => {
                self.unindexed += usize::from(graph.nodes[*id as usize].index.is_empty());
            }
            AppliedEdit::RemoveNode { node, .. } => {
                self.unindexed -= usize::from(node.index.is_empty());
            }
            AppliedEdit::RetargetEdge { .. } | AppliedEdit::ResizeTile { .. } => {}
        }
        debug_assert_eq!(self.ctx.len(), graph.len(), "edits applied out of order");

        for i in 0..self.mappings.len() {
            if !self.resolvable(i) {
                self.states[i] = None;
                continue;
            }
            let Some(state) = self.states[i].as_mut() else {
                // Invalidated earlier; rebuilt lazily at evaluation.
                continue;
            };
            let pes = &mut self.pes;
            match edit {
                AppliedEdit::AddNode { id } => {
                    let Mapping::Affine(am) = &self.mappings[i] else {
                        unreachable!("a length change drops table candidates")
                    };
                    let idu = *id as usize;
                    let n = &graph.nodes[idu];
                    let pe = am.place.eval(&n.index, ev.machine().cols);
                    let t = am.time.eval(&n.index);
                    state.repair_add(&self.ctx, ev, idu, pe, t, pes);
                }
                AppliedEdit::RemoveNode { id, node } => {
                    state.repair_remove(&self.ctx, ev, *id as usize, node, pes);
                }
                AppliedEdit::RetargetEdge {
                    node,
                    old_dep,
                    new_dep,
                    ..
                } => {
                    let (node, old_dep, new_dep) =
                        (*node as usize, *old_dep as usize, *new_dep as usize);
                    state.repair_retarget(&self.ctx, ev, node, old_dep, new_dep, pes);
                }
                AppliedEdit::ResizeTile { new_bits, .. } => {
                    // Peaks are capacity-independent: only the
                    // over-capacity count moves.
                    let tiles = &mut state.tiles;
                    tiles.over_capacity = tiles
                        .sweeps
                        .iter()
                        .flatten()
                        .filter(|s| s.peak > *new_bits)
                        .count() as u64;
                }
            }
        }
    }

    /// Candidate `i`'s resolved mapping against the current graph and
    /// machine, read off its cached state — the held times, and each
    /// node's place from its interned id — exactly what
    /// `Mapping::resolve` gives, without evaluating a place or time
    /// expression. `None` when no state is cached (unresolvable, or
    /// awaiting a rebuild).
    pub fn resolved(&self, i: usize) -> Option<ResolvedMapping> {
        let state = self.states[i].as_ref()?;
        Some(ResolvedMapping {
            place: state
                .node_pe
                .iter()
                .map(|&pe| interned_place(&self.ctx, &state.offgrid, pe))
                .collect(),
            time: state.time.clone(),
        })
    }

    /// Assert every cached candidate's per-PE index against fresh
    /// sweeps (see `Tiles::assert_indexed`).
    #[cfg(test)]
    fn assert_indexed(&self, ev: &Evaluator<'_>) {
        for state in self.states.iter().flatten() {
            state
                .tiles
                .assert_indexed(&self.ctx, &state.node_pe, &state.time, ev.machine());
        }
    }

    /// Evaluate candidate `i` against the current graph/machine —
    /// bit-identical to the cold path, cone-sized work when the cached
    /// state survived the edits since the last call.
    pub fn evaluate(&mut self, i: usize, ev: &Evaluator<'_>, fom: FigureOfMerit) -> CandidateEval {
        if !self.resolvable(i) {
            self.states[i] = None;
            return CandidateEval::Unresolvable;
        }
        if self.states[i].is_none() {
            let rm = self.mappings[i]
                .resolve(ev.graph(), ev.machine())
                .expect("resolvable candidate must resolve");
            self.states[i] = Some(CandState::build(&self.ctx, ev, rm, &mut self.buf));
            self.rebuilds += 1;
        }
        let state = self.states[i].as_mut().expect("state just ensured");
        let total = state.total();
        if total > 0 {
            return CandidateEval::Illegal(total);
        }
        let total = state.flush(&self.ctx, ev, &mut self.buf).total();
        let report = ev.assemble(
            total,
            &self.ctx.offchip(),
            state.tiles.makespan(),
            state.tiles.global_peak(),
            state.tiles.occupied,
        );
        let score = ev.score(fom, &report);
        CandidateEval::Legal { report, score }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::CExpr;
    use crate::legality::{check, LegalityError};
    use crate::search::retime;
    use crate::value::Value;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn first_free_matches_the_gap_scan_through_every_window_shift() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut occ = Occ::default();
        for round in 0..400 {
            // One PE's members, ascending, with pairwise-distinct
            // times spread well past twice the member count, so the
            // window shifts up and back down within a move.
            let n = rng.random_range(1..120u32);
            let list: Vec<NodeId> = (0..n).map(|k| k * 2).collect();
            let spread = rng.random_range(n as i64..8 * n as i64 + 64);
            let mut slots: Vec<i64> = (0..spread).collect();
            for k in (1..slots.len()).rev() {
                slots.swap(k, rng.random_range(0..=k));
            }
            let mut time = vec![0; 2 * n as usize];
            for (&j, &t) in list.iter().zip(&slots) {
                time[j as usize] = t;
            }
            // A new move on the PE: pops in increasing id order, each
            // ready anywhere in (or past) the spread.
            occ.cursor = 0;
            occ.base = i64::MAX;
            let mut i = 0;
            while i < 2 * n {
                let ready = rng.random_range(0..spread + 4);
                let held: Vec<i64> = list
                    .iter()
                    .filter(|&&j| j < i)
                    .map(|&j| time[j as usize])
                    .collect();
                let want = (ready..).find(|t| !held.contains(t)).unwrap();
                let got = occ.first_free(&list, i, ready, &time);
                assert_eq!(got, want, "round {round}: member {i} ready at {ready}");
                i += rng.random_range(1..6u32);
            }
        }
    }

    /// A layered random DAG: `n` nodes, each depending on up to two
    /// earlier ones.
    fn random_dag(n: u32, seed: u64) -> DataflowGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = DataflowGraph::new("dag", 32);
        for i in 0..n {
            let ndeps = rng.random_range(0..=2.min(i));
            let mut deps = Vec::new();
            for _ in 0..ndeps {
                deps.push(rng.random_range(0..i));
            }
            deps.sort_unstable();
            deps.dedup();
            let expr = match deps.len() {
                0 => CExpr::konst(Value::real(1.0)),
                1 => CExpr::dep(0),
                _ => CExpr::dep(0).add(CExpr::dep(1)),
            };
            let id = g.add_node(expr, deps, vec![i as i64]);
            if i % 7 == 0 {
                g.mark_output(id);
            }
        }
        g
    }

    #[test]
    fn random_moves_stay_bit_exact() {
        let g = random_dag(60, 3);
        let m = MachineConfig::n5(3, 3);
        let ev = Evaluator::new(&g, &m);
        let init = crate::search::default_mapper(&g, &m);
        let mut delta = DeltaEvaluator::new(&ev, &init.place);
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..120 {
            let node = rng.random_range(0..g.len());
            let pe = (rng.random_range(0..3i64), rng.random_range(0..3i64));
            delta.apply_move(node, pe);
            // apply_move already asserts parity in debug builds; check
            // explicitly so release test runs verify too.
            delta.assert_parity();
        }
    }

    #[test]
    fn same_pe_move_is_a_noop() {
        let g = random_dag(20, 1);
        let m = MachineConfig::n5(2, 2);
        let ev = Evaluator::new(&g, &m);
        let init = crate::search::default_mapper(&g, &m);
        let mut delta = DeltaEvaluator::new(&ev, &init.place);
        let before = delta.report();
        let pe = delta.place_of(5);
        delta.apply_move(5, pe);
        assert_eq!(before, delta.report());
    }

    #[test]
    fn reverse_move_restores_the_exact_report() {
        let g = random_dag(40, 5);
        let m = MachineConfig::n5(3, 2);
        let ev = Evaluator::new(&g, &m);
        let init = crate::search::default_mapper(&g, &m);
        let mut delta = DeltaEvaluator::new(&ev, &init.place);
        let before = delta.report();
        let old = delta.place_of(11);
        let target = if old == (0, 0) { (1, 0) } else { (0, 0) };
        delta.apply_move(11, target);
        delta.apply_move(11, old);
        assert_eq!(before, delta.report());
        assert_eq!(delta.mapping(), retime(&g, &init.place, &m));
    }

    #[test]
    fn undo_restores_the_exact_state_without_rescheduling() {
        let g = random_dag(40, 6);
        let m = MachineConfig::n5(3, 2);
        let ev = Evaluator::new(&g, &m);
        let init = crate::search::default_mapper(&g, &m);
        let mut delta = DeltaEvaluator::new(&ev, &init.place);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..30 {
            let before_rm = delta.mapping();
            let before_rep = delta.report();
            let node = rng.random_range(0..g.len());
            let pe = (rng.random_range(0..3i64), rng.random_range(0..2i64));
            delta.apply_move(node, pe);
            delta.undo();
            assert_eq!(before_rm, delta.mapping());
            assert_eq!(before_rep, delta.report());
            // A second undo (journal drained) is a no-op.
            delta.undo();
            assert_eq!(before_rep, delta.report());
            // Leave some moves applied so later rounds start elsewhere.
            if rng.random::<f64>() < 0.5 {
                delta.apply_move(node, pe);
            }
        }
    }

    #[test]
    fn storage_violations_match_full_legality_check() {
        let g = random_dag(50, 8);
        let mut m = MachineConfig::n5(2, 2);
        m.tile_bits = 4 * 32; // tiny tiles: hoarding PEs go over
        m.issue_width = 64; // keep issue legal while we pile nodes up
        let ev = Evaluator::new(&g, &m);
        let init = crate::search::default_mapper(&g, &m);
        let mut delta = DeltaEvaluator::new(&ev, &init.place);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..60 {
            let node = rng.random_range(0..g.len());
            let pe = (rng.random_range(0..2i64), rng.random_range(0..2i64));
            delta.apply_move(node, pe);
            let rm = delta.mapping();
            let rep = check(&g, &rm, &m);
            let storage = rep
                .errors
                .iter()
                .filter(|e| matches!(e, LegalityError::StorageExceeded { .. }))
                .count() as u64;
            // The checker caps recorded errors at 64; with 4 PEs we are
            // far below the cap, so counts are exact.
            assert_eq!(delta.storage_violations(), storage);
        }
    }

    #[test]
    fn deferred_sweeps_stay_exact_across_the_member_bound() {
        // 4 PEs share 48 nodes, three in four of them outputs (live to
        // the end), so a PE's peak tracks its member count. A tile holds
        // 12 values: a PE with at most 12 members defers its sweep, and
        // random moves carry PEs back and forth across that bound, and
        // some of them over their tile.
        let mut g = random_dag(48, 21);
        for id in (0..48).filter(|id| id % 4 != 3) {
            g.mark_output(id);
        }
        let mut m = MachineConfig::n5(2, 2);
        m.tile_bits = 12 * 32;
        m.issue_width = 64;
        let ev = Evaluator::new(&g, &m);
        let init = crate::search::default_mapper(&g, &m);
        let mut delta = DeltaEvaluator::new(&ev, &init.place).with_paranoia(false);
        let mut rng = StdRng::seed_from_u64(12);
        // PE observations: deferred, swept, over capacity.
        let (mut deferred, mut swept, mut over) = (0u32, 0u32, 0u64);
        // Explicit assertions, so release runs check too. The report or
        // the footprint score (each sweeps every deferred PE) is read
        // after two steps in three, so deferrals also pile up across
        // moves and undos, and some undos follow a flush.
        let mut verify = |delta: &mut DeltaEvaluator, rng: &mut StdRng, ctx: &str| {
            delta.assert_parity();
            let rm = delta.mapping();
            let storage = check(&g, &rm, &m)
                .errors
                .iter()
                .filter(|e| matches!(e, LegalityError::StorageExceeded { .. }))
                .count() as u64;
            assert_eq!(delta.storage_violations(), storage, "{ctx}");
            over += storage;
            for (pe, list) in delta.tiles.members.iter().enumerate() {
                deferred += u32::from(delta.deferred[pe]);
                swept += u32::from(!list.is_empty() && !delta.deferred[pe]);
            }
            match rng.random_range(0..3u32) {
                0 => assert_eq!(delta.report(), ev.evaluate(&rm), "{ctx}"),
                1 => {
                    let want = FigureOfMerit::Footprint.score(&ev.evaluate(&rm));
                    let got = delta.score(FigureOfMerit::Footprint);
                    assert_eq!(got.to_bits(), want.to_bits(), "{ctx}");
                }
                _ => {}
            }
        };
        for step in 0..200 {
            let node = rng.random_range(0..g.len());
            let pe = (rng.random_range(0..2i64), rng.random_range(0..2i64));
            delta.apply_move(node, pe);
            verify(&mut delta, &mut rng, &format!("step {step} move"));
            if rng.random::<f64>() < 0.5 {
                delta.undo();
                verify(&mut delta, &mut rng, &format!("step {step} undo"));
            }
        }
        assert!(
            deferred > 0 && swept > 0,
            "{deferred} deferred, {swept} swept"
        );
        assert!(over > 0, "no PE went over its tile");
    }

    #[test]
    fn report_matches_evaluator_with_multicast_and_local_inputs() {
        use crate::affine::IdxExpr;
        use crate::mapping::{InputPlacement, PlaceExpr};
        let mut g = DataflowGraph::new("mc", 32);
        let x = g.add_input("X", vec![8]);
        let src = g.add_node(CExpr::input(x, 0), vec![], vec![0]);
        for i in 1..8i64 {
            let id = g.add_node(
                CExpr::dep(0).add(CExpr::input(x, i as u32)),
                vec![src],
                vec![i],
            );
            if i == 7 {
                g.mark_output(id);
            }
        }
        let m = MachineConfig::n5(4, 2);
        let ev = Evaluator::new(&g, &m)
            .with_multicast(true)
            .with_input_placement(0, InputPlacement::Local(PlaceExpr::row0(IdxExpr::c(0))))
            .with_writeback(true);
        let init = crate::search::default_mapper(&g, &m);
        let mut delta = DeltaEvaluator::new(&ev, &init.place);
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..40 {
            let node = rng.random_range(0..g.len());
            let pe = (rng.random_range(0..4i64), rng.random_range(0..2i64));
            delta.apply_move(node, pe);
            delta.assert_parity();
        }
    }

    #[test]
    fn empty_graph_reports_zero() {
        let g = DataflowGraph::new("empty", 32);
        let m = MachineConfig::linear(2);
        let ev = Evaluator::new(&g, &m);
        let mut delta = DeltaEvaluator::new(&ev, &[]);
        let rep = delta.report();
        assert_eq!(rep.cycles, 0);
        assert_eq!(rep.pes_used, 0);
        assert_eq!(delta.storage_violations(), 0);
    }

    // ------------------------------------------------------------------
    // DeltaCandidates: structural-edit repair parity.
    // ------------------------------------------------------------------

    use crate::affine::IdxExpr;
    use crate::mapping::{AffineMap, InputPlacement, LinearOrder, Mapping, PlaceExpr};
    use crate::mutate::{apply_edit, GraphEdit};
    use crate::search::{evaluate_candidate_ref, CandidateEval, FigureOfMerit, MappingCandidate};

    fn assert_same_eval(warm: &CandidateEval, cold: &CandidateEval, ctx: &str) {
        match (warm, cold) {
            (CandidateEval::Unresolvable, CandidateEval::Unresolvable) => {}
            (CandidateEval::Illegal(a), CandidateEval::Illegal(b)) => {
                assert_eq!(a, b, "violation counts differ: {ctx}");
            }
            (
                CandidateEval::Legal {
                    report: pa,
                    score: sa,
                },
                CandidateEval::Legal {
                    report: pb,
                    score: sb,
                },
            ) => {
                assert_eq!(pa, pb, "reports differ: {ctx}");
                assert_eq!(
                    sa.to_bits(),
                    sb.to_bits(),
                    "scores not bit-identical: {ctx}"
                );
            }
            _ => panic!("variant mismatch ({ctx}): warm {warm:?} vs cold {cold:?}"),
        }
    }

    /// The candidate mix every parity test drives: one that goes
    /// off-grid on big graphs, one causality-tight, one always legal
    /// (times spread past the grid diameter), and a fixed table.
    fn candidate_mix(g: &DataflowGraph) -> Vec<Mapping> {
        vec![
            Mapping::Affine(AffineMap {
                place: PlaceExpr::Linear {
                    id: IdxExpr::i(),
                    order: LinearOrder::RowMajor,
                },
                time: IdxExpr::i(),
            }),
            Mapping::Affine(AffineMap {
                place: PlaceExpr::row0(IdxExpr::i() % 3),
                time: IdxExpr::i(),
            }),
            Mapping::Affine(AffineMap {
                place: PlaceExpr::row0(IdxExpr::i() % 3),
                time: IdxExpr::i() * 4,
            }),
            Mapping::serial(g),
        ]
    }

    fn random_edit(rng: &mut StdRng, g: &DataflowGraph, next_idx: &mut i64) -> GraphEdit {
        loop {
            match rng.random_range(0..10u32) {
                0..=3 => {
                    let n = g.len() as u32;
                    let (expr, deps) = if n == 0 || rng.random_range(0..4u32) == 0 {
                        (CExpr::konst(Value::real(1.0)), vec![])
                    } else if n == 1 || rng.random_range(0..2u32) == 0 {
                        (CExpr::dep(0), vec![rng.random_range(0..n)])
                    } else {
                        let a = rng.random_range(0..n);
                        let b = rng.random_range(0..n);
                        (CExpr::dep(0).add(CExpr::dep(1)), vec![a.min(b), a.max(b)])
                    };
                    *next_idx += 1;
                    return GraphEdit::AddNode {
                        expr,
                        deps,
                        index: vec![*next_idx],
                        output: rng.random_range(0..5u32) == 0,
                    };
                }
                4..=5 => {
                    let cons = g.consumers();
                    let sinks: Vec<u32> = (0..g.len() as u32)
                        .filter(|&i| cons[i as usize].is_empty())
                        .collect();
                    if sinks.is_empty() {
                        continue;
                    }
                    return GraphEdit::RemoveNode {
                        id: sinks[rng.random_range(0..sinks.len())],
                    };
                }
                6..=8 => {
                    let with_deps: Vec<u32> = g
                        .nodes
                        .iter()
                        .enumerate()
                        .filter(|(_, n)| !n.deps.is_empty())
                        .map(|(i, _)| i as u32)
                        .collect();
                    if with_deps.is_empty() {
                        continue;
                    }
                    let node = with_deps[rng.random_range(0..with_deps.len())];
                    let slot = rng.random_range(0..g.nodes[node as usize].deps.len() as u32);
                    return GraphEdit::RetargetEdge {
                        node,
                        slot,
                        new_dep: rng.random_range(0..node),
                    };
                }
                _ => {
                    let bits = [4 * 32u64, 1 << 12, 1 << 20];
                    return GraphEdit::ResizeTile {
                        tile_bits: bits[rng.random_range(0..bits.len())],
                    };
                }
            }
        }
    }

    /// A warm candidate's interned ids and times equal a cold build's:
    /// every on-grid id is the cold id, every off-grid id stands for
    /// the cold place (warm numbering appends new off-grid places, cold
    /// numbering sorts them), and every time is the cold time.
    fn assert_same_state(dc: &DeltaCandidates, i: usize, cold: &ResolvedMapping, ctx: &str) {
        let state = dc.states[i]
            .as_ref()
            .expect("resolvable candidates keep state");
        let mut buf = ScratchBuf::default();
        dc.ctx.intern_places(&cold.place, &mut buf);
        let grid = dc.ctx.grid_pes() as u32;
        for (node, (&warm, &cold_pe)) in state.node_pe.iter().zip(&buf.node_pe).enumerate() {
            if cold_pe < grid {
                assert_eq!(warm, cold_pe, "interned ids differ at node {node}: {ctx}");
            }
            let place = interned_place(&dc.ctx, &state.offgrid, warm);
            assert_eq!(
                place, cold.place[node],
                "places differ at node {node}: {ctx}"
            );
        }
        assert_eq!(
            state.node_pe.len(),
            cold.place.len(),
            "node counts differ: {ctx}"
        );
        assert_eq!(state.time, cold.time, "times differ: {ctx}");
        assert_eq!(dc.resolved(i).as_ref(), Some(cold), "resolved: {ctx}");
    }

    #[test]
    fn random_edit_streams_keep_candidates_bit_exact() {
        // Unicast and multicast: the context carries every producer's
        // fan-out across edits either way.
        for (seed, multicast) in (0..3u64).flat_map(|s| [(s, false), (s, true)]) {
            let mut g = random_dag(30, 11 + seed);
            let mut m = MachineConfig::n5(3, 2);
            let mappings = candidate_mix(&g);
            let mut dc = {
                let ev = Evaluator::new(&g, &m).with_multicast(multicast);
                DeltaCandidates::new(&ev, mappings.clone())
            };
            let mut rng = StdRng::seed_from_u64(1000 + seed);
            let mut next_idx = g.len() as i64 - 1;
            for step in 0..50 {
                let edit = random_edit(&mut rng, &g, &mut next_idx);
                let receipt = apply_edit(&mut g, &mut m, &edit).expect("generated edits are valid");
                let ev = Evaluator::new(&g, &m).with_multicast(multicast);
                dc.apply(&ev, &receipt);
                dc.assert_indexed(&ev);
                for (i, mapping) in mappings.iter().enumerate() {
                    let warm = dc.evaluate(i, &ev, FigureOfMerit::Edp);
                    let cold = evaluate_candidate_ref(
                        &ev,
                        &g,
                        &m,
                        &MappingCandidate::new(format!("c{i}"), mapping.clone()),
                        FigureOfMerit::Edp,
                    );
                    let ctx = format!("seed {seed} multicast {multicast} step {step} cand {i}");
                    assert_same_eval(&warm, &cold, &ctx);
                    if let Ok(rm) = mapping.resolve(&g, &m) {
                        assert_same_state(&dc, i, &rm, &ctx);
                    }
                }
            }
        }
    }

    #[test]
    fn large_pes_keep_indexed_sweeps_exact_under_edits() {
        // About a thousand nodes on at most 4 PEs, so each PE's index
        // spans many blocks. Candidates: affine times in and out of id
        // order (so added members land mid-index), one with all four
        // PEs issuing together (over the issue width), and a table whose
        // times are a shuffle of the ids. The first 60 edits keep the
        // length, so the table stays warm through them. Marked outputs
        // live to the far future. Every 20 edits the tile is resized to
        // the first candidate's current peak, so the edits after it
        // flip PEs over capacity and back.
        let mut g = random_dag(1000, 31);
        for id in (0..1000).step_by(5) {
            g.mark_output(id);
        }
        let mut m = MachineConfig::n5(4, 1);
        let mut rng = StdRng::seed_from_u64(41);
        let mut shuffled: Vec<i64> = (0..g.len() as i64).collect();
        for k in (1..shuffled.len()).rev() {
            shuffled.swap(k, rng.random_range(0..=k));
        }
        let table = ResolvedMapping {
            place: (0..g.len() as i64).map(|i| (i % 4, 0)).collect(),
            time: shuffled.iter().map(|&t| 3 * t).collect(),
        };
        let mappings = vec![
            Mapping::Affine(AffineMap {
                place: PlaceExpr::row0(IdxExpr::i() % 4),
                time: IdxExpr::i() * 4,
            }),
            Mapping::Affine(AffineMap {
                place: PlaceExpr::row0(IdxExpr::i() % 2),
                time: (IdxExpr::i() % 7) * 1000 + IdxExpr::i(),
            }),
            Mapping::Affine(AffineMap {
                place: PlaceExpr::row0(IdxExpr::i() % 4),
                time: IdxExpr::i() % 50,
            }),
            Mapping::Table(table),
        ];
        let mut dc = DeltaCandidates::new(&Evaluator::new(&g, &m), mappings.clone());
        let mut next_idx = g.len() as i64 - 1;
        // Edits that flipped the first candidate's over-capacity count,
        // and edits the table candidate was repaired through.
        let (mut flips, mut table_warm) = (0u32, 0u32);
        for step in 0..160 {
            let edit = if step % 20 == 0 {
                let peak = dc.states[0].as_ref().expect("affine").tiles.global_peak();
                GraphEdit::ResizeTile { tile_bits: peak }
            } else {
                loop {
                    match random_edit(&mut rng, &g, &mut next_idx) {
                        GraphEdit::ResizeTile { .. } => {}
                        GraphEdit::AddNode { .. } | GraphEdit::RemoveNode { .. } if step < 60 => {}
                        edit => break edit,
                    }
                }
            };
            let over = |dc: &DeltaCandidates| dc.states[0].as_ref().map(|s| s.tiles.over_capacity);
            let before = over(&dc);
            let receipt = apply_edit(&mut g, &mut m, &edit).expect("generated edits are valid");
            let ev = Evaluator::new(&g, &m);
            dc.apply(&ev, &receipt);
            dc.assert_indexed(&ev);
            flips += u32::from(step % 20 != 0 && over(&dc) != before);
            table_warm += u32::from(dc.states[3].is_some());
            for (i, mapping) in mappings.iter().enumerate() {
                let warm = dc.evaluate(i, &ev, FigureOfMerit::Edp);
                let cold = evaluate_candidate_ref(
                    &ev,
                    &g,
                    &m,
                    &MappingCandidate::new(format!("c{i}"), mapping.clone()),
                    FigureOfMerit::Edp,
                );
                let ctx = format!("step {step} cand {i}");
                assert_same_eval(&warm, &cold, &ctx);
                if let Ok(rm) = mapping.resolve(&g, &m) {
                    assert_same_state(&dc, i, &rm, &ctx);
                }
            }
        }
        assert!(flips > 0, "no edit flipped a PE over its tile");
        assert!(table_warm >= 59, "the table went cold after {table_warm}");
    }

    #[test]
    fn table_candidates_drop_on_length_change_and_rebuild_lazily() {
        let mut g = random_dag(10, 2);
        let mut m = MachineConfig::n5(2, 2);
        let serial = Mapping::serial(&g);
        let mut dc = {
            let ev = Evaluator::new(&g, &m);
            DeltaCandidates::new(&ev, vec![serial.clone()])
        };
        let add = GraphEdit::AddNode {
            expr: CExpr::konst(Value::real(2.0)),
            deps: vec![],
            index: vec![10],
            output: false,
        };
        let r = apply_edit(&mut g, &mut m, &add).unwrap();
        let added = match r {
            AppliedEdit::AddNode { id } => id,
            _ => unreachable!(),
        };
        {
            let ev = Evaluator::new(&g, &m);
            dc.apply(&ev, &r);
            assert!(matches!(
                dc.evaluate(0, &ev, FigureOfMerit::Energy),
                CandidateEval::Unresolvable
            ));
            assert_eq!(dc.rebuilds(), 0, "unresolvable is not a rebuild");
        }
        let r = apply_edit(&mut g, &mut m, &GraphEdit::RemoveNode { id: added }).unwrap();
        let ev = Evaluator::new(&g, &m);
        dc.apply(&ev, &r);
        let warm = dc.evaluate(0, &ev, FigureOfMerit::Energy);
        let cold = evaluate_candidate_ref(
            &ev,
            &g,
            &m,
            &MappingCandidate::new("serial", serial),
            FigureOfMerit::Energy,
        );
        assert_same_eval(&warm, &cold, "table restored to matching length");
        assert_eq!(dc.rebuilds(), 1, "length restored via one cold rebuild");
    }

    #[test]
    fn unindexed_node_cold_rebuilds_affine_candidates() {
        let mut g = random_dag(12, 3);
        let mut m = MachineConfig::n5(3, 2);
        let affine = Mapping::Affine(AffineMap {
            place: PlaceExpr::row0(IdxExpr::i() % 3),
            time: IdxExpr::i() * 4,
        });
        let mut dc = {
            let ev = Evaluator::new(&g, &m);
            DeltaCandidates::new(&ev, vec![affine.clone()])
        };
        // An irregular (index-less) node makes every affine candidate
        // unresolvable.
        let add = GraphEdit::AddNode {
            expr: CExpr::konst(Value::real(1.0)),
            deps: vec![],
            index: vec![],
            output: false,
        };
        let r = apply_edit(&mut g, &mut m, &add).unwrap();
        let added = match r {
            AppliedEdit::AddNode { id } => id,
            _ => unreachable!(),
        };
        {
            let ev = Evaluator::new(&g, &m);
            dc.apply(&ev, &r);
            assert!(matches!(
                dc.evaluate(0, &ev, FigureOfMerit::Edp),
                CandidateEval::Unresolvable
            ));
        }
        let r = apply_edit(&mut g, &mut m, &GraphEdit::RemoveNode { id: added }).unwrap();
        let ev = Evaluator::new(&g, &m);
        dc.apply(&ev, &r);
        let warm = dc.evaluate(0, &ev, FigureOfMerit::Edp);
        let cold = evaluate_candidate_ref(
            &ev,
            &g,
            &m,
            &MappingCandidate::new("affine", affine),
            FigureOfMerit::Edp,
        );
        assert_same_eval(&warm, &cold, "affine resolvable again");
        assert_eq!(dc.rebuilds(), 1);
    }

    #[test]
    fn resize_repair_stays_warm_through_an_illegal_excursion() {
        let mut g = random_dag(20, 4);
        let mut m = MachineConfig::n5(3, 2);
        let affine = Mapping::Affine(AffineMap {
            place: PlaceExpr::row0(IdxExpr::i() % 3),
            time: IdxExpr::i() * 4,
        });
        let old_bits = m.tile_bits;
        let mut dc = {
            let ev = Evaluator::new(&g, &m);
            DeltaCandidates::new(&ev, vec![affine.clone()])
        };
        let check_parity = |dc: &mut DeltaCandidates, g: &DataflowGraph, m: &MachineConfig, ctx| {
            let ev = Evaluator::new(g, m);
            let warm = dc.evaluate(0, &ev, FigureOfMerit::Footprint);
            let cold = evaluate_candidate_ref(
                &ev,
                g,
                m,
                &MappingCandidate::new("affine", affine.clone()),
                FigureOfMerit::Footprint,
            );
            assert_same_eval(&warm, &cold, ctx);
            warm
        };
        assert!(matches!(
            check_parity(&mut dc, &g, &m, "before resize"),
            CandidateEval::Legal { .. }
        ));
        // Shrink tiles far below any peak: storage violations appear.
        let r = apply_edit(&mut g, &mut m, &GraphEdit::ResizeTile { tile_bits: 1 }).unwrap();
        {
            let ev = Evaluator::new(&g, &m);
            dc.apply(&ev, &r);
        }
        assert!(matches!(
            check_parity(&mut dc, &g, &m, "tiny tiles"),
            CandidateEval::Illegal(_)
        ));
        // Restore: legal again, and never rebuilt cold along the way.
        let r = apply_edit(
            &mut g,
            &mut m,
            &GraphEdit::ResizeTile {
                tile_bits: old_bits,
            },
        )
        .unwrap();
        {
            let ev = Evaluator::new(&g, &m);
            dc.apply(&ev, &r);
        }
        assert!(matches!(
            check_parity(&mut dc, &g, &m, "restored tiles"),
            CandidateEval::Legal { .. }
        ));
        assert_eq!(dc.rebuilds(), 0, "resize round-trip repaired warm");
    }

    #[test]
    fn dram_and_writeback_counters_stay_exact_under_edits() {
        // DRAM, home-PE and at-use input reads, unicast and multicast:
        // the context carries every node's reads and fan-out across
        // edits.
        let placements = [
            InputPlacement::Dram,
            InputPlacement::Local(PlaceExpr::row0(IdxExpr::i() % 3)),
            InputPlacement::AtUse,
        ];
        for (placement, multicast) in placements
            .iter()
            .flat_map(|p| [(p.clone(), false), (p.clone(), true)])
        {
            let mut g = DataflowGraph::new("io", 32);
            let x = g.add_input("X", vec![8]);
            g.add_node(CExpr::input(x, 0), vec![], vec![0]);
            g.add_node(CExpr::input(x, 1).add(CExpr::input(x, 0)), vec![], vec![1]);
            let mut m = MachineConfig::n5(3, 2);
            let affine = Mapping::Affine(AffineMap {
                place: PlaceExpr::row0(IdxExpr::i() % 3),
                time: IdxExpr::i() * 4,
            });
            // Must be configured identically on every call.
            fn make_ev<'a>(
                g: &'a DataflowGraph,
                m: &'a MachineConfig,
                placement: &InputPlacement,
                multicast: bool,
            ) -> Evaluator<'a> {
                Evaluator::new(g, m)
                    .with_writeback(true)
                    .with_all_inputs(placement.clone())
                    .with_multicast(multicast)
            }
            let mut dc = {
                let ev = make_ev(&g, &m, &placement, multicast);
                DeltaCandidates::new(&ev, vec![affine.clone()])
            };
            let mut rng = StdRng::seed_from_u64(77);
            let mut next_idx = 1i64;
            for step in 0..40 {
                let edit = if g.len() < 3 || rng.random_range(0..3u32) > 0 {
                    let n = g.len() as u32;
                    let elem = rng.random_range(0..8u32);
                    let (expr, deps) = if rng.random_range(0..2u32) == 0 {
                        (CExpr::input(x, elem), vec![])
                    } else {
                        (
                            CExpr::input(x, elem).add(CExpr::dep(0)),
                            vec![rng.random_range(0..n)],
                        )
                    };
                    next_idx += 1;
                    GraphEdit::AddNode {
                        expr,
                        deps,
                        index: vec![next_idx],
                        output: rng.random_range(0..3u32) == 0,
                    }
                } else {
                    let cons = g.consumers();
                    let sinks: Vec<u32> = (0..g.len() as u32)
                        .filter(|&i| cons[i as usize].is_empty())
                        .collect();
                    GraphEdit::RemoveNode {
                        id: sinks[rng.random_range(0..sinks.len())],
                    }
                };
                let receipt = apply_edit(&mut g, &mut m, &edit).expect("valid edit");
                let ev = make_ev(&g, &m, &placement, multicast);
                dc.apply(&ev, &receipt);
                let warm = dc.evaluate(0, &ev, FigureOfMerit::Energy);
                let cold = evaluate_candidate_ref(
                    &ev,
                    &g,
                    &m,
                    &MappingCandidate::new("affine", affine.clone()),
                    FigureOfMerit::Energy,
                );
                let ctx = format!("io {placement:?} multicast {multicast} step {step}");
                assert_same_eval(&warm, &cold, &ctx);
            }
        }
    }
}
