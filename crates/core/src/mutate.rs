//! Live structural edits of a (function, machine) pair.
//!
//! A serving session (see `fm-serve`) holds a [`DataflowGraph`] and a
//! [`MachineConfig`] that *change under it*: clients stream batched
//! [`GraphEdit`]s — add/remove a node, retarget an edge, resize the
//! per-PE tile — and expect re-tunes to be repaired incrementally
//! rather than re-evaluated from scratch. This module is the shared
//! vocabulary for those edits:
//!
//! * [`GraphEdit`] — the wire-facing edit description (serializable,
//!   validated, never panics).
//! * [`apply_edit`] — applies one edit to the graph/machine and
//!   returns an [`AppliedEdit`] *receipt* carrying exactly the context
//!   an incremental cost repairer needs (e.g. the removed node's
//!   dependency list, the retargeted edge's old producer).
//!
//! * [`undo_edit`] — hands a receipt back: the graph and machine
//!   return exactly to what they were before the edit, so a batch of
//!   edits is made atomic by undoing its receipts in reverse.
//!
//! The receipt is what [`crate::delta::DeltaCandidates`] consumes to
//! repair per-candidate legality counters and cost trees in O(cone)
//! instead of O(V + E).

use serde::{Deserialize, Serialize};

use crate::dataflow::{CExpr, DataflowGraph, MutationError, Node, NodeId};
use crate::machine::MachineConfig;

/// One structural edit, as a client describes it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum GraphEdit {
    /// Append a node (it gets the next id, keeping topological order).
    AddNode {
        /// The compiled element expression.
        expr: CExpr,
        /// Producer ids, aligned with the expression's `Dep` slots.
        deps: Vec<NodeId>,
        /// Domain point for affine mappings (empty for irregular nodes).
        index: Vec<i64>,
        /// Whether the node is a marked output element.
        output: bool,
    },
    /// Remove a consumerless node; ids above it shift down by one.
    RemoveNode {
        /// The node to remove.
        id: NodeId,
    },
    /// Point dep slot `slot` of `node` at a different earlier producer.
    RetargetEdge {
        /// The consuming node.
        node: NodeId,
        /// Which of its dep slots to rewrite.
        slot: u32,
        /// The new producer (must be an earlier node).
        new_dep: NodeId,
    },
    /// Change the machine's per-PE tile capacity.
    ResizeTile {
        /// New capacity in bits.
        tile_bits: u64,
    },
}

/// The receipt of a successfully applied [`GraphEdit`]: what changed,
/// with enough pre-edit context for an incremental repairer.
#[derive(Debug, Clone, PartialEq)]
pub enum AppliedEdit {
    /// A node was appended with this id (= new length - 1).
    AddNode {
        /// Id of the new node.
        id: NodeId,
    },
    /// A node was removed; ids above `id` shifted down by one.
    RemoveNode {
        /// Pre-removal id of the node.
        id: NodeId,
        /// The removed node itself. Its `deps` are all `< id`, so they
        /// name the same nodes before and after compaction.
        node: Node,
    },
    /// A dep slot was rewritten.
    RetargetEdge {
        /// The consuming node.
        node: NodeId,
        /// The rewritten slot.
        slot: u32,
        /// The producer the slot used to name.
        old_dep: NodeId,
        /// The producer it names now.
        new_dep: NodeId,
    },
    /// The tile capacity changed.
    ResizeTile {
        /// Capacity before the edit.
        old_bits: u64,
        /// Capacity after the edit.
        new_bits: u64,
    },
}

impl AppliedEdit {
    /// Size of the *dirty cone*: how many nodes an incremental
    /// repairer must touch (the edited node plus the producers whose
    /// consumer sets changed). `ResizeTile` dirties no node — only
    /// per-PE storage counters.
    pub fn cone_size(&self, graph: &DataflowGraph) -> u64 {
        match self {
            AppliedEdit::AddNode { id } => 1 + graph.nodes[*id as usize].deps.len() as u64,
            AppliedEdit::RemoveNode { node, .. } => 1 + node.deps.len() as u64,
            AppliedEdit::RetargetEdge {
                old_dep, new_dep, ..
            } => {
                if old_dep == new_dep {
                    1
                } else {
                    3
                }
            }
            AppliedEdit::ResizeTile { .. } => 0,
        }
    }
}

/// Apply one edit to a live (graph, machine) pair.
///
/// On error nothing is modified. On success the returned
/// [`AppliedEdit`] records what happened, including the context a
/// [`crate::delta::DeltaCandidates`] needs to repair cached state.
pub fn apply_edit(
    graph: &mut DataflowGraph,
    machine: &mut MachineConfig,
    edit: &GraphEdit,
) -> Result<AppliedEdit, MutationError> {
    match edit {
        GraphEdit::AddNode {
            expr,
            deps,
            index,
            output,
        } => {
            let id = graph.try_add_node(expr.clone(), deps.clone(), index.clone(), *output)?;
            Ok(AppliedEdit::AddNode { id })
        }
        GraphEdit::RemoveNode { id } => {
            let node = graph.remove_node(*id)?;
            Ok(AppliedEdit::RemoveNode { id: *id, node })
        }
        GraphEdit::RetargetEdge {
            node,
            slot,
            new_dep,
        } => {
            let old_dep = graph.retarget_edge(*node, *slot, *new_dep)?;
            Ok(AppliedEdit::RetargetEdge {
                node: *node,
                slot: *slot,
                old_dep,
                new_dep: *new_dep,
            })
        }
        GraphEdit::ResizeTile { tile_bits } => {
            let old_bits = machine.tile_bits;
            machine.tile_bits = *tile_bits;
            Ok(AppliedEdit::ResizeTile {
                old_bits,
                new_bits: *tile_bits,
            })
        }
    }
}

/// Revert one applied edit, given its receipt: the graph and machine
/// return exactly to their state before [`apply_edit`] made it. Undoing
/// a batch's receipts in reverse order reverts the batch. The receipt
/// must be the latest edit not yet undone. Each undo touches what its
/// edit touched: a node put back at `id` rewrites only the nodes above
/// it (see [`DataflowGraph::insert_node`]).
pub fn undo_edit(graph: &mut DataflowGraph, machine: &mut MachineConfig, receipt: AppliedEdit) {
    match receipt {
        AppliedEdit::AddNode { id } => {
            assert_eq!(id as usize + 1, graph.len(), "undo the latest edit first");
            graph.nodes.pop();
        }
        AppliedEdit::RemoveNode { id, node } => graph.insert_node(id, node),
        AppliedEdit::RetargetEdge {
            node,
            slot,
            old_dep,
            new_dep,
        } => {
            let d = &mut graph.nodes[node as usize].deps[slot as usize];
            assert_eq!(*d, new_dep, "undo the latest edit first");
            *d = old_dep;
        }
        AppliedEdit::ResizeTile { old_bits, .. } => machine.tile_bits = old_bits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn chain(n: usize) -> DataflowGraph {
        let mut g = DataflowGraph::new("chain", 32);
        g.add_node(CExpr::konst(Value::real(1.0)), vec![], vec![0]);
        for i in 1..n {
            g.add_node(
                CExpr::dep(0).add(CExpr::konst(Value::real(1.0))),
                vec![(i - 1) as NodeId],
                vec![i as i64],
            );
        }
        g
    }

    #[test]
    fn apply_edit_round_trips_each_kind() {
        let mut g = chain(4);
        let mut m = MachineConfig::n5(2, 2);

        let add = GraphEdit::AddNode {
            expr: CExpr::dep(0).mul(CExpr::konst(Value::real(2.0))),
            deps: vec![3],
            index: vec![4],
            output: false,
        };
        let r = apply_edit(&mut g, &mut m, &add).unwrap();
        assert_eq!(r, AppliedEdit::AddNode { id: 4 });
        assert_eq!(r.cone_size(&g), 2);

        let retarget = GraphEdit::RetargetEdge {
            node: 4,
            slot: 0,
            new_dep: 1,
        };
        let r = apply_edit(&mut g, &mut m, &retarget).unwrap();
        assert_eq!(
            r,
            AppliedEdit::RetargetEdge {
                node: 4,
                slot: 0,
                old_dep: 3,
                new_dep: 1
            }
        );
        assert_eq!(r.cone_size(&g), 3);

        let remove = GraphEdit::RemoveNode { id: 4 };
        let r = apply_edit(&mut g, &mut m, &remove).unwrap();
        assert!(matches!(r, AppliedEdit::RemoveNode { id: 4, .. }));
        assert_eq!(r.cone_size(&g), 2);

        let resize = GraphEdit::ResizeTile { tile_bits: 1024 };
        let r = apply_edit(&mut g, &mut m, &resize).unwrap();
        assert!(matches!(r, AppliedEdit::ResizeTile { new_bits: 1024, .. }));
        assert_eq!(m.tile_bits, 1024);
        assert_eq!(r.cone_size(&g), 0);
    }

    #[test]
    fn failed_edit_leaves_state_untouched() {
        let mut g = chain(3);
        let mut m = MachineConfig::n5(2, 2);
        let before = g.clone();
        let bad = GraphEdit::RemoveNode { id: 0 }; // has a consumer
        assert!(apply_edit(&mut g, &mut m, &bad).is_err());
        assert_eq!(g, before);
    }

    #[test]
    fn undo_restores_graph_and_machine_for_every_edit_kind() {
        // A diamond under a chain, so a mid-graph node can be removed
        // and the ids above it renumbered.
        let mut g = chain(4);
        g.add_node(CExpr::dep(0), vec![1], vec![4]);
        g.add_node(CExpr::dep(0).add(CExpr::dep(1)), vec![3, 4], vec![5]);
        g.mark_output(5);
        let mut m = MachineConfig::n5(2, 2);
        let edits = [
            GraphEdit::AddNode {
                expr: CExpr::dep(0).add(CExpr::dep(1)),
                deps: vec![2, 5],
                index: vec![6],
                output: true,
            },
            GraphEdit::RemoveNode { id: 5 },
            GraphEdit::RetargetEdge {
                node: 5,
                slot: 1,
                new_dep: 0,
            },
            GraphEdit::ResizeTile { tile_bits: 96 },
        ];
        for edit in &edits {
            let (g0, m0) = (g.clone(), m.clone());
            let receipt = apply_edit(&mut g, &mut m, edit).unwrap();
            assert!(g != g0 || m != m0, "{edit:?} changed something");
            undo_edit(&mut g, &mut m, receipt);
            assert_eq!((&g, &m), (&g0, &m0), "{edit:?}");
        }
        // Node 4 loses its consumer, then goes: node 5 becomes 4 and
        // its deps are rewritten; the undo puts both back. As a batch:
        // the receipts undone in reverse restore the start.
        let (g0, m0) = (g.clone(), m.clone());
        let batch = [
            GraphEdit::RetargetEdge {
                node: 5,
                slot: 1,
                new_dep: 2,
            },
            GraphEdit::RemoveNode { id: 4 },
            GraphEdit::ResizeTile { tile_bits: 64 },
        ];
        let receipts: Vec<AppliedEdit> = batch
            .iter()
            .map(|e| apply_edit(&mut g, &mut m, e).unwrap())
            .collect();
        assert_eq!(g.nodes[4].deps, vec![3, 2], "ids above 4 shifted down");
        for receipt in receipts.into_iter().rev() {
            undo_edit(&mut g, &mut m, receipt);
        }
        assert_eq!((&g, &m), (&g0, &m0));
    }

    #[test]
    fn remove_node_equals_rebuilding_without_it() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..40 {
            let n = rng.random_range(1..40u32);
            let mut g = DataflowGraph::new("dag", 32);
            for i in 0..n {
                let deps: Vec<NodeId> = (0..rng.random_range(0..=2.min(i)))
                    .map(|_| rng.random_range(0..i))
                    .collect();
                let expr = match deps.len() {
                    0 => CExpr::konst(Value::real(1.0)),
                    1 => CExpr::dep(0),
                    _ => CExpr::dep(0).add(CExpr::dep(1)),
                };
                g.add_node(expr, deps, vec![i64::from(i)]);
            }
            let cons = g.consumers();
            let sinks: Vec<NodeId> = (0..n).filter(|&i| cons[i as usize].is_empty()).collect();
            let r = sinks[rng.random_range(0..sinks.len())];
            // The rebuild: every other node in order, deps renamed.
            let mut want = DataflowGraph::new("dag", 32);
            for (i, node) in g.nodes.iter().enumerate().filter(|&(i, _)| i != r as usize) {
                let deps = node.deps.iter().map(|&d| d - u32::from(d > r)).collect();
                let id = want.add_node(node.expr.clone(), deps, node.index.clone());
                assert_eq!(id as usize, i - usize::from(i > r as usize));
            }
            let mut got = g.clone();
            let removed = got.remove_node(r).unwrap();
            assert_eq!(got, want, "remove {r} of {n}");
            got.insert_node(r, removed);
            assert_eq!(got, g, "insert {r} of {n}");
        }
    }

    #[test]
    fn graph_edit_serde_round_trips() {
        let edits = vec![
            GraphEdit::AddNode {
                expr: CExpr::dep(0),
                deps: vec![0],
                index: vec![1, 2],
                output: true,
            },
            GraphEdit::RemoveNode { id: 7 },
            GraphEdit::RetargetEdge {
                node: 3,
                slot: 1,
                new_dep: 0,
            },
            GraphEdit::ResizeTile { tile_bits: 4096 },
        ];
        let s = serde_json::to_string(&edits).unwrap();
        let back: Vec<GraphEdit> = serde_json::from_str(&s).unwrap();
        assert_eq!(back, edits);
    }
}
