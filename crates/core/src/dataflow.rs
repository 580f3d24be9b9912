//! The elaborated element-level dataflow graph.
//!
//! This is the concrete form of the paper's "function": one node per
//! element computation, edges from each definition to each use, and
//! nothing else — "no ordering, other than that imposed by data
//! dependencies, is specified. By its nature, a definition exposes all
//! available parallelism."
//!
//! Nodes carry a *compiled* expression ([`CExpr`]) whose leaves are
//! dependency slots (`Dep(k)` = the node's `k`-th incoming edge), input
//! element reads (`In{input, flat}`) or constants. Regular computations
//! are elaborated from a [`crate::recurrence::Recurrence`]; irregular
//! ones (FFT butterflies, BFS rounds) build graphs directly through
//! [`DataflowGraph::add_node`].
//!
//! Construction enforces topological order (`deps[k] < id`), so the
//! graph is acyclic by construction and node id order is a valid
//! evaluation order.

use serde::{Deserialize, Serialize};

use fm_costmodel::OpKind;

use crate::expr::BinOp;
use crate::value::Value;

/// Identifies a node in a [`DataflowGraph`] (index into `nodes`).
pub type NodeId = u32;

/// A leaf of a compiled expression.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Leaf {
    /// The value of the node's `k`-th dependency edge.
    Dep(u32),
    /// An element of an input tensor, by flat index.
    In {
        /// Input tensor id.
        input: u32,
        /// Flattened element index (row-major).
        flat: u32,
    },
    /// A constant.
    Const(Value),
}

/// A compiled element expression.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CExpr {
    /// A leaf.
    Leaf(Leaf),
    /// Negation.
    Neg(Box<CExpr>),
    /// A binary operation.
    Bin(BinOp, Box<CExpr>, Box<CExpr>),
}

#[allow(clippy::should_implement_trait)] // add/sub/mul are builder combinators, deliberately named
impl CExpr {
    /// Dependency-slot leaf.
    pub fn dep(k: u32) -> CExpr {
        CExpr::Leaf(Leaf::Dep(k))
    }

    /// Input-element leaf.
    pub fn input(input: u32, flat: u32) -> CExpr {
        CExpr::Leaf(Leaf::In { input, flat })
    }

    /// Constant leaf.
    pub fn konst(v: Value) -> CExpr {
        CExpr::Leaf(Leaf::Const(v))
    }

    /// `self + rhs`.
    pub fn add(self, rhs: CExpr) -> CExpr {
        CExpr::Bin(BinOp::Add, Box::new(self), Box::new(rhs))
    }

    /// `self - rhs`.
    pub fn sub(self, rhs: CExpr) -> CExpr {
        CExpr::Bin(BinOp::Sub, Box::new(self), Box::new(rhs))
    }

    /// `self * rhs`.
    pub fn mul(self, rhs: CExpr) -> CExpr {
        CExpr::Bin(BinOp::Mul, Box::new(self), Box::new(rhs))
    }

    /// `min(self, rhs)`.
    pub fn min(self, rhs: CExpr) -> CExpr {
        CExpr::Bin(BinOp::Min, Box::new(self), Box::new(rhs))
    }

    /// `max(self, rhs)`.
    pub fn max(self, rhs: CExpr) -> CExpr {
        CExpr::Bin(BinOp::Max, Box::new(self), Box::new(rhs))
    }

    /// Number of `Dep` slots referenced (max slot + 1; 0 if none).
    pub fn dep_slots(&self) -> u32 {
        let mut max: Option<u32> = None;
        self.walk(&mut |e| {
            if let CExpr::Leaf(Leaf::Dep(k)) = e {
                max = Some(max.map_or(*k, |m: u32| m.max(*k)));
            }
        });
        max.map_or(0, |m| m + 1)
    }

    /// Input reads `(input, flat)` in left-to-right order.
    pub fn input_reads(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let CExpr::Leaf(Leaf::In { input, flat }) = e {
                out.push((*input, *flat));
            }
        });
        out
    }

    /// Hardware ops charged when this expression evaluates.
    pub fn op_kinds(&self, width: u32) -> Vec<OpKind> {
        let mut out = Vec::new();
        self.walk(&mut |e| match e {
            CExpr::Bin(op, _, _) => out.push(op.op_kind(width)),
            CExpr::Neg(_) => out.push(OpKind::logic(width)),
            _ => {}
        });
        out
    }

    /// Evaluate given dependency-slot values and an input resolver.
    pub fn eval(&self, dep_vals: &[Value], input_at: &mut impl FnMut(u32, u32) -> Value) -> Value {
        match self {
            CExpr::Leaf(Leaf::Dep(k)) => dep_vals[*k as usize],
            CExpr::Leaf(Leaf::In { input, flat }) => input_at(*input, *flat),
            CExpr::Leaf(Leaf::Const(v)) => *v,
            CExpr::Neg(a) => -a.eval(dep_vals, input_at),
            CExpr::Bin(op, a, b) => {
                op.apply(a.eval(dep_vals, input_at), b.eval(dep_vals, input_at))
            }
        }
    }

    fn walk<'a>(&'a self, f: &mut impl FnMut(&'a CExpr)) {
        f(self);
        match self {
            CExpr::Neg(a) => a.walk(f),
            CExpr::Bin(_, a, b) => {
                a.walk(f);
                b.walk(f);
            }
            CExpr::Leaf(_) => {}
        }
    }
}

/// Why a structural mutation of a [`DataflowGraph`] was rejected.
///
/// Mutations come from untrusted session clients (see `fm-serve`), so
/// unlike [`DataflowGraph::add_node`] they must not panic: every
/// precondition violation is a typed, serializable error.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MutationError {
    /// The expression references a different number of `Dep` slots than
    /// deps were supplied.
    DepSlotMismatch {
        /// `Dep` slots the expression references.
        slots: u32,
        /// Producer ids supplied.
        deps: u32,
    },
    /// A dependency does not reference an earlier node.
    ForwardDep {
        /// The node being added or edited.
        node: NodeId,
        /// The offending dependency.
        dep: NodeId,
    },
    /// An input read names an undeclared input tensor.
    UnknownInput {
        /// The undeclared tensor id.
        input: u32,
    },
    /// An input read is past the end of its tensor.
    InputReadOutOfRange {
        /// Input tensor id.
        input: u32,
        /// Offending flat index.
        flat: u32,
        /// Tensor element count.
        len: u64,
    },
    /// The named node does not exist.
    NoSuchNode {
        /// The missing id.
        id: NodeId,
    },
    /// The node still has consumers and cannot be removed.
    HasConsumers {
        /// The node that was to be removed.
        id: NodeId,
        /// How many edges still read it.
        consumers: u64,
    },
    /// The edge slot does not exist on the node.
    NoSuchSlot {
        /// The node being edited.
        node: NodeId,
        /// The missing slot.
        slot: u32,
    },
}

impl std::fmt::Display for MutationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MutationError::DepSlotMismatch { slots, deps } => {
                write!(
                    f,
                    "expression references {slots} dep slots but {deps} deps supplied"
                )
            }
            MutationError::ForwardDep { node, dep } => {
                write!(f, "node {node}: dependency {dep} is not an earlier node")
            }
            MutationError::UnknownInput { input } => write!(f, "unknown input {input}"),
            MutationError::InputReadOutOfRange { input, flat, len } => {
                write!(f, "input {input} read at {flat} out of range {len}")
            }
            MutationError::NoSuchNode { id } => write!(f, "no such node {id}"),
            MutationError::HasConsumers { id, consumers } => {
                write!(f, "node {id} still has {consumers} consumer edges")
            }
            MutationError::NoSuchSlot { node, slot } => {
                write!(f, "node {node} has no dep slot {slot}")
            }
        }
    }
}

impl std::error::Error for MutationError {}

/// Why a whole graph failed [`DataflowGraph::validate`]: the first node
/// that breaks a construction rule, and the rule it breaks.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphError {
    /// The offending node.
    pub node: NodeId,
    /// The rule it breaks, as an edit adding that node would be refused.
    pub rule: MutationError,
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.rule {
            // Already names the node.
            MutationError::ForwardDep { .. } => write!(f, "{}", self.rule),
            rule => write!(f, "node {}: {rule}", self.node),
        }
    }
}

impl std::error::Error for GraphError {}

/// One element computation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// The compiled expression.
    pub expr: CExpr,
    /// Producer nodes, aligned with the expression's `Dep` slots.
    pub deps: Vec<NodeId>,
    /// The domain point this node was elaborated from (empty for
    /// irregular graphs; used by affine mappings).
    pub index: Vec<i64>,
    /// Whether this element is part of the function's output.
    pub output: bool,
}

/// An input tensor declaration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InputSpec {
    /// Human-readable name (e.g. `"R"`, `"Q"`).
    pub name: String,
    /// Extent per dimension.
    pub dims: Vec<usize>,
}

impl InputSpec {
    /// Total element count.
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row-major flat index for a multi-index; `None` if out of range.
    pub fn flatten(&self, idx: &[i64]) -> Option<usize> {
        if idx.len() != self.dims.len() {
            return None;
        }
        let mut flat: usize = 0;
        for (&i, &d) in idx.iter().zip(&self.dims) {
            if i < 0 || i as usize >= d {
                return None;
            }
            flat = flat * d + i as usize;
        }
        Some(flat)
    }
}

/// The element-level dataflow graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataflowGraph {
    /// Name for reports.
    pub name: String,
    /// Datapath width in bits (cost model granularity for every edge and
    /// op in this graph).
    pub width_bits: u32,
    /// Input tensors.
    pub inputs: Vec<InputSpec>,
    /// Nodes in topological (construction) order.
    pub nodes: Vec<Node>,
}

impl DataflowGraph {
    /// New empty graph.
    pub fn new(name: impl Into<String>, width_bits: u32) -> Self {
        DataflowGraph {
            name: name.into(),
            width_bits,
            inputs: Vec::new(),
            nodes: Vec::new(),
        }
    }

    /// Declare an input tensor; returns its id.
    pub fn add_input(&mut self, name: impl Into<String>, dims: Vec<usize>) -> u32 {
        self.inputs.push(InputSpec {
            name: name.into(),
            dims,
        });
        (self.inputs.len() - 1) as u32
    }

    /// Add a node. `deps` must reference earlier nodes and match the
    /// expression's `Dep` slot count; violations panic (construction
    /// bugs).
    pub fn add_node(&mut self, expr: CExpr, deps: Vec<NodeId>, index: Vec<i64>) -> NodeId {
        let id = self.nodes.len() as NodeId;
        assert_eq!(
            expr.dep_slots() as usize,
            deps.len(),
            "node {id}: expression references {} dep slots but {} deps supplied",
            expr.dep_slots(),
            deps.len()
        );
        for &d in &deps {
            assert!(d < id, "node {id}: dependency {d} is not an earlier node");
        }
        for (input, flat) in expr.input_reads() {
            let spec = self
                .inputs
                .get(input as usize)
                .unwrap_or_else(|| panic!("node {id}: unknown input {input}"));
            assert!(
                (flat as usize) < spec.len(),
                "node {id}: input {input} read at {flat} out of range {}",
                spec.len()
            );
        }
        self.nodes.push(Node {
            expr,
            deps,
            index,
            output: false,
        });
        id
    }

    /// Mark a node as an output element.
    pub fn mark_output(&mut self, id: NodeId) {
        self.nodes[id as usize].output = true;
    }

    /// Validate a prospective node against this graph: the
    /// construction rules [`DataflowGraph::add_node`] asserts, checked
    /// in one allocation-free walk of the expression. `id` is the id
    /// the node would get (= current length for appends).
    fn validate_node(
        &self,
        id: NodeId,
        expr: &CExpr,
        deps: &[NodeId],
    ) -> Result<(), MutationError> {
        // One walk finds the slot count and the first bad input read;
        // the errors are then reported in rule order.
        let (mut slots, mut bad) = (0u32, None);
        expr.walk(&mut |e| match e {
            CExpr::Leaf(Leaf::Dep(k)) => slots = slots.max(k + 1),
            CExpr::Leaf(Leaf::In { input, flat }) if bad.is_none() => {
                bad = match self.inputs.get(*input as usize) {
                    None => Some(MutationError::UnknownInput { input: *input }),
                    Some(spec) if *flat as usize >= spec.len() => {
                        Some(MutationError::InputReadOutOfRange {
                            input: *input,
                            flat: *flat,
                            len: spec.len() as u64,
                        })
                    }
                    Some(_) => None,
                };
            }
            _ => {}
        });
        if slots as usize != deps.len() {
            return Err(MutationError::DepSlotMismatch {
                slots,
                deps: deps.len() as u32,
            });
        }
        if let Some(&d) = deps.iter().find(|&&d| d >= id) {
            return Err(MutationError::ForwardDep { node: id, dep: d });
        }
        bad.map_or(Ok(()), Err)
    }

    /// Check every node against the construction rules
    /// [`DataflowGraph::add_node`] asserts: the expression's dep-slot
    /// count matches its deps, every dep names an earlier node, and
    /// every input read is in range. A graph built through `add_node`
    /// always passes; a graph that arrives deserialized (over the wire,
    /// from a file) must pass before anything evaluates it, since the
    /// engines index by these rules. Allocation-free; stops at the
    /// first node that breaks a rule.
    pub fn validate(&self) -> Result<(), GraphError> {
        for (id, n) in self.nodes.iter().enumerate() {
            self.validate_node(id as NodeId, &n.expr, &n.deps)
                .map_err(|rule| GraphError {
                    node: id as NodeId,
                    rule,
                })?;
        }
        Ok(())
    }

    /// Fallible [`DataflowGraph::add_node`]: append a node, rejecting
    /// (instead of panicking on) forward deps, slot-count mismatches
    /// and bad input reads. Used by the live-mutation path where node
    /// descriptions arrive from untrusted clients.
    pub fn try_add_node(
        &mut self,
        expr: CExpr,
        deps: Vec<NodeId>,
        index: Vec<i64>,
        output: bool,
    ) -> Result<NodeId, MutationError> {
        let id = self.nodes.len() as NodeId;
        self.validate_node(id, &expr, &deps)?;
        self.nodes.push(Node {
            expr,
            deps,
            index,
            output,
        });
        Ok(id)
    }

    /// Remove a **consumerless** node, compacting node ids: every id
    /// above `id` shifts down by one (dependency lists are rewritten).
    /// Returns the removed node. Nodes that still feed later nodes are
    /// refused — remove or retarget the consumers first, keeping the
    /// graph closed under construction-order topology.
    ///
    /// Relies on that topology (`deps < id` for every node, what
    /// [`Self::validate`] checks): a consumer of `id`, and a dep that
    /// names an id above it, can only sit in a node above `id`, so only
    /// those nodes are read and rewritten. Removing the last node is
    /// O(1).
    pub fn remove_node(&mut self, id: NodeId) -> Result<Node, MutationError> {
        let r = id as usize;
        if r >= self.nodes.len() {
            return Err(MutationError::NoSuchNode { id });
        }
        debug_assert!(
            self.nodes
                .iter()
                .enumerate()
                .all(|(i, n)| n.deps.iter().all(|&d| (d as usize) < i)),
            "remove_node needs every dep below its node"
        );
        let consumers = self.nodes[r + 1..]
            .iter()
            .flat_map(|n| n.deps.iter())
            .filter(|&&d| d == id)
            .count() as u64;
        if consumers > 0 {
            return Err(MutationError::HasConsumers { id, consumers });
        }
        let removed = self.nodes.remove(r);
        for n in &mut self.nodes[r..] {
            for d in &mut n.deps {
                if *d > id {
                    *d -= 1;
                }
            }
        }
        Ok(removed)
    }

    /// Put `node` back at id `id`, shifting every id at or above it up
    /// by one: the inverse of [`Self::remove_node`], which hands back
    /// the node it removed. Like it, this reads and rewrites only the
    /// nodes above `id`; `node`'s deps must name nodes below `id`.
    pub fn insert_node(&mut self, id: NodeId, node: Node) {
        let r = id as usize;
        assert!(r <= self.nodes.len(), "node {id} past the end");
        debug_assert!(
            node.deps.iter().all(|&d| d < id),
            "node {id}: deps must name earlier nodes"
        );
        self.nodes.insert(r, node);
        for n in &mut self.nodes[r + 1..] {
            for d in &mut n.deps {
                if *d >= id {
                    *d += 1;
                }
            }
        }
    }

    /// Point dep slot `slot` of `node` at a different (earlier)
    /// producer. Returns the previous producer id. The expression is
    /// untouched — only where the operand comes from changes.
    pub fn retarget_edge(
        &mut self,
        node: NodeId,
        slot: u32,
        new_dep: NodeId,
    ) -> Result<NodeId, MutationError> {
        if node as usize >= self.nodes.len() {
            return Err(MutationError::NoSuchNode { id: node });
        }
        if new_dep >= node {
            return Err(MutationError::ForwardDep { node, dep: new_dep });
        }
        let n = &mut self.nodes[node as usize];
        let d = n
            .deps
            .get_mut(slot as usize)
            .ok_or(MutationError::NoSuchSlot { node, slot })?;
        Ok(std::mem::replace(d, new_dep))
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Ids of output nodes. If none were marked, nodes with no consumers
    /// are treated as outputs.
    pub fn outputs(&self) -> Vec<NodeId> {
        let marked: Vec<NodeId> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.output)
            .map(|(i, _)| i as NodeId)
            .collect();
        if !marked.is_empty() {
            return marked;
        }
        let mut has_consumer = vec![false; self.nodes.len()];
        for n in &self.nodes {
            for &d in &n.deps {
                has_consumer[d as usize] = true;
            }
        }
        has_consumer
            .iter()
            .enumerate()
            .filter(|(_, &c)| !c)
            .map(|(i, _)| i as NodeId)
            .collect()
    }

    /// Consumer lists: for each node, which later nodes read it.
    pub fn consumers(&self) -> Vec<Vec<NodeId>> {
        let mut cons = vec![Vec::new(); self.nodes.len()];
        for (id, n) in self.nodes.iter().enumerate() {
            for &d in &n.deps {
                cons[d as usize].push(id as NodeId);
            }
        }
        cons
    }

    /// Functional evaluation: compute every node's value given input
    /// tensors (flattened row-major).
    ///
    /// Panics if an input tensor is missing or short — the shapes are
    /// part of the function's signature.
    pub fn eval(&self, inputs: &[Vec<Value>]) -> Vec<Value> {
        assert_eq!(
            inputs.len(),
            self.inputs.len(),
            "graph {} expects {} inputs, got {}",
            self.name,
            self.inputs.len(),
            inputs.len()
        );
        for (spec, data) in self.inputs.iter().zip(inputs) {
            assert_eq!(
                spec.len(),
                data.len(),
                "input {} expects {} elements, got {}",
                spec.name,
                spec.len(),
                data.len()
            );
        }
        let mut vals: Vec<Value> = Vec::with_capacity(self.nodes.len());
        let mut dep_buf: Vec<Value> = Vec::new();
        for n in &self.nodes {
            dep_buf.clear();
            dep_buf.extend(n.deps.iter().map(|&d| vals[d as usize]));
            let mut input_at = |input: u32, flat: u32| inputs[input as usize][flat as usize];
            vals.push(n.expr.eval(&dep_buf, &mut input_at));
        }
        vals
    }

    /// Total hardware-op count across all nodes (unit "work" at op
    /// granularity).
    pub fn op_count(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.expr.op_kinds(self.width_bits).len() as u64)
            .sum()
    }

    /// Longest dependency chain measured in *nodes* (the function's
    /// intrinsic critical path, i.e. its minimum-depth parallel time).
    pub fn depth(&self) -> u64 {
        let mut d = vec![0u64; self.nodes.len()];
        let mut max = 0;
        for (id, n) in self.nodes.iter().enumerate() {
            let dep_max = n.deps.iter().map(|&p| d[p as usize]).max().unwrap_or(0);
            d[id] = dep_max + 1;
            max = max.max(d[id]);
        }
        max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Diamond: d = (a+b) with a,b from one constant source.
    fn diamond() -> DataflowGraph {
        let mut g = DataflowGraph::new("diamond", 32);
        let s = g.add_node(CExpr::konst(Value::real(1.0)), vec![], vec![]);
        let a = g.add_node(
            CExpr::dep(0).add(CExpr::konst(Value::real(2.0))),
            vec![s],
            vec![],
        );
        let b = g.add_node(
            CExpr::dep(0).mul(CExpr::konst(Value::real(3.0))),
            vec![s],
            vec![],
        );
        let d = g.add_node(CExpr::dep(0).add(CExpr::dep(1)), vec![a, b], vec![]);
        g.mark_output(d);
        g
    }

    #[test]
    fn eval_diamond() {
        let g = diamond();
        let vals = g.eval(&[]);
        assert_eq!(vals[3].re, 6.0); // (1+2) + (1*3)
    }

    #[test]
    fn depth_and_outputs() {
        let g = diamond();
        assert_eq!(g.depth(), 3);
        assert_eq!(g.outputs(), vec![3]);
    }

    #[test]
    fn outputs_default_to_sinks() {
        let mut g = DataflowGraph::new("sinks", 32);
        let a = g.add_node(CExpr::konst(Value::ZERO), vec![], vec![]);
        let _b = g.add_node(CExpr::dep(0), vec![a], vec![]);
        let _c = g.add_node(CExpr::dep(0), vec![a], vec![]);
        assert_eq!(g.outputs(), vec![1, 2]);
    }

    #[test]
    fn consumers_computed() {
        let g = diamond();
        let cons = g.consumers();
        assert_eq!(cons[0], vec![1, 2]);
        assert_eq!(cons[1], vec![3]);
        assert_eq!(cons[3], Vec::<NodeId>::new());
    }

    #[test]
    fn input_reads_resolved() {
        let mut g = DataflowGraph::new("inp", 32);
        let r = g.add_input("R", vec![4]);
        let n = g.add_node(CExpr::input(r, 2).add(CExpr::input(r, 3)), vec![], vec![]);
        let vals = g.eval(&[vec![
            Value::real(10.0),
            Value::real(20.0),
            Value::real(30.0),
            Value::real(40.0),
        ]]);
        assert_eq!(vals[n as usize].re, 70.0);
    }

    #[test]
    #[should_panic(expected = "is not an earlier node")]
    fn forward_dep_rejected() {
        let mut g = DataflowGraph::new("bad", 32);
        g.add_node(CExpr::dep(0), vec![5], vec![]);
    }

    #[test]
    #[should_panic(expected = "dep slots")]
    fn slot_count_mismatch_rejected() {
        let mut g = DataflowGraph::new("bad", 32);
        g.add_node(CExpr::dep(1), vec![], vec![]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn input_read_out_of_range_rejected() {
        let mut g = DataflowGraph::new("bad", 32);
        let r = g.add_input("R", vec![2]);
        g.add_node(CExpr::input(r, 5), vec![], vec![]);
    }

    #[test]
    fn flatten_row_major() {
        let spec = InputSpec {
            name: "A".into(),
            dims: vec![3, 4],
        };
        assert_eq!(spec.flatten(&[0, 0]), Some(0));
        assert_eq!(spec.flatten(&[1, 2]), Some(6));
        assert_eq!(spec.flatten(&[2, 3]), Some(11));
        assert_eq!(spec.flatten(&[3, 0]), None);
        assert_eq!(spec.flatten(&[0, -1]), None);
        assert_eq!(spec.flatten(&[0]), None);
    }

    #[test]
    fn op_count_counts_expression_ops() {
        let g = diamond();
        // Nodes: const (0 ops), add (1), mul (1), add (1).
        assert_eq!(g.op_count(), 3);
    }

    #[test]
    fn dep_slots_counts_max_plus_one() {
        assert_eq!(CExpr::dep(0).add(CExpr::dep(2)).dep_slots(), 3);
        assert_eq!(CExpr::konst(Value::ZERO).dep_slots(), 0);
    }

    #[test]
    fn try_add_node_rejects_what_add_node_panics_on() {
        let mut g = DataflowGraph::new("m", 32);
        assert!(matches!(
            g.try_add_node(CExpr::dep(0), vec![5], vec![], false),
            Err(MutationError::ForwardDep { .. })
        ));
        assert!(matches!(
            g.try_add_node(CExpr::dep(1), vec![], vec![], false),
            Err(MutationError::DepSlotMismatch { .. })
        ));
        assert!(matches!(
            g.try_add_node(CExpr::input(0, 0), vec![], vec![], false),
            Err(MutationError::UnknownInput { .. })
        ));
        let r = g.add_input("R", vec![2]);
        assert!(matches!(
            g.try_add_node(CExpr::input(r, 5), vec![], vec![], false),
            Err(MutationError::InputReadOutOfRange { .. })
        ));
        assert_eq!(g.len(), 0, "rejected nodes must not be appended");
        let a = g
            .try_add_node(CExpr::input(r, 1), vec![], vec![], true)
            .unwrap();
        assert_eq!(a, 0);
        assert!(g.nodes[0].output);
    }

    #[test]
    fn remove_node_compacts_ids() {
        let mut g = diamond();
        // Node 3 (the sink) is the only consumerless node.
        assert!(matches!(
            g.remove_node(0),
            Err(MutationError::HasConsumers {
                id: 0,
                consumers: 2
            })
        ));
        g.remove_node(3).unwrap();
        assert_eq!(g.len(), 3);
        // Now 1 and 2 are consumerless; removing 1 shifts 2 -> 1.
        g.remove_node(1).unwrap();
        assert_eq!(g.len(), 2);
        assert_eq!(
            g.nodes[1].deps,
            vec![0],
            "dep on node 0 survives compaction"
        );
        assert!(matches!(
            g.remove_node(9),
            Err(MutationError::NoSuchNode { id: 9 })
        ));
    }

    #[test]
    fn validate_names_the_node_and_the_rule() {
        assert_eq!(diamond().validate(), Ok(()));
        let node = |expr: CExpr, deps: Vec<NodeId>| Node {
            expr,
            deps,
            index: vec![],
            output: false,
        };
        let mut g = DataflowGraph::new("bad", 32);
        let r = g.add_input("R", vec![2]);
        g.nodes.push(node(CExpr::konst(Value::ZERO), vec![]));
        // A forward dep, and a dep past the end, break the same rule.
        for dep in [1, 7] {
            g.nodes.push(node(CExpr::dep(0), vec![dep]));
            let err = g.validate().unwrap_err();
            assert_eq!(err.node, 1);
            assert_eq!(err.rule, MutationError::ForwardDep { node: 1, dep });
            assert_eq!(
                err.to_string(),
                format!("node 1: dependency {dep} is not an earlier node")
            );
            g.nodes.pop();
        }
        for (expr, deps, rule) in [
            (
                CExpr::dep(1),
                vec![0],
                MutationError::DepSlotMismatch { slots: 2, deps: 1 },
            ),
            (
                CExpr::input(r + 1, 0),
                vec![],
                MutationError::UnknownInput { input: r + 1 },
            ),
            (
                CExpr::dep(0).add(CExpr::input(r, 2)),
                vec![0],
                MutationError::InputReadOutOfRange {
                    input: r,
                    flat: 2,
                    len: 2,
                },
            ),
        ] {
            g.nodes.push(node(expr, deps));
            assert_eq!(g.validate(), Err(GraphError { node: 1, rule }));
            g.nodes.pop();
        }
        assert_eq!(g.validate(), Ok(()));
    }

    #[test]
    fn insert_node_inverts_remove_node() {
        let g = diamond();
        // Each consumerless node of each stage, removed and put back.
        let mut h = g.clone();
        let sink = h.remove_node(3).unwrap();
        let mid = h.remove_node(1).unwrap();
        assert_eq!(h.nodes[1].deps, vec![0]);
        h.insert_node(1, mid);
        h.insert_node(3, sink);
        assert_eq!(h, g);
    }

    #[test]
    fn retarget_edge_swaps_producer() {
        let mut g = diamond();
        // d reads (a, b); point slot 1 back at the source instead of b.
        let old = g.retarget_edge(3, 1, 0).unwrap();
        assert_eq!(old, 2);
        assert_eq!(g.nodes[3].deps, vec![1, 0]);
        let vals = g.eval(&[]);
        assert_eq!(vals[3].re, 4.0); // (1+2) + 1
        assert!(matches!(
            g.retarget_edge(3, 9, 0),
            Err(MutationError::NoSuchSlot { node: 3, slot: 9 })
        ));
        assert!(matches!(
            g.retarget_edge(1, 0, 2),
            Err(MutationError::ForwardDep { node: 1, dep: 2 })
        ));
    }

    #[test]
    fn serde_round_trip() {
        let g = diamond();
        let s = serde_json::to_string(&g).unwrap();
        let back: DataflowGraph = serde_json::from_str(&s).unwrap();
        assert_eq!(back, g);
    }
}
