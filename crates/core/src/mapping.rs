//! Space-time mappings.
//!
//! "The mapping specifies when and where each element is computed and
//! where elements reside from definition to last use."
//!
//! A [`Mapping`] assigns each dataflow node a *place* (a PE coordinate)
//! and a *time* (a cycle). For recurrence-elaborated graphs the natural
//! form is an [`AffineMap`] over the node's domain indices — exactly
//! what the paper writes (`at i % P, time floor(i/P)*N + j`). Irregular
//! graphs use an explicit per-node table. [`Mapping::resolve`] turns
//! either into a [`ResolvedMapping`], the form the legality checker,
//! cost evaluator, and grid simulator consume.
//!
//! Placements may be 2-D (`x`/`y` expressions) or *linear*: a single PE
//! id laid onto the grid in row-major or serpentine order. Serpentine
//! order keeps consecutive ids physically adjacent across row
//! boundaries, which systolic schedules need.

use serde::{Deserialize, Serialize};

use crate::affine::IdxExpr;
use crate::dataflow::DataflowGraph;
use crate::machine::MachineConfig;

/// A PE coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Place {
    /// Column.
    pub x: u32,
    /// Row.
    pub y: u32,
}

impl Place {
    /// Construct.
    pub fn new(x: u32, y: u32) -> Place {
        Place { x, y }
    }

    /// As a tuple (for geometry helpers).
    pub fn tuple(self) -> (u32, u32) {
        (self.x, self.y)
    }
}

/// How a linear PE id is laid onto the 2-D grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LinearOrder {
    /// `id = y·cols + x`.
    RowMajor,
    /// Row-major but with odd rows reversed, so `id` and `id+1` are
    /// always physically adjacent.
    Serpentine,
}

impl LinearOrder {
    /// Coordinates of linear `id` on a grid with `cols` columns.
    pub fn coords(self, id: i64, cols: u32) -> (i64, i64) {
        let c = i64::from(cols);
        let y = id.div_euclid(c);
        let r = id.rem_euclid(c);
        let x = match self {
            LinearOrder::RowMajor => r,
            LinearOrder::Serpentine => {
                if y % 2 == 0 {
                    r
                } else {
                    c - 1 - r
                }
            }
        };
        (x, y)
    }
}

/// A place expression over domain indices.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PlaceExpr {
    /// Explicit 2-D coordinates.
    Grid {
        /// Column expression.
        x: IdxExpr,
        /// Row expression.
        y: IdxExpr,
    },
    /// A linear PE id laid out in the given order.
    Linear {
        /// PE id expression.
        id: IdxExpr,
        /// Layout order.
        order: LinearOrder,
    },
}

impl PlaceExpr {
    /// A 1-D placement on row 0 (for linear arrays).
    pub fn row0(x: IdxExpr) -> PlaceExpr {
        PlaceExpr::Grid {
            x,
            y: IdxExpr::c(0),
        }
    }

    /// Evaluate to raw (possibly off-grid) coordinates.
    pub fn eval(&self, idx: &[i64], cols: u32) -> (i64, i64) {
        match self {
            PlaceExpr::Grid { x, y } => (x.eval(idx), y.eval(idx)),
            PlaceExpr::Linear { id, order } => order.coords(id.eval(idx), cols),
        }
    }
}

/// An affine space-time map over domain indices.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AffineMap {
    /// Where each element executes.
    pub place: PlaceExpr,
    /// When each element executes.
    pub time: IdxExpr,
}

/// Where an input tensor's elements live before execution starts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum InputPlacement {
    /// Off chip: each distinct element is charged one DRAM fetch.
    Dram,
    /// Pre-distributed on chip; each element's home PE is given by a
    /// place expression over the *input's own* indices. Reads from the
    /// home PE are tile accesses; remote reads are NoC messages.
    Local(PlaceExpr),
    /// Idealized: resident wherever it is read (no movement charged).
    /// Useful to isolate the cost of the computation proper.
    AtUse,
}

/// Errors resolving a mapping against a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MappingError {
    /// An affine mapping was applied to a node with no domain index.
    MissingIndex {
        /// Offending node.
        node: u32,
    },
    /// The table mapping's length does not match the graph.
    LengthMismatch {
        /// Table length.
        table: usize,
        /// Graph length.
        graph: usize,
    },
}

impl std::fmt::Display for MappingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MappingError::MissingIndex { node } => {
                write!(
                    f,
                    "affine mapping applied to node {node} with no domain index"
                )
            }
            MappingError::LengthMismatch { table, graph } => {
                write!(
                    f,
                    "table mapping has {table} entries for a graph of {graph} nodes"
                )
            }
        }
    }
}

impl std::error::Error for MappingError {}

/// A fully resolved space-time assignment: raw coordinates and cycles
/// per node. Raw (i64) because legality checking — not resolution —
/// decides whether places are on the grid and times non-negative.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResolvedMapping {
    /// Per-node raw PE coordinates.
    pub place: Vec<(i64, i64)>,
    /// Per-node cycle.
    pub time: Vec<i64>,
}

impl ResolvedMapping {
    /// The checked place of a node (call only after legality passes).
    pub fn place_of(&self, node: u32) -> Place {
        let (x, y) = self.place[node as usize];
        Place::new(x as u32, y as u32)
    }

    /// The makespan: latest cycle + 1 (assuming times start near 0).
    pub fn makespan(&self) -> i64 {
        self.time.iter().copied().max().map_or(0, |t| t + 1)
    }

    /// Number of distinct PEs actually used.
    pub fn pes_used(&self) -> usize {
        let mut v: Vec<(i64, i64)> = self.place.clone();
        v.sort_unstable();
        v.dedup();
        v.len()
    }
}

/// A space-time mapping in either affine or table form.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Mapping {
    /// Affine over node domain indices.
    Affine(AffineMap),
    /// Explicit per-node assignment.
    Table(ResolvedMapping),
}

impl Mapping {
    /// Everything on PE (0,0), one node per cycle in topological order —
    /// the fully serial mapping ("mappings … range from completely
    /// serial to minimum-depth parallel").
    pub fn serial(graph: &DataflowGraph) -> Mapping {
        Mapping::Table(ResolvedMapping {
            place: vec![(0, 0); graph.len()],
            time: (0..graph.len() as i64).collect(),
        })
    }

    /// Resolve against a graph.
    pub fn resolve(
        &self,
        graph: &DataflowGraph,
        machine: &MachineConfig,
    ) -> Result<ResolvedMapping, MappingError> {
        let mut place = Vec::with_capacity(graph.len());
        let mut time = Vec::with_capacity(graph.len());
        self.resolve_into(graph, machine, &mut place, &mut time)?;
        Ok(ResolvedMapping { place, time })
    }

    /// [`Self::resolve`] into caller-owned buffers (cleared first), so
    /// the flat candidate evaluator resolves into scratch with no
    /// allocation in steady state. Errors in exactly the cases
    /// `resolve` errors; buffer contents are unspecified on error.
    pub fn resolve_into(
        &self,
        graph: &DataflowGraph,
        machine: &MachineConfig,
        place: &mut Vec<(i64, i64)>,
        time: &mut Vec<i64>,
    ) -> Result<(), MappingError> {
        place.clear();
        time.clear();
        match self {
            Mapping::Affine(am) => {
                for (id, n) in graph.nodes.iter().enumerate() {
                    if n.index.is_empty() {
                        return Err(MappingError::MissingIndex { node: id as u32 });
                    }
                    place.push(am.place.eval(&n.index, machine.cols));
                    time.push(am.time.eval(&n.index));
                }
                Ok(())
            }
            Mapping::Table(t) => {
                if t.place.len() != graph.len() || t.time.len() != graph.len() {
                    return Err(MappingError::LengthMismatch {
                        table: t.place.len().min(t.time.len()),
                        graph: graph.len(),
                    });
                }
                place.extend_from_slice(&t.place);
                time.extend_from_slice(&t.time);
                Ok(())
            }
        }
    }

    /// [`Self::resolve_into`], with an affine mapping resolved a column
    /// at a time over `index` (the graph's [`IndexArena`], if it has
    /// one) when every variable it names is in the arena. Table
    /// mappings, graphs without an arena and expressions naming a
    /// variable past the index length take the per-node path, so the
    /// result, every error and every panic are `resolve_into`'s.
    /// `work` holds the expression columns; it only grows.
    pub(crate) fn resolve_columns_into(
        &self,
        graph: &DataflowGraph,
        machine: &MachineConfig,
        index: Option<&IndexArena>,
        place: &mut Vec<(i64, i64)>,
        time: &mut Vec<i64>,
        work: &mut Vec<i64>,
    ) -> Result<(), MappingError> {
        match (self, index) {
            (Mapping::Affine(am), Some(index)) if index.covers(am) => {
                am.resolve_columns(index, machine.cols, place, time, work);
                Ok(())
            }
            _ => self.resolve_into(graph, machine, place, time),
        }
    }
}

/// A graph's domain indices, column-major: column `k` holds every
/// node's index `k`, in node order. Exists only for a non-empty graph
/// whose nodes all carry the same number (at least one) of indices,
/// the graphs on which an affine mapping resolves a column at a time.
#[derive(Debug, Clone)]
pub(crate) struct IndexArena {
    dims: usize,
    nodes: usize,
    cols: Vec<i64>,
}

impl IndexArena {
    /// The arena of `graph`'s indices; `None` when the graph is empty
    /// or its nodes' index lengths are ragged or zero.
    pub(crate) fn new(graph: &DataflowGraph) -> Option<IndexArena> {
        let dims = graph.nodes.first()?.index.len();
        if dims == 0 || graph.nodes.iter().any(|n| n.index.len() != dims) {
            return None;
        }
        let nodes = graph.len();
        let mut cols = vec![0; dims * nodes];
        for (id, n) in graph.nodes.iter().enumerate() {
            for (k, &v) in n.index.iter().enumerate() {
                cols[k * nodes + id] = v;
            }
        }
        Some(IndexArena { dims, nodes, cols })
    }

    /// Whether every variable `am` names is one of the arena's columns.
    fn covers(&self, am: &AffineMap) -> bool {
        let has = |e: &IdxExpr| e.max_var().is_none_or(|k| k < self.dims);
        has(&am.time)
            && match &am.place {
                PlaceExpr::Grid { x, y } => has(x) && has(y),
                PlaceExpr::Linear { id, .. } => has(id),
            }
    }
}

impl AffineMap {
    /// Resolve at every node of `index` at once: each place expression
    /// into a column of `work`, then zipped (or laid out) into `place`,
    /// and the time expression straight into `time`. Requires
    /// `index.covers(self)`.
    fn resolve_columns(
        &self,
        index: &IndexArena,
        grid_cols: u32,
        place: &mut Vec<(i64, i64)>,
        time: &mut Vec<i64>,
        work: &mut Vec<i64>,
    ) {
        let n = index.nodes;
        let (exprs, spare) = match &self.place {
            PlaceExpr::Grid { x, y } => (2, x.spare_columns().max(y.spare_columns())),
            PlaceExpr::Linear { id, .. } => (1, id.spare_columns()),
        };
        let need = (exprs + spare.max(self.time.spare_columns())) * n;
        if work.len() < need {
            work.resize(need, 0);
        }
        let (out, spare) = work.split_at_mut(exprs * n);
        let cols = &index.cols;
        place.clear();
        match &self.place {
            PlaceExpr::Grid { x, y } => {
                let (xs, ys) = out.split_at_mut(n);
                x.eval_columns(cols, xs, spare);
                y.eval_columns(cols, ys, spare);
                place.extend(xs.iter().copied().zip(ys.iter().copied()));
            }
            PlaceExpr::Linear { id, order } => {
                id.eval_columns(cols, out, spare);
                place.extend(out.iter().map(|&id| order.coords(id, grid_cols)));
            }
        }
        time.clear();
        time.resize(n, 0);
        self.time.eval_columns(cols, time, spare);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::CExpr;
    use crate::value::Value;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn chain(n: usize) -> DataflowGraph {
        let mut g = DataflowGraph::new("chain", 32);
        let mut prev = None;
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
        g
    }

    #[test]
    fn serpentine_keeps_neighbors_adjacent() {
        let cols = 4;
        for id in 0..15 {
            let a = LinearOrder::Serpentine.coords(id, cols);
            let b = LinearOrder::Serpentine.coords(id + 1, cols);
            let hops = (a.0 - b.0).abs() + (a.1 - b.1).abs();
            assert_eq!(hops, 1, "ids {id},{} at {a:?},{b:?}", id + 1);
        }
    }

    #[test]
    fn row_major_wraps_with_long_hop() {
        let cols = 4;
        let a = LinearOrder::RowMajor.coords(3, cols);
        let b = LinearOrder::RowMajor.coords(4, cols);
        assert_eq!(a, (3, 0));
        assert_eq!(b, (0, 1));
    }

    #[test]
    fn affine_resolution_uses_node_indices() {
        let g = chain(8);
        let m = MachineConfig::linear(4);
        let map = Mapping::Affine(AffineMap {
            place: PlaceExpr::row0(IdxExpr::i() % 4),
            time: IdxExpr::i(),
        });
        let r = map.resolve(&g, &m).unwrap();
        assert_eq!(r.place[5], (1, 0));
        assert_eq!(r.time[5], 5);
        assert_eq!(r.makespan(), 8);
        assert_eq!(r.pes_used(), 4);
    }

    #[test]
    fn affine_on_unindexed_graph_fails() {
        let mut g = DataflowGraph::new("no-index", 32);
        g.add_node(CExpr::konst(Value::ZERO), vec![], vec![]);
        let m = MachineConfig::linear(2);
        let map = Mapping::Affine(AffineMap {
            place: PlaceExpr::row0(IdxExpr::i()),
            time: IdxExpr::i(),
        });
        assert!(matches!(
            map.resolve(&g, &m),
            Err(MappingError::MissingIndex { node: 0 })
        ));
    }

    #[test]
    fn table_length_checked() {
        let g = chain(4);
        let m = MachineConfig::linear(2);
        let map = Mapping::Table(ResolvedMapping {
            place: vec![(0, 0); 3],
            time: vec![0; 3],
        });
        assert!(matches!(
            map.resolve(&g, &m),
            Err(MappingError::LengthMismatch { table: 3, graph: 4 })
        ));
    }

    #[test]
    fn serial_mapping_is_one_pe_one_per_cycle() {
        let g = chain(5);
        let m = MachineConfig::linear(4);
        let r = Mapping::serial(&g).resolve(&g, &m).unwrap();
        assert_eq!(r.pes_used(), 1);
        assert_eq!(r.makespan(), 5);
        assert_eq!(r.time, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn place_expr_linear_eval() {
        let p = PlaceExpr::Linear {
            id: IdxExpr::i(),
            order: LinearOrder::Serpentine,
        };
        assert_eq!(p.eval(&[6], 4), (1, 1)); // row 1 reversed: 4→(3,1), 5→(2,1), 6→(1,1)
    }

    /// A random index expression over `dims` variables, every variant
    /// reachable, division and modulus by constants of either sign.
    fn random_expr(rng: &mut StdRng, dims: usize, depth: u32) -> IdxExpr {
        let nonzero = |rng: &mut StdRng| {
            let c = rng.random_range(1..8i64);
            if rng.random_bool(0.5) {
                -c
            } else {
                c
            }
        };
        let leaf = depth == 0 || rng.random_bool(0.3);
        match rng.random_range(if leaf { 0..2 } else { 0..7u8 }) {
            0 => IdxExpr::Const(rng.random_range(-9..10i64)),
            1 => IdxExpr::Var(rng.random_range(0..dims)),
            k => {
                let a = Box::new(random_expr(rng, dims, depth - 1));
                match k {
                    2 => IdxExpr::Add(a, Box::new(random_expr(rng, dims, depth - 1))),
                    3 => IdxExpr::Sub(a, Box::new(random_expr(rng, dims, depth - 1))),
                    4 => IdxExpr::MulC(a, rng.random_range(-5..6i64)),
                    5 => IdxExpr::DivC(a, nonzero(rng)),
                    _ => IdxExpr::ModC(a, nonzero(rng)),
                }
            }
        }
    }

    /// `n` unconnected nodes with `dims` random (often negative)
    /// indices each.
    fn random_domain(rng: &mut StdRng, n: usize, dims: usize) -> DataflowGraph {
        let mut g = DataflowGraph::new("domain", 32);
        for _ in 0..n {
            let index = (0..dims).map(|_| rng.random_range(-40..41i64)).collect();
            g.add_node(CExpr::konst(Value::ZERO), vec![], index);
        }
        g
    }

    #[test]
    fn columnwise_resolution_matches_the_per_node_path() {
        let mut rng = StdRng::seed_from_u64(25);
        // One work buffer for every round: it only grows, as in scratch.
        let mut work = Vec::new();
        let (mut place, mut time) = (Vec::new(), Vec::new());
        for round in 0..3000 {
            let dims = rng.random_range(1..4usize);
            let n = rng.random_range(1..50usize);
            let g = random_domain(&mut rng, n, dims);
            let m = MachineConfig::n5(rng.random_range(1..9u32), rng.random_range(1..9u32));
            let depth = rng.random_range(0..5u32);
            let place_expr = match rng.random_range(0..3u8) {
                0 => PlaceExpr::Grid {
                    x: random_expr(&mut rng, dims, depth),
                    y: random_expr(&mut rng, dims, depth),
                },
                k => PlaceExpr::Linear {
                    id: random_expr(&mut rng, dims, depth),
                    order: if k == 1 {
                        LinearOrder::RowMajor
                    } else {
                        LinearOrder::Serpentine
                    },
                },
            };
            let am = AffineMap {
                place: place_expr,
                time: random_expr(&mut rng, dims, depth),
            };
            let arena = IndexArena::new(&g).expect("uniform, non-empty indices");
            assert!(arena.covers(&am));
            am.resolve_columns(&arena, m.cols, &mut place, &mut time, &mut work);
            let want = Mapping::Affine(am.clone()).resolve(&g, &m).unwrap();
            assert_eq!(place, want.place, "round {round}: places of {am:?}");
            assert_eq!(time, want.time, "round {round}: times of {am:?}");
        }
    }

    /// The outcome of resolving `map` on `g`, a panic included.
    fn outcome(
        resolve: impl FnOnce() -> Result<ResolvedMapping, MappingError>,
    ) -> Option<Result<ResolvedMapping, MappingError>> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(resolve)).ok()
    }

    /// [`Mapping::resolve_columns_into`] with the graph's own arena.
    fn resolve_columns(
        map: &Mapping,
        g: &DataflowGraph,
        m: &MachineConfig,
    ) -> Result<ResolvedMapping, MappingError> {
        let (mut place, mut time) = (Vec::new(), Vec::new());
        let arena = IndexArena::new(g);
        map.resolve_columns_into(g, m, arena.as_ref(), &mut place, &mut time, &mut Vec::new())?;
        Ok(ResolvedMapping { place, time })
    }

    #[test]
    fn columnwise_resolution_keeps_the_per_node_outcome_off_the_arena() {
        let m = MachineConfig::linear(4);
        let by_i = Mapping::Affine(AffineMap {
            place: PlaceExpr::row0(IdxExpr::i() % 4),
            time: IdxExpr::i(),
        });
        let by_j = Mapping::Affine(AffineMap {
            place: PlaceExpr::row0(IdxExpr::i() % 4),
            time: IdxExpr::j(),
        });
        let node = |g: &mut DataflowGraph, index: Vec<i64>| {
            g.add_node(CExpr::konst(Value::ZERO), vec![], index);
        };
        // Ragged: no arena. Naming only `i` resolves; naming `j` panics
        // at the first one-index node, as per node.
        let mut ragged = DataflowGraph::new("ragged", 32);
        node(&mut ragged, vec![0, 1]);
        node(&mut ragged, vec![1]);
        assert!(IndexArena::new(&ragged).is_none());
        // An empty index: `MissingIndex` for that node.
        let mut empty = ragged.clone();
        node(&mut empty, vec![]);
        // Uniform one-index nodes have an arena, but `j` is past it.
        let mut one = DataflowGraph::new("one", 32);
        node(&mut one, vec![0]);
        node(&mut one, vec![1]);
        assert!(IndexArena::new(&one).is_some());
        for (g, map) in [
            (&ragged, &by_i),
            (&ragged, &by_j),
            (&empty, &by_i),
            (&empty, &by_j),
            (&one, &by_i),
            (&one, &by_j),
        ] {
            let per_node = outcome(|| map.resolve(g, &m));
            let columnwise = outcome(|| resolve_columns(map, g, &m));
            assert_eq!(columnwise, per_node, "{} under {map:?}", g.name);
        }
        assert_eq!(
            outcome(|| resolve_columns(&by_i, &empty, &m)),
            Some(Err(MappingError::MissingIndex { node: 2 }))
        );
        assert_eq!(outcome(|| resolve_columns(&by_j, &one, &m)), None);
        assert!(outcome(|| resolve_columns(&by_i, &ragged, &m)).is_some_and(|r| r.is_ok()));
    }

    #[test]
    fn serpentine_row1_reversed() {
        // Row 1 (ids 4..7) on 4 cols runs right-to-left.
        assert_eq!(LinearOrder::Serpentine.coords(4, 4), (3, 1));
        assert_eq!(LinearOrder::Serpentine.coords(7, 4), (0, 1));
        // Row 2 runs left-to-right again.
        assert_eq!(LinearOrder::Serpentine.coords(8, 4), (0, 2));
    }
}
