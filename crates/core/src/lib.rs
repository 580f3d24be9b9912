#![warn(missing_docs)]

//! # fm-core — the Function & Mapping (F&M) model
//!
//! This crate implements the model Bill Dally proposes in §3 of the
//! SPAA'21 panel paper: separate the **function** of a computation (a
//! purely data-dependence-constrained specification that "by its nature
//! exposes all available parallelism") from its **mapping** (an
//! assignment of every operation to a *time* — a discrete cycle — and a
//! *location* — a point on a processor grid — together with a path for
//! every value from its definition to each use).
//!
//! The pieces, in dependency order:
//!
//! * [`value`] — the scalar value domain (complex doubles; real kernels
//!   use the real part).
//! * [`expr`] — element expressions: the right-hand side of a recurrence
//!   such as the paper's `H(i,j) = min(H(i-1,j-1)+f(R[i],Q[j]), …, 0)`.
//! * [`recurrence`] — affine tensor recurrences over rectangular
//!   iteration domains (`Forall i, j in (0:N-1, 0:N-1)`), with boundary
//!   policies.
//! * [`dataflow`] — the elaborated element-level DAG: one node per
//!   tensor point, edges carrying value widths. Irregular computations
//!   (FFT butterflies, BFS) construct these directly.
//! * [`affine`] — integer affine index expressions with floor-division
//!   and modulo, sufficient to express the paper's mapping
//!   `place H(i,j) at i % P, time floor(i/P)·N + j`.
//! * [`mapping`] — space-time mappings: affine families for recurrences
//!   and explicit tables for irregular DAGs; input placements (local
//!   pre-distribution vs. DRAM).
//! * [`machine`] — the abstract machine configuration a mapping targets:
//!   technology, grid extent, clock, per-PE issue width, tile capacity,
//!   link width.
//! * [`mutate`] — live structural edits of a (function, machine) pair
//!   (add/remove node, retarget edge, resize tile), with receipts that
//!   drive incremental cost repair in [`delta`].
//! * [`legality`] — the static checker: causality with wire delay,
//!   issue-width bounds, tile-storage bounds. ("A legal mapping is one
//!   that preserves causality …")
//! * [`cost`] — the analytic cost evaluator: cycles, picoseconds,
//!   femtojoules (as an [`fm_costmodel::EnergyLedger`]), footprint,
//!   utilization. This is the model's core promise: *predictable* cost.
//! * [`flat`] — the flat evaluation engine: interned PE ids, SoA cost
//!   folds, and a reusable scratch arena for zero-allocation candidate
//!   batching (bit-identical to [`cost`], just laid out for the
//!   machine).
//! * [`pramcost`] — the unit-cost (PRAM-style) evaluator of the same
//!   DAG, used to demonstrate ranking inversions (experiment E5).
//! * [`search`] — systematic mapping search: enumerate an affine
//!   mapping family, evaluate, optimize a figure of merit.
//! * [`compose`] — modular composition with layout alignment and
//!   automatic remap (shuffle) insertion; the map/reduce/gather/scatter/
//!   shuffle idioms.
//! * [`lower`] — mechanical lowering of (function, mapping) to an
//!   architecture description, serializable and renderable as an RTL
//!   sketch.
//! * [`transform`] — mapping transforms: recompute-at-consumers ("a
//!   mapping may compute the same element at multiple points … rather
//!   than communicating it").
//! * [`forall`] — a fluent builder that reads like the paper's
//!   `Forall` fragment.
//! * [`parse`] — a parser for the paper's *surface syntax*: the
//!   `Forall … Map … at … time …` fragment runs as written.
//! * [`viz`] — ASCII space-time diagrams of small mapped graphs.

pub mod affine;
pub mod compose;
pub mod cost;
pub mod dataflow;
pub mod delta;
pub mod expr;
pub mod flat;
pub mod forall;
pub mod legality;
pub mod lower;
pub mod machine;
pub mod mapping;
pub mod mutate;
pub mod parse;
pub mod pramcost;
pub mod recurrence;
pub mod search;
pub mod transform;
pub mod value;
pub mod viz;

pub use affine::IdxExpr;
pub use cost::{CostReport, Evaluator};
pub use dataflow::{DataflowGraph, NodeId};
pub use expr::{ElemExpr, InputRef};
pub use flat::{with_thread_scratch, BatchEvaluator, EvalContext, EvalScratch, RawEval};
pub use legality::{LegalityError, LegalityReport};
pub use machine::MachineConfig;
pub use mapping::{InputPlacement, Mapping, Place, ResolvedMapping};
pub use mutate::{apply_edit, undo_edit, AppliedEdit, GraphEdit};
pub use recurrence::{Boundary, Domain, Recurrence};
pub use search::{FigureOfMerit, MappingFamily, SearchOutcome};
pub use value::Value;
