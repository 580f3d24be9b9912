//! fm-autotune: a parallel, budgeted, persistently-cached mapping
//! autotuner over `fm-core`'s mapping-search space.
//!
//! The panel paper's position is that the mapping space is searchable:
//! "one can systematically search the space of possible mappings to
//! optimize a given figure of merit". `fm-core::search` does that
//! serially and statelessly. This crate wraps the same per-candidate
//! evaluation ([`fm_core::search::evaluate_candidate`]) in a harness
//! that production use needs:
//!
//! * **parallel evaluation** — candidates fan out across an
//!   `fm-workspan` thread pool ([`fm_workspan::par_map`]); results are
//!   reassembled in candidate order and sorted stably, so the parallel
//!   tuner picks exactly the winner the serial [`fm_core::search::search`]
//!   would (deterministic tie-breaking);
//! * **a persistent cache** — the best mapping for a (function graph,
//!   machine, objective, candidate set) fingerprint is stored as
//!   versioned JSON and replayed on later runs after a legality
//!   re-check; corrupt or stale entries degrade to a cold search,
//!   never a panic;
//! * **budgets** — a cap on candidates, a wall-clock deadline, and
//!   early-stop on convergence, with graceful fallback to
//!   [`fm_core::search::default_mapper`] when nothing legal was found
//!   in budget;
//! * **observability** — a [`TuneReport`] with counters (evaluated,
//!   pruned, cache status, best-so-far trajectory) that the `fm-tune`
//!   CLI prints.

#![warn(missing_docs)]

pub mod cache;
pub mod fingerprint;
pub mod tuner;

pub use cache::{CacheEntry, TuningCache, CACHE_SCHEMA_VERSION};
pub use fingerprint::{fingerprint, fingerprint_with_model, fnv1a64};
pub use tuner::{
    Budget, CacheStatus, CancelToken, Refinement, RefinementOutcome, TuneReport, TunedMapping,
    Tuner, WarmCache,
};
