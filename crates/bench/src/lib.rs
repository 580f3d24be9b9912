#![warn(missing_docs)]

//! # fm-bench — the experiment harness
//!
//! The panel paper has no tables or figures, so the reproduction target
//! is the set of *quantitative claims* in the text (see `DESIGN.md` for
//! the index). Each `eXX_*` module turns one claim into a reproducible
//! experiment: a `run(…)` function that returns structured rows, a
//! `print` that renders the table the paper never drew, for some a
//! `gate` that names every acceptance bar the rows miss, and unit tests
//! that assert the claim's *shape* (who wins, by roughly what factor,
//! where the crossover falls).
//!
//! One binary, `table`, runs them all from the list in [`driver`]:
//!
//! ```text
//! cargo run --release -p fm-bench --bin table -- e3
//! cargo run --release -p fm-bench --bin table -- e17 --quick --no-json
//! cargo run --release -p fm-bench --bin table -- all
//! ```
//!
//! Criterion micro-benchmarks for the heavy machinery (elaboration,
//! evaluation, simulation, search, the thread pool, the cache model)
//! live in `benches/`.

pub mod driver;
mod serving;
pub mod table;

pub mod e01_ratios;
pub mod e03_editdist;
pub mod e04_fft_search;
pub mod e05_inversion;
pub mod e06_workspan;
pub mod e07_cache;
pub mod e08_default_mapper;
pub mod e09_composition;
pub mod e10_bfs;
pub mod e11_comm_events;
pub mod e12_scaling;
pub mod e13_recompute;
pub mod e14_anneal;
pub mod e15_serve;
pub mod e16_fleet;
pub mod e17_stream;
pub mod e18_session;
pub mod e19_wire;
pub mod e20_costmodels;
pub mod e21_churn;
pub mod e22_evalperf;

// The unit tests count allocations as the `table` binary does, so
// E22's audit runs under `cargo test` too.
#[cfg(test)]
#[global_allocator]
static ALLOC: driver::CountingAlloc = driver::CountingAlloc;
