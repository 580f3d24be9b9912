//! The `table` binary: one list of experiments, one argument parser,
//! one JSON writer.
//!
//! ```text
//! table <e1…e22|all> [--quick] [--cache DIR] [--json PATH | --no-json]
//! ```
//!
//! For each selected experiment the driver prints its table and runs
//! its gate. A gate failure exits 1 before anything is written;
//! otherwise the experiments that keep raw rows (E14–E22) write them
//! to `BENCH_eNN.json`, or to `--json PATH`. `--quick` runs the smoke
//! sizes, `--cache DIR` gives E4's and E8's tuners a persistent cache,
//! and `--no-json` writes nothing. A usage error exits 2.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

use serde::Serialize;

use crate::{
    e01_ratios, e03_editdist, e04_fft_search, e05_inversion, e06_workspan, e07_cache,
    e08_default_mapper, e09_composition, e10_bfs, e11_comm_events, e12_scaling, e13_recompute,
    e14_anneal, e15_serve, e16_fleet, e17_stream, e18_session, e19_wire, e20_costmodels, e21_churn,
    e22_evalperf,
};

/// What the command line asks of every selected experiment.
#[derive(Debug, Default)]
pub(crate) struct Options {
    /// Run the smoke sizes (`--quick`).
    pub(crate) quick: bool,
    /// Persistent tuning cache for E4 and E8 (`--cache DIR`).
    pub(crate) cache: Option<PathBuf>,
    /// Where the rows go instead of `BENCH_eNN.json` (`--json PATH`).
    pub(crate) json: Option<PathBuf>,
    /// Write no rows at all (`--no-json`).
    pub(crate) no_json: bool,
}

impl Options {
    /// Whether wall-clock bars that only hold for full-size, optimised
    /// runs apply: not under `--quick`, and not in a debug build, whose
    /// parity asserts slow the engines under test on purpose.
    pub(crate) fn full_release(&self) -> bool {
        !self.quick && cfg!(not(debug_assertions))
    }
}

/// One experiment the `table` binary can run.
pub(crate) struct Experiment {
    /// Its id on the command line (`e1`, `e3`, …, `e22`).
    id: &'static str,
    /// Whether it keeps raw rows in `BENCH_<id>.json`.
    keeps_rows: bool,
    /// Runs it at the sizes the options select.
    run: fn(&Options) -> Outcome,
}

impl Experiment {
    /// An experiment that reports its table alone.
    const fn table(id: &'static str, run: fn(&Options) -> Outcome) -> Experiment {
        Experiment {
            id,
            keeps_rows: false,
            run,
        }
    }

    /// An experiment that also keeps its raw rows.
    const fn with_rows(id: &'static str, run: fn(&Options) -> Outcome) -> Experiment {
        Experiment {
            id,
            keeps_rows: true,
            run,
        }
    }
}

/// What one run of an experiment hands the driver.
pub(crate) struct Outcome {
    /// The rendered table.
    table: String,
    /// One line per violated gate condition; empty when the gate holds.
    failures: Vec<String>,
    /// The raw rows, for the experiments that keep them.
    rows: Option<Box<dyn Serialize>>,
}

impl Outcome {
    fn text(table: String) -> Outcome {
        Outcome {
            table,
            failures: Vec::new(),
            rows: None,
        }
    }

    fn rows(table: String, failures: Vec<String>, rows: impl Serialize + 'static) -> Outcome {
        Outcome {
            table,
            failures,
            rows: Some(Box::new(rows)),
        }
    }
}

/// Every experiment, in table order (E2 is part of E1's table). Each
/// one's sizes are written here and nowhere else.
pub(crate) const EXPERIMENTS: &[Experiment] = &[
    Experiment::table("e1", |_| {
        Outcome::text(e01_ratios::print(&e01_ratios::run()))
    }),
    Experiment::table("e3", |_| {
        let n = 128;
        let rows = e03_editdist::run(n, &[1, 2, 4, 8, 16, 32, 64, 128], 16);
        Outcome::text(e03_editdist::print(n, &rows))
    }),
    Experiment::table("e4", |o| {
        let (n, p_values, machine_p): (_, &[u32], _) = if o.quick {
            (64, &[4, 8], 8)
        } else {
            (256, &[4, 8, 16], 16)
        };
        let rows = e04_fft_search::run(n, p_values, machine_p, o.cache.as_deref());
        Outcome::text(e04_fft_search::print(n, &rows))
    }),
    Experiment::table("e5", |_| {
        Outcome::text(e05_inversion::print(&e05_inversion::run(256, 16)))
    }),
    Experiment::table("e6", |_| {
        let rows = e06_workspan::run(2_000_000, &[1, 2, 4, 8, 16], 3);
        Outcome {
            failures: e06_workspan::gate(&rows),
            ..Outcome::text(e06_workspan::print(&rows))
        }
    }),
    Experiment::table("e7", |_| {
        let (n, l, tile) = (64, 16, 16);
        let rows = e07_cache::run(n, &[512, 2048, 8192, 32768], l, tile);
        Outcome::text(e07_cache::print(n, l, tile, &rows))
    }),
    Experiment::table("e8", |o| {
        let cols = if o.quick { 4 } else { 8 };
        let rows = e08_default_mapper::run(cols, 1, o.cache.as_deref());
        Outcome::text(e08_default_mapper::print(&rows))
    }),
    Experiment::table("e9", |_| {
        let (n, p) = (256, 16);
        Outcome::text(e09_composition::print(n, p, &e09_composition::run(n, p)))
    }),
    Experiment::table("e10", |_| {
        let configs = [(1_000, 4), (10_000, 4), (10_000, 16), (100_000, 8)];
        Outcome::text(e10_bfs::print(&e10_bfs::run(&configs, 7)))
    }),
    Experiment::table("e11", |_| {
        let rows = e11_comm_events::run(&[2, 4, 8, 16]);
        let agg = e11_comm_events::run_aggregation(64, &[1, 2, 4, 8, 16]);
        Outcome::text(e11_comm_events::print(&rows, &agg))
    }),
    Experiment::table("e12", |_| {
        let (n, p_values) = (128, &[1, 2, 4, 8, 16, 32, 64, 128]);
        let dp = e12_scaling::print(
            &format!("{n}x{n} edit distance"),
            &e12_scaling::run(n, p_values),
        );
        let stencil = e12_scaling::print(
            &format!("16x{n} stencil, boundary-only communication"),
            &e12_scaling::run_stencil(16, n, p_values),
        );
        Outcome::text(format!("{dp}\n{stencil}"))
    }),
    Experiment::table("e13", |_| {
        let rows = e13_recompute::run(6, &[1, 10, 100, 1000, 20_000], 8);
        Outcome::text(e13_recompute::print(&rows))
    }),
    Experiment::with_rows("e14", |o| {
        let rows = e14_anneal::run(o.quick);
        let failures = e14_anneal::gate(&rows, o.full_release());
        Outcome::rows(e14_anneal::print(&rows), failures, rows)
    }),
    Experiment::with_rows("e15", |o| {
        let rows = e15_serve::run(o.quick);
        Outcome::rows(e15_serve::print(&rows), Vec::new(), rows)
    }),
    Experiment::with_rows("e16", |o| {
        let rows = e16_fleet::run(o.quick);
        Outcome::rows(e16_fleet::print(&rows), Vec::new(), rows)
    }),
    Experiment::with_rows("e17", |o| {
        let rows = e17_stream::run(o.quick);
        let failures = e17_stream::gate(&rows, o.quick);
        Outcome::rows(e17_stream::print(&rows), failures, rows)
    }),
    Experiment::with_rows("e18", |o| {
        let rows = e18_session::run(o.quick);
        let failures = e18_session::gate(&rows, o.quick);
        Outcome::rows(e18_session::print(&rows), failures, rows)
    }),
    Experiment::with_rows("e19", |o| {
        let results = e19_wire::run(o.quick);
        let failures = e19_wire::gate(&results, o.quick);
        Outcome::rows(e19_wire::print(&results), failures, results)
    }),
    Experiment::with_rows("e20", |o| {
        let rows = e20_costmodels::run(o.quick);
        let failures = e20_costmodels::gate(&rows, &e20_costmodels::run(o.quick));
        Outcome::rows(e20_costmodels::print(&rows), failures, rows)
    }),
    Experiment::with_rows("e21", |o| {
        let rows = e21_churn::run(o.quick);
        let failures = e21_churn::gate(&rows, o.quick);
        Outcome::rows(e21_churn::print(&rows), failures, rows)
    }),
    Experiment::with_rows("e22", |o| {
        let rows = e22_evalperf::run(o.quick);
        let failures = e22_evalperf::gate(&rows, o.full_release());
        Outcome::rows(e22_evalperf::print(&rows), failures, rows)
    }),
];

/// The command line's shape, printed with every usage error.
fn usage() -> String {
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
    format!(
        "usage: table <id|all> [--quick] [--cache DIR] [--json PATH | --no-json]\n\
         ids: {}",
        ids.join(" ")
    )
}

/// Parse the arguments after the program name into the experiments
/// they select and the options to run them with.
fn parse(
    args: impl IntoIterator<Item = String>,
) -> Result<(Vec<&'static Experiment>, Options), String> {
    let mut args = args.into_iter();
    let mut options = Options::default();
    let mut id = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => options.quick = true,
            "--no-json" => options.no_json = true,
            "--cache" | "--json" => {
                let value = args
                    .next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or(format!("{arg} needs a value"))?;
                if arg == "--cache" {
                    options.cache = Some(value.into());
                } else {
                    options.json = Some(value.into());
                }
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            _ if id.is_some() => return Err(format!("unexpected argument {arg}")),
            _ => id = Some(arg),
        }
    }
    let id = id.ok_or("no experiment named")?;
    let selected: Vec<&Experiment> = if id == "all" {
        EXPERIMENTS.iter().collect()
    } else {
        let experiment = EXPERIMENTS.iter().find(|e| e.id == id);
        vec![experiment.ok_or(format!("unknown experiment {id}"))?]
    };
    if options.json.is_some() {
        if options.no_json {
            return Err("--json and --no-json exclude each other".into());
        }
        if id == "all" {
            return Err("--json names one file, but `all` writes one per experiment".into());
        }
        if !selected[0].keeps_rows {
            return Err(format!("{id} keeps no rows to write with --json"));
        }
    }
    Ok((selected, options))
}

/// Run the command line `args` (program name excluded) and return the
/// process's exit code: 0, 1 when a gate fails or the rows cannot be
/// written, or 2 on a usage error.
pub fn main(args: impl IntoIterator<Item = String>) -> i32 {
    match parse(args) {
        Ok((selected, options)) => run(&selected, &options),
        Err(e) => {
            eprintln!("table: {e}\n{}", usage());
            2
        }
    }
}

/// Run each of `selected` in turn: print its table, stop with 1 at the
/// first failed gate or unwritable file, and write the rows of each
/// experiment that keeps them unless `--no-json` says not to.
fn run(selected: &[&Experiment], options: &Options) -> i32 {
    for (i, experiment) in selected.iter().enumerate() {
        if i > 0 {
            print!("\n\n");
        }
        let outcome = (experiment.run)(options);
        print!("{}", outcome.table);
        if !outcome.failures.is_empty() {
            for f in &outcome.failures {
                eprintln!("table {}: FAIL: {f}", experiment.id);
            }
            return 1;
        }
        let Some(rows) = outcome.rows.filter(|_| !options.no_json) else {
            continue;
        };
        let default = || format!("BENCH_{}.json", experiment.id).into();
        let path = options.json.clone().unwrap_or_else(default);
        let doc = serde_json::to_string_pretty(&*rows).expect("rows serialize");
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!(
                "table {}: cannot write {}: {e}",
                experiment.id,
                path.display()
            );
            return 1;
        }
        println!("\nwrote {}", path.display());
    }
    0
}

/// The `table` binary's global allocator (and the crate's unit tests'):
/// the system allocator, counting every allocation on the thread that
/// makes it. Counts are per thread so that E22 can audit its own
/// single-threaded loop while no other thread, in any table, contends
/// on a shared counter.
pub struct CountingAlloc;

thread_local! {
    // Const-initialized and drop-free, so counting never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

/// Heap allocations made so far on the calling thread; always 0 unless
/// the running binary installed [`CountingAlloc`].
pub(crate) fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: each method hands its caller's arguments to `System`
// unchanged, so the caller's `GlobalAlloc` contract carries over; the
// count touches only a const-initialized thread-local and never
// allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use serde::{Deserialize, Json};

    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    /// The usage error `line` draws; `main` exits 2 on it before running
    /// anything.
    fn usage_error(line: &str) -> String {
        assert_eq!(main(args(line)), 2, "{line}");
        parse(args(line)).err().expect("a usage error")
    }

    #[test]
    fn parses_an_id_and_every_flag() {
        let (selected, options) = parse(args("e14 --quick --json out.json")).unwrap();
        assert_eq!(selected.len(), 1);
        assert_eq!(selected[0].id, "e14");
        assert!(options.quick && !options.no_json);
        assert_eq!(options.json, Some("out.json".into()));
        let (selected, options) = parse(args("--cache dir e8")).unwrap();
        assert_eq!(selected[0].id, "e8");
        assert_eq!(options.cache, Some("dir".into()));
        let (selected, options) = parse(args("all --quick --no-json")).unwrap();
        assert_eq!(selected.len(), EXPERIMENTS.len());
        assert!(options.quick && options.no_json);
    }

    #[test]
    fn an_unknown_id_is_a_usage_error() {
        assert_eq!(usage_error("e2"), "unknown experiment e2");
        assert_eq!(usage_error("--quick"), "no experiment named");
        assert_eq!(usage_error("e1 e3"), "unexpected argument e3");
    }

    #[test]
    fn an_unknown_flag_is_a_usage_error() {
        assert_eq!(usage_error("e17 --quik"), "unknown flag --quik");
    }

    #[test]
    fn a_flag_missing_its_value_is_a_usage_error() {
        assert_eq!(usage_error("e14 --json"), "--json needs a value");
        assert_eq!(usage_error("e4 --cache --quick"), "--cache needs a value");
    }

    #[test]
    fn json_with_all_a_rowless_table_or_no_json_is_a_usage_error() {
        assert!(usage_error("all --json x.json").starts_with("--json names one file"));
        assert_eq!(
            usage_error("e1 --json x.json"),
            "e1 keeps no rows to write with --json"
        );
        assert_eq!(
            usage_error("e14 --json x.json --no-json"),
            "--json and --no-json exclude each other"
        );
    }

    #[test]
    fn a_failed_gate_exits_1_before_writing_the_rows() {
        let path =
            std::env::temp_dir().join(format!("fm-bench-driver-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let options = Options {
            json: Some(path.clone()),
            ..Options::default()
        };
        let failing = Experiment::with_rows("e0", |_| {
            Outcome::rows(String::new(), vec!["bar missed".into()], vec![1])
        });
        assert_eq!(run(&[&failing], &options), 1);
        assert!(!path.exists());
        let passing =
            Experiment::with_rows("e0", |_| Outcome::rows(String::new(), Vec::new(), vec![1]));
        assert_eq!(run(&[&passing], &options), 0);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "[\n  1\n]");
        std::fs::remove_file(&path).unwrap();
    }

    /// Every object key in `json` as a path from the root, such as
    /// `[].nodes` or `.sweep[].endpoint`.
    fn key_paths(json: &Json, at: &str, out: &mut BTreeSet<String>) {
        match json {
            Json::Obj(fields) => {
                for (key, value) in fields {
                    let path = format!("{at}.{key}");
                    key_paths(value, &path, out);
                    out.insert(path);
                }
            }
            Json::Arr(items) => {
                for item in items {
                    key_paths(item, &format!("{at}[]"), out);
                }
            }
            _ => {}
        }
    }

    /// The committed `BENCH_<id>.json` reads as `T`, and has exactly
    /// the keys `T` serializes.
    fn check_committed<T: Serialize + Deserialize>(id: &str) {
        let path = format!("{}/../../BENCH_{id}.json", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let file = serde_json::from_str_value(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
        let rows = T::from_json(&file).unwrap_or_else(|e| panic!("{path}: {e}"));
        let (mut committed, mut serialized) = (BTreeSet::new(), BTreeSet::new());
        key_paths(&file, "", &mut committed);
        key_paths(&rows.to_json(), "", &mut serialized);
        assert_eq!(committed, serialized, "{path} drifted from its row type");
    }

    #[test]
    fn committed_bench_files_match_their_row_types() {
        let checks = [
            ("e14", check_committed::<Vec<e14_anneal::Row>> as fn(&str)),
            ("e15", check_committed::<Vec<e15_serve::Row>>),
            ("e16", check_committed::<Vec<e16_fleet::Row>>),
            ("e17", check_committed::<Vec<e17_stream::Row>>),
            ("e18", check_committed::<Vec<e18_session::Row>>),
            ("e19", check_committed::<e19_wire::Results>),
            ("e20", check_committed::<Vec<e20_costmodels::Row>>),
            ("e21", check_committed::<Vec<e21_churn::Row>>),
            ("e22", check_committed::<Vec<e22_evalperf::Row>>),
        ];
        let writers: Vec<&str> = EXPERIMENTS
            .iter()
            .filter(|e| e.keeps_rows)
            .map(|e| e.id)
            .collect();
        assert_eq!(checks.map(|(id, _)| id), writers.as_slice());
        for (id, check) in checks {
            check(id);
        }
    }
}
