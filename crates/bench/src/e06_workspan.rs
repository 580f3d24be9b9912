//! **E6 — the greedy-scheduler bound on real hardware** (§2).
//!
//! Blelloch: the fork-join work-span model "support\[s\] cost mappings
//! down to the machine level that reasonably capture real performance".
//! We measure `T_P` for instrumented kernels on the from-scratch
//! work-stealing pool and compare against `W/P + S` (calibrated in
//! seconds-per-unit from the P = 1 run).

use std::time::Instant;

use fm_kernels::scan::par_scan;
use fm_kernels::sortalg::{par_mergesort, par_samplesort};
use fm_kernels::util::XorShift;
use fm_workspan::{ThreadPool, WorkSpan};

use crate::table;

/// One measured point.
#[derive(Debug, Clone)]
pub struct Row {
    /// Kernel name.
    pub kernel: String,
    /// Worker threads.
    pub p: usize,
    /// Measured time (seconds, best of reps).
    pub t_seconds: f64,
    /// `W/P + S` in calibrated seconds.
    pub bound_seconds: f64,
    /// Speedup over P = 1.
    pub speedup: f64,
    /// Bound held (with a 2× grace factor for calibration noise)?
    pub held: bool,
}

fn time_best<F: FnMut()>(mut f: F, reps: u32) -> f64 {
    f(); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Run the measurement. `p_values` are filtered to the host's
/// parallelism (Brent's bound presumes real processors).
pub fn run(n: usize, p_values: &[usize], reps: u32) -> Vec<Row> {
    let hw = std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(1);
    let mut rng = XorShift::new(2024);
    let sort_data: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
    let scan_data: Vec<i64> = (0..n).map(|_| rng.below(1000) as i64).collect();

    type Runner<'a> = Box<dyn Fn(&ThreadPool) + 'a>;
    let kernels: Vec<(&str, WorkSpan, Runner<'_>)> = vec![
        (
            "mergesort",
            {
                let pool = ThreadPool::with_threads(1);
                par_mergesort(&pool, &sort_data, 8192).1
            },
            Box::new(|pool: &ThreadPool| {
                std::hint::black_box(par_mergesort(pool, &sort_data, 8192).0);
            }),
        ),
        (
            "samplesort",
            {
                let pool = ThreadPool::with_threads(1);
                par_samplesort(&pool, &sort_data, 64).1
            },
            Box::new(|pool: &ThreadPool| {
                std::hint::black_box(par_samplesort(pool, &sort_data, 64).0);
            }),
        ),
        (
            "scan",
            {
                let pool = ThreadPool::with_threads(1);
                par_scan(&pool, &scan_data, 8192).1
            },
            Box::new(|pool: &ThreadPool| {
                std::hint::black_box(par_scan(pool, &scan_data, 8192).0);
            }),
        ),
    ];

    let mut rows = Vec::new();
    for (name, ws, runner) in &kernels {
        let pool1 = ThreadPool::with_threads(1);
        let t1 = time_best(|| runner(&pool1), reps);
        drop(pool1);
        let sec_per_unit = t1 / ws.work;
        for &p in p_values.iter().filter(|&&p| p <= hw) {
            let pool = ThreadPool::with_threads(p);
            let tp = time_best(|| runner(&pool), reps);
            let bound = ws.greedy_bound(p as u64) * sec_per_unit;
            rows.push(Row {
                kernel: name.to_string(),
                p,
                t_seconds: tp,
                bound_seconds: bound,
                speedup: t1 / tp,
                held: tp <= 2.0 * bound,
            });
        }
    }
    rows
}

/// Render.
pub fn print(rows: &[Row]) -> String {
    let mut out =
        String::from("E6 — greedy bound T_P <= W/P + S on the work-stealing pool (2x grace)\n\n");
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.kernel.clone(),
                r.p.to_string(),
                format!("{:.2}", r.t_seconds * 1e3),
                format!("{:.2}", r.bound_seconds * 1e3),
                format!("{:.2}x", r.speedup),
                if r.held { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    out.push_str(&table::render(
        &["kernel", "P", "T_P ms", "bound ms", "speedup", "held"],
        &table_rows,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_holds_on_this_host() {
        // Small n to keep the test fast; the bound must hold at P=1 and
        // P=2 (if the host has 2 cores).
        let rows = run(200_000, &[1, 2], 2);
        assert!(!rows.is_empty());
        for r in &rows {
            assert!(
                r.held,
                "{} P={} : {} vs bound {}",
                r.kernel, r.p, r.t_seconds, r.bound_seconds
            );
        }
    }

    #[test]
    fn speedup_at_p1_is_about_one() {
        let rows = run(100_000, &[1], 2);
        for r in &rows {
            assert!(r.speedup > 0.5 && r.speedup < 2.0);
        }
    }
}
