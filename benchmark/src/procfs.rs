//! Process CPU time and peak memory, read from `/proc/self`.
//!
//! Everything runs in one process (client, every server, every shard),
//! so these readers see the whole system under test.

use std::fs;

/// Clock ticks per second of the `/proc/*/stat` time fields (`USER_HZ`,
/// 100 on every Linux ABI).
const TICKS_PER_SEC: f64 = 100.0;

/// User plus system CPU seconds of the whole process, live and exited
/// threads alike.
pub fn process_cpu_s() -> f64 {
    let text = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    parse_stat_cpu_s(&text).expect("/proc/self/stat has utime and stime")
}

/// `utime + stime` (fields 14 and 15) of a `/proc/<pid>/stat` line, in
/// seconds. The command name (field 2) may hold spaces and parentheses,
/// so fields are counted from the last `)`.
pub fn parse_stat_cpu_s(text: &str) -> Option<f64> {
    let rest = &text[text.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SEC)
}

/// On-CPU nanoseconds summed over the process's live threads. Finer
/// than [`process_cpu_s`]'s 10 ms ticks, for short windows in which no
/// thread exits.
pub fn live_threads_cpu_ns() -> u64 {
    let tasks = fs::read_dir("/proc/self/task").expect("/proc/self/task is readable");
    tasks
        .filter_map(|task| {
            let path = task.ok()?.path().join("schedstat");
            parse_schedstat_ns(&fs::read_to_string(path).ok()?)
        })
        .sum()
}

/// The first field of a `schedstat` line: time spent on the CPU, in ns.
pub fn parse_schedstat_ns(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// Peak resident set size (`VmHWM`) of the process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let text = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    parse_vmhwm_kb(&text).expect("/proc/self/status has VmHWM") as f64 / 1024.0
}

/// The `VmHWM:` line of `/proc/<pid>/status`, in kB.
pub fn parse_vmhwm_kb(text: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    line["VmHWM:".len()..]
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_counts_from_the_last_paren() {
        // A command name with a space and a ')' must not shift fields.
        let line = "4242 (fm (x) y) S 1 2 3 4 5 6 7 8 9 10 250 130 0 0 20 0 9 0 100";
        assert_eq!(parse_stat_cpu_s(line), Some(3.8));
        assert_eq!(parse_stat_cpu_s("4242 (short) S 1 2"), None);
    }

    #[test]
    fn schedstat_and_vmhwm_parse() {
        assert_eq!(parse_schedstat_ns("123456789 42 7\n"), Some(123_456_789));
        let status = "Name:\tbench\nVmPeak:\t  9000 kB\nVmHWM:\t    1432 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vmhwm_kb(status), Some(1432));
        assert_eq!(parse_vmhwm_kb("Name:\tbench\n"), None);
    }

    #[test]
    fn live_readers_move_with_work_and_memory() {
        let cpu0 = process_cpu_s();
        let ns0 = live_threads_cpu_ns();
        let t0 = std::time::Instant::now();
        let mut x = 0u64;
        while t0.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        assert!(
            live_threads_cpu_ns() - ns0 >= 30_000_000,
            "busy loop not seen"
        );
        assert!(process_cpu_s() >= cpu0);

        let before = peak_rss_mb();
        let block = std::hint::black_box(vec![1u8; 64 << 20]);
        assert!(peak_rss_mb() >= before.max(64.0), "64 MiB touch not seen");
        drop(block);
    }
}
