//! Host CPU time and memory from `/proc` (std only, Linux).

use std::fs;
use std::path::Path;

/// Kernel clock ticks per second behind the `utime`/`stime` fields.
/// `USER_HZ` is 100 on every Linux ABI; std offers no `sysconf`.
const TICKS_PER_S: f64 = 100.0;

/// `utime + stime` in clock ticks from the text of a `/proc/.../stat`
/// file. The command name (field 2) may itself hold spaces and
/// parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Nanoseconds on a CPU from the text of a `/proc/.../schedstat` file
/// (`run_ns wait_ns timeslices`).
pub fn parse_schedstat_ns(schedstat: &str) -> Option<u64> {
    schedstat.split_ascii_whitespace().next()?.parse().ok()
}

/// CPU seconds of the task whose `/proc` directory is `dir`: the
/// scheduler's nanosecond run time where the kernel exposes it, else
/// `utime + stime` at tick resolution. A tick is 10 ms, coarse enough
/// that a one-second round reads the same on run after run, so the
/// nanosecond clock is preferred.
fn task_cpu_s(dir: &Path) -> f64 {
    let read = |file: &str| fs::read_to_string(dir.join(file)).ok();
    if let Some(ns) = read("schedstat").and_then(|s| parse_schedstat_ns(&s)) {
        return ns as f64 / 1e9;
    }
    read("stat")
        .and_then(|s| parse_stat_ticks(&s))
        .map_or(0.0, |t| t as f64 / TICKS_PER_S)
}

/// CPU seconds (user + system) of every live thread of the process.
pub fn process_cpu_s() -> f64 {
    fs::read_dir("/proc/self/task").map_or(0.0, |tasks| {
        tasks.flatten().map(|task| task_cpu_s(&task.path())).sum()
    })
}

/// CPU seconds (user + system) the calling thread has used so far.
pub fn thread_cpu_s() -> f64 {
    task_cpu_s(Path::new("/proc/thread-self"))
}

/// `VmHWM` in kB from the text of `/proc/self/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set size of the process in MB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TAIL: &str = "R 4332 4336 4332 0 -1 4194304 80 0 0 0 7 5 0 0 20 0 1 0 206036";

    #[test]
    fn plain_command_name() {
        let stat = format!("4336 (e2e) {TAIL}");
        assert_eq!(parse_stat_ticks(&stat), Some(12));
    }

    #[test]
    fn command_name_with_spaces_and_parentheses() {
        let stat = format!("4336 (my (odd) name) 1 2) {TAIL}");
        assert_eq!(parse_stat_ticks(&stat), Some(12));
    }

    #[test]
    fn malformed_stat_is_rejected() {
        assert_eq!(parse_stat_ticks("no parenthesis here"), None);
        assert_eq!(parse_stat_ticks("1 (x) R 1 2 3"), None);
        assert_eq!(
            parse_stat_ticks(&format!("1 (x) {}", TAIL.replace("7 5", "7 x"))),
            None
        );
    }

    #[test]
    fn schedstat_run_time() {
        assert_eq!(parse_schedstat_ns("112824 0 2\n"), Some(112_824));
        assert_eq!(parse_schedstat_ns(""), None);
        assert_eq!(parse_schedstat_ns("x 0 2"), None);
    }

    #[test]
    fn vm_hwm_line() {
        let status = "Name:\te2e\nVmPeak:\t  300000 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(20480));
        assert_eq!(parse_vm_hwm_kb("Name:\te2e\n"), None);
    }

    #[test]
    fn live_proc_files_parse() {
        assert!(fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|s| parse_stat_ticks(&s))
            .is_some());
        assert!(fs::read_to_string("/proc/thread-self/stat")
            .ok()
            .and_then(|s| parse_stat_ticks(&s))
            .is_some());
        assert!(peak_rss_mb() > 0.0);
        // Burn a little CPU: both clocks must move, the process at least
        // as far as this thread.
        let (p0, t0) = (process_cpu_s(), thread_cpu_s());
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 30 {
            std::hint::black_box(start.elapsed());
        }
        let (p, t) = (process_cpu_s() - p0, thread_cpu_s() - t0);
        assert!(t > 0.0 && p > 0.0, "thread {t} process {p}");
    }
}
