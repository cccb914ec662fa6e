//! Process and thread accounting read from `/proc/self` (Linux).

use std::fs;

/// Peak resident set size of this process (`VmHWM`), in MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// CPU seconds consumed so far by the live threads of this process whose name
/// satisfies `wanted`, from the nanosecond run time in each thread's `schedstat`. The
/// runtime names its threads `lu-worker-<i>` and `lu-updater`, the replica server its
/// `lu-net-*`; only one runtime is alive while the benchmark measures.
#[must_use]
pub fn threads_cpu_seconds(wanted: impl Fn(&str) -> bool) -> f64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return f64::NAN;
    };
    let mut nanos = 0u64;
    for task in tasks.flatten() {
        let path = task.path();
        let comm = fs::read_to_string(path.join("comm")).unwrap_or_default();
        if wanted(comm.trim_end()) {
            let schedstat = fs::read_to_string(path.join("schedstat")).unwrap_or_default();
            nanos += schedstat
                .split_whitespace()
                .next()
                .and_then(|field| field.parse::<u64>().ok())
                .unwrap_or(0);
        }
    }
    nanos as f64 / 1e9
}

/// CPU seconds the calling thread has run so far.
#[must_use]
pub fn current_thread_cpu_seconds() -> f64 {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .map_or(f64::NAN, |ns| ns as f64 / 1e9)
}

extern "C" {
    fn sysconf(name: i32) -> i64;
}

/// `_SC_CLK_TCK`: the unit of the tick counters in `/proc/stat` and `/proc/self/stat`.
const SC_CLK_TCK: i32 = 2;

/// Ticks per second of the kernel's CPU-time counters (`USER_HZ`).
#[must_use]
pub fn clock_ticks_per_second() -> f64 {
    // SAFETY: `sysconf` reads a configuration value; it has no preconditions.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    if hz > 0 {
        hz as f64
    } else {
        100.0
    }
}

/// CPU accounting of the whole machine and of this process at one instant, in ticks.
#[derive(Debug, Clone, Copy)]
pub struct CpuSample {
    pub at: std::time::Instant,
    /// CPU time the machine spent busy (user, nice, system, irq, softirq) plus time the
    /// hypervisor ran something else while a virtual CPU wanted to run (steal).
    pub busy_ticks: u64,
    /// CPU time of this process (user and system, every thread, dead ones too).
    pub self_ticks: u64,
}

impl CpuSample {
    /// Read both counters now.
    #[must_use]
    pub fn now() -> Self {
        let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
        let busy_ticks = stat
            .lines()
            .next()
            .and_then(|line| line.strip_prefix("cpu "))
            .map_or(0, machine_busy_ticks);
        let own = fs::read_to_string("/proc/self/stat").unwrap_or_default();
        Self {
            at: std::time::Instant::now(),
            busy_ticks,
            self_ticks: process_ticks(&own),
        }
    }

    /// CPU the rest of the machine and the hypervisor took between `self` and `later`,
    /// in cores (CPU seconds per wall second); never negative.
    #[must_use]
    pub fn external_cores(&self, later: &CpuSample, ticks_per_second: f64) -> f64 {
        let wall = later.at.saturating_duration_since(self.at).as_secs_f64();
        let busy = later.busy_ticks.saturating_sub(self.busy_ticks);
        let own = later.self_ticks.saturating_sub(self.self_ticks);
        if wall <= 0.0 {
            return 0.0;
        }
        busy.saturating_sub(own) as f64 / ticks_per_second / wall
    }
}

/// The busy and steal fields of the aggregate `cpu` line of `/proc/stat` (after the
/// label): user, nice, system, (idle, iowait skipped), irq, softirq, steal. Guest time
/// is already inside user and nice.
fn machine_busy_ticks(fields: &str) -> u64 {
    fields
        .split_whitespace()
        .map(|f| f.parse::<u64>().unwrap_or(0))
        .enumerate()
        .filter(|(i, _)| matches!(i, 0 | 1 | 2 | 5 | 6 | 7))
        .map(|(_, v)| v)
        .sum()
}

/// utime + stime of a `/proc/<pid>/stat` line (fields 14 and 15). The command name in
/// parentheses may hold spaces, so count fields after its closing parenthesis.
fn process_ticks(stat: &str) -> u64 {
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0;
    };
    // `rest` starts at field 3 (state); utime and stime are fields 14 and 15.
    rest.split_whitespace()
        .skip(11)
        .take(2)
        .map(|f| f.parse::<u64>().unwrap_or(0))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn parses_machine_and_process_ticks() {
        assert_eq!(
            machine_busy_ticks("10 1 5 900 7 2 3 4 0 0"),
            10 + 1 + 5 + 2 + 3 + 4
        );
        let stat = "42 (lu worker) S 1 42 42 0 -1 4194560 100 0 0 0 250 30 0 0 20 0 9 0";
        assert_eq!(process_ticks(stat), 280);
        let t0 = Instant::now();
        let a = CpuSample {
            at: t0,
            busy_ticks: 1_000,
            self_ticks: 500,
        };
        let b = CpuSample {
            at: t0 + Duration::from_millis(500),
            busy_ticks: 1_080,
            self_ticks: 555,
        };
        // 80 busy ticks, 55 of them this process: 25 ticks = 0.25 s over 0.5 s.
        assert!((a.external_cores(&b, 100.0) - 0.5).abs() < 1e-9);
        assert_eq!(b.external_cores(&a, 100.0), 0.0, "never negative");
    }

    #[test]
    fn reads_this_process() {
        let s = CpuSample::now();
        assert!(s.busy_ticks > 0);
        assert!(clock_ticks_per_second() >= 1.0);
    }
}
