//! Host counters read from `/proc`: process CPU time, peak resident
//! memory, and the machine's steal time.

use std::fs;

/// Kernel clock ticks per second in `/proc` CPU fields (`USER_HZ`,
/// fixed at 100 on Linux).
const USER_HZ: f64 = 100.0;

/// User plus system CPU time of the whole process (every thread, live
/// or exited), in milliseconds, at `USER_HZ` resolution.
#[must_use]
pub fn cpu_ms() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name start at field 3, so
    // utime (field 14) and stime (field 15) sit at offsets 11 and 12.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<u64>().expect("numeric CPU ticks");
    (ticks(11) + ticks(12)) as f64 * 1000.0 / USER_HZ
}

/// Peak resident set size of the process (`VmHWM`), in MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<u64>().ok())
        .expect("VmHWM in /proc/self/status");
    kib as f64 / 1024.0
}

/// Steal time so far, in seconds per CPU of the machine: time the
/// hypervisor ran someone else while this machine's CPUs wanted to run.
#[must_use]
pub fn steal_s() -> f64 {
    let stat = fs::read_to_string("/proc/stat").expect("read /proc/stat");
    let mut lines = stat.lines();
    let total = lines.next().expect("/proc/stat has an aggregate cpu line");
    // cpu user nice system idle iowait irq softirq steal ...
    let ticks: u64 = total.split_whitespace().nth(8).and_then(|v| v.parse().ok()).unwrap_or(0);
    let cpus = lines.take_while(|l| l.starts_with("cpu")).count().max(1);
    ticks as f64 / USER_HZ / cpus as f64
}

/// CPUs this process may run on.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}
