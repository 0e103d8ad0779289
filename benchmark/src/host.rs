//! What the host is and what the process has used, read from `/proc`.

use crate::json::Json;
use std::process::Command;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok().map(|s| s.trim().to_string())
}

/// One-minute load average.
pub fn load_average() -> Option<f64> {
    read_trimmed("/proc/loadavg")?.split_whitespace().next()?.parse().ok()
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// User + system CPU time of this process (all threads) so far, in µs.
/// `/proc/self/stat` counts in clock ticks, which Linux reports to user
/// space at 100 Hz on every architecture this runs on.
pub fn cpu_time_us() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis, starting with field 3.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * 10_000.0)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The host block of `result.json`: enough to tell whether two result
/// files are comparable at all.
pub fn fingerprint() -> Json {
    let or_unknown = |v: Option<String>| Json::str(v.unwrap_or_else(|| "unknown".into()));
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("kernel", or_unknown(read_trimmed("/proc/sys/kernel/osrelease"))),
        ("rustc", or_unknown(command_line("rustc", &["--version"]))),
        ("git_rev", or_unknown(command_line("git", &["rev-parse", "HEAD"]))),
        ("load_average_at_start", load_average().map_or(Json::Null, Json::Num)),
        ("sock", Json::str("host loopback (127.0.0.1 UDP), not a link")),
        ("sim", Json::str("in-process simulated NIC, NetworkModel::ideal(): wall-clock cost of the code, no modeled wire time")),
    ])
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pin the calling thread, and every thread it later spawns, to one CPU:
/// the highest-numbered one it is allowed on (CPU 0 tends to take the
/// host's interrupts). Returns that CPU, or `None` if the kernel refused,
/// in which case nothing changed.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; 16];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable bit set of `bytes` bytes; pid 0
    // names the calling thread.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let (word, bits) = mask.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
    let bit = 63 - bits.leading_zeros() as usize;
    mask = [0; 16];
    mask[word] = 1 << bit;
    // SAFETY: as above; the set names one CPU the thread was allowed on.
    (unsafe { sched_setaffinity(0, bytes, mask.as_ptr()) } == 0).then_some(word * 64 + bit)
}
