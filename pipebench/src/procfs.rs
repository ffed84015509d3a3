//! Process CPU time and resident memory from `/proc/self` (Linux).

use std::time::Duration;

/// Kernel clock ticks per second for `/proc/*/stat` times (`USER_HZ`),
/// 100 on every mainstream Linux architecture.
const TICKS_PER_SEC: u64 = 100;

/// User + system CPU time of the whole process, finished threads
/// included. `None` when `/proc/self/stat` is unreadable.
pub fn cpu_time() -> Option<Duration> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may hold spaces; fields after the
    // closing parenthesis are space-separated, utime and stime being
    // fields 14 and 15 of the line.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(Duration::from_millis(
        (utime + stime) * 1000 / TICKS_PER_SEC,
    ))
}

/// Current resident set size in bytes (`VmRSS`). `None` when
/// `/proc/self/status` is unreadable.
pub fn rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kib: u64 = line
        .trim_start_matches("VmRSS:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_plausible() {
        assert!(rss_bytes().expect("VmRSS readable") > 0);
        assert!(cpu_time().is_some());
    }
}
