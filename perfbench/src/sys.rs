//! Process readings from Linux `/proc`: peak resident set and CPU time.

use std::fs;

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, fixed
/// at 100 by the Linux ABI on every common architecture).
const USER_HZ: f64 = 100.0;

fn proc_path(pid: Option<u32>, file: &str) -> String {
    match pid {
        Some(p) => format!("/proc/{p}/{file}"),
        None => format!("/proc/self/{file}"),
    }
}

/// Peak resident set (`VmHWM`) in MB of `pid` (this process when `None`).
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let status = fs::read_to_string(proc_path(pid, "status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// User plus system CPU seconds consumed so far by every thread of `pid`
/// (this process when `None`), at 10 ms resolution.
pub fn cpu_seconds(pid: Option<u32>) -> Option<f64> {
    let stat = fs::read_to_string(proc_path(pid, "stat")).ok()?;
    // The command name (field 2) may contain spaces; fields after its
    // closing parenthesis are space-separated, utime and stime being the
    // 12th and 13th of them.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_process_readings_are_positive() {
        assert!(peak_rss_mb(None).unwrap() > 0.0);
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(cpu_seconds(None).unwrap() >= 0.0);
    }
}
