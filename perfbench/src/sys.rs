//! Process accounting from `/proc/self` (Linux).

use std::fs;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. `USER_HZ`
/// is fixed at 100 in the Linux ABI on the architectures this runs on.
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds consumed by this process so far, all
/// threads included (exited threads too).
pub fn cpu_seconds() -> Result<f64, String> {
    let stat =
        fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    parse_cpu_ticks(&stat)
        .map(|ticks| ticks as f64 / TICKS_PER_S)
        .ok_or_else(|| "unparseable /proc/self/stat".to_string())
}

/// utime + stime (fields 14 and 15) of a `/proc/<pid>/stat` line. The
/// command name (field 2) may contain spaces and parentheses, so fields
/// are counted from its closing parenthesis.
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size (`VmHWM`) in MiB since start or the last
/// [`reset_peak_rss`].
pub fn peak_rss_mb() -> Result<f64, String> {
    status_mb("VmHWM:")
}

fn status_mb(key: &str) -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no {key} in /proc/self/status"))
}

/// Reset the peak-RSS mark to the current RSS, so the next
/// [`peak_rss_mb`] covers only what runs after this call.
pub fn reset_peak_rss() -> Result<(), String> {
    fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("/proc/self/clear_refs: {e}"))
}

/// Cores this process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_times_after_a_tricky_command_name() {
        let line = "4242 (a) b (c) R 1 2 3 4 5 6 7 8 9 10 250 31 0 0 20 0 1 0";
        assert_eq!(parse_cpu_ticks(line), Some(281));
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    #[test]
    fn own_accounting_is_readable() {
        assert!(cpu_seconds().expect("test input is valid") >= 0.0);
        assert!(peak_rss_mb().expect("test input is valid") > 0.0);
    }
}
