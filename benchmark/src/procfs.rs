//! Process CPU time and peak memory from `/proc`. Every reader returns
//! `None` when the file is missing or malformed, so a metric built on it
//! is reported as absent rather than as 0.

use std::os::raw::{c_int, c_long};

/// CPU seconds (user + system) the whole process has used so far,
/// including threads that have already exited.
pub fn process_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    let ticks = parse_stat_cpu_ticks(&stat)?;
    Some(ticks as f64 / clock_ticks_per_s()?)
}

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may hold spaces and parentheses, so the
/// numeric fields are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    Some(parse_vmhwm_kib(&status)? as f64 / 1024.0)
}

/// The `VmHWM` line of `/proc/<pid>/status`, in KiB.
pub fn parse_vmhwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let kib = parts.next()?.parse().ok()?;
    (parts.next()? == "kB").then_some(kib)
}

extern "C" {
    fn sysconf(name: c_int) -> c_long;
}

/// `_SC_CLK_TCK` on Linux (glibc and musl).
const SC_CLK_TCK: c_int = 2;

fn clock_ticks_per_s() -> Option<f64> {
    // SAFETY: sysconf only reads a configuration value; it takes no
    // pointers and has no preconditions beyond a valid name constant.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    (hz > 0).then_some(hz as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    // A real line with the command name changed to hold spaces and a
    // closing parenthesis.
    const STAT: &str = "4242 (bench (x) y) R 1 4242 4242 0 -1 4194304 1030 0 0 0 \
                        731 52 0 0 20 0 3 0 1851210 30478336 1180 18446744073709551615";

    #[test]
    fn stat_fields_are_counted_after_the_last_paren() {
        assert_eq!(parse_stat_cpu_ticks(STAT), Some(731 + 52));
    }

    #[test]
    fn truncated_or_garbled_stat_is_absent() {
        assert_eq!(parse_stat_cpu_ticks("4242 (bench) R 1 4242"), None);
        assert_eq!(parse_stat_cpu_ticks("no parenthesis here"), None);
        let garbled = STAT.replace(" 731 ", " x ");
        assert_eq!(parse_stat_cpu_ticks(&garbled), None);
    }

    #[test]
    fn vmhwm_is_read_in_kib() {
        let status = "Name:\tbench\nVmPeak:\t  99999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vmhwm_kib(status), Some(20480));
        assert_eq!(parse_vmhwm_kib("Name:\tbench\n"), None);
        assert_eq!(parse_vmhwm_kib("VmHWM:\t 12 MB\n"), None);
    }

    #[test]
    fn live_process_readings_are_positive() {
        // Only meaningful where /proc exists; elsewhere both are absent.
        if std::path::Path::new("/proc/self/stat").exists() {
            assert!(process_cpu_s().is_some_and(|s| s >= 0.0));
            assert!(peak_rss_mb().is_some_and(|m| m > 0.0));
        }
    }
}
