//! Process resource sampler: `/proc/self/*` → registry gauges.
//!
//! A background thread periodically reads `/proc/self/statm` (resident
//! pages), `/proc/self/stat` (user/system CPU ticks), and
//! `/proc/self/status` (thread count, RSS high-water mark) and publishes
//! them as gauges:
//!
//! * `proc.rss_bytes` — resident set size in bytes
//! * `proc.rss_peak_bytes` — the kernel's RSS high-water mark (`VmHWM`),
//!   so one reading at the end of a run sees the whole run's peak (feeds
//!   the cross-run history's `peak_rss_bytes`)
//! * `proc.cpu_user_ms` — cumulative user-mode CPU time, milliseconds
//! * `proc.cpu_sys_ms` — cumulative kernel-mode CPU time, milliseconds
//! * `proc.threads` — current thread count
//!
//! The gauges surface in `/metrics` (the live plane's Prometheus
//! endpoint) and in the final manifest. Off Linux — or wherever `/proc`
//! is absent — [`sample`] returns `None` and everything degrades to a
//! no-op; no `cfg` gymnastics, just a runtime probe.
//!
//! The sampler only exists when `--serve` is given; without it no thread
//! is spawned (off-is-free). `--record` takes a single [`publish_once`]
//! reading at the end of the run instead.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Bytes per page, for converting `/proc/self/statm` resident pages.
/// Hard-coded 4 KiB: std exposes no portable `sysconf`, and every Linux
/// target this workspace runs on uses 4 KiB base pages.
const PAGE_BYTES: u64 = 4096;

/// Milliseconds per clock tick for `/proc/self/stat` utime/stime.
/// Hard-coded for `CONFIG_HZ`/`USER_HZ` = 100, the universal Linux
/// default.
const MS_PER_TICK: u64 = 10;

/// One point-in-time resource reading.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Resident set size in bytes.
    pub rss_bytes: u64,
    /// Peak resident set size so far (`VmHWM`), in bytes; the current
    /// RSS where the kernel does not report it.
    pub rss_peak_bytes: u64,
    /// Cumulative user-mode CPU time in milliseconds.
    pub cpu_user_ms: u64,
    /// Cumulative kernel-mode CPU time in milliseconds.
    pub cpu_sys_ms: u64,
    /// Current number of threads.
    pub threads: u64,
}

/// Read the current process's resource usage from `/proc/self/*`.
/// Returns `None` when `/proc` is unavailable (non-Linux) or unparsable.
pub fn sample() -> Option<Sample> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    // statm: "size resident shared text lib data dt", in pages.
    let resident_pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;

    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // stat field 2 (comm) may contain spaces; everything after the
    // closing paren is fixed-position. utime/stime are overall fields
    // 14/15, i.e. indices 11/12 after the paren.
    let after_comm = stat.rsplit_once(')').map(|(_, rest)| rest)?;
    let mut fields = after_comm.split_whitespace();
    let utime_ticks: u64 = fields.nth(11)?.parse().ok()?;
    let stime_ticks: u64 = fields.next()?.parse().ok()?;

    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let field = |key: &str| -> Option<u64> {
        let value = status.lines().find_map(|l| l.strip_prefix(key))?;
        // "Threads:\t7" or "VmHWM:\t  15508 kB".
        value.trim().trim_end_matches("kB").trim_end().parse().ok()
    };
    let threads = field("Threads:")?;
    let rss_bytes = resident_pages * PAGE_BYTES;

    Some(Sample {
        rss_bytes,
        rss_peak_bytes: field("VmHWM:").map_or(rss_bytes, |kb| kb * 1024),
        cpu_user_ms: utime_ticks * MS_PER_TICK,
        cpu_sys_ms: stime_ticks * MS_PER_TICK,
        threads,
    })
}

/// Take one sample and publish it into the `proc.*` gauges. No-op when
/// `/proc` is unavailable or telemetry is off.
pub fn publish_once() {
    if let Some(s) = sample() {
        crate::gauge_set("proc.rss_bytes", s.rss_bytes);
        crate::gauge_set("proc.rss_peak_bytes", s.rss_peak_bytes);
        crate::gauge_set("proc.cpu_user_ms", s.cpu_user_ms);
        crate::gauge_set("proc.cpu_sys_ms", s.cpu_sys_ms);
        crate::gauge_set("proc.threads", s.threads);
    }
}

struct Sampler {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

fn sampler_slot() -> &'static Mutex<Option<Sampler>> {
    static SLOT: OnceLock<Mutex<Option<Sampler>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

/// Start the background sampler publishing every `period`. Replaces any
/// previously running sampler. The thread samples immediately on start so
/// the gauges exist before the first period elapses.
pub fn start_sampler(period: Duration) {
    stop_sampler();
    let stop = Arc::new(AtomicBool::new(false));
    let stop_seen = Arc::clone(&stop);
    let thread = std::thread::Builder::new()
        .name("aml-resource-sampler".into())
        .spawn(move || {
            while !stop_seen.load(Ordering::Relaxed) {
                publish_once();
                // Sleep in short slices so stop_sampler() never waits a
                // full period for the join.
                let mut slept = Duration::ZERO;
                while slept < period && !stop_seen.load(Ordering::Relaxed) {
                    let step = Duration::from_millis(25).min(period - slept);
                    std::thread::sleep(step);
                    slept += step;
                }
            }
        })
        .ok();
    *sampler_slot()
        .lock()
        .unwrap_or_else(PoisonError::into_inner) = Some(Sampler { stop, thread });
}

/// Stop the background sampler (if running), join its thread, and take a
/// final sample so the gauges reflect end-of-run usage.
pub fn stop_sampler() {
    let taken = sampler_slot()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .take();
    if let Some(mut sampler) = taken {
        sampler.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = sampler.thread.take() {
            let _ = thread.join();
        }
        publish_once();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{set_level, test_lock, TelemetryLevel};

    #[test]
    fn sample_reads_plausible_values_on_linux() {
        let Some(s) = sample() else {
            return; // /proc unavailable: graceful no-op is the contract
        };
        assert!(s.rss_bytes > 0, "{s:?}");
        assert!(s.threads >= 1, "{s:?}");
        // CPU times are cumulative; merely non-decreasing across reads.
        let s2 = sample().unwrap();
        assert!(s2.cpu_user_ms >= s.cpu_user_ms);
        assert!(s2.cpu_sys_ms >= s.cpu_sys_ms);
    }

    #[test]
    fn publish_once_sets_proc_gauges() {
        let _guard = test_lock::hold();
        set_level(TelemetryLevel::Summary);
        crate::global().reset();
        publish_once();
        let snap = crate::global().snapshot();
        if sample().is_some() {
            let names: Vec<&str> = snap.gauges.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(
                names,
                vec![
                    "proc.cpu_sys_ms",
                    "proc.cpu_user_ms",
                    "proc.rss_bytes",
                    "proc.rss_peak_bytes",
                    "proc.threads"
                ]
            );
            let gauge = |name: &str| {
                snap.gauges
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, v)| *v)
                    .unwrap()
            };
            assert!(gauge("proc.rss_peak_bytes") >= gauge("proc.rss_bytes"));
        } else {
            assert!(snap.gauges.is_empty());
        }
        set_level(TelemetryLevel::Off);
        crate::global().reset();
    }

    #[test]
    fn rss_peak_is_the_kernels_high_water_mark() {
        let _guard = test_lock::hold();
        set_level(TelemetryLevel::Summary);
        crate::global().reset();
        // Touch every page of 64 MiB, then give it back: only the
        // high-water mark still remembers it.
        const SIZE: usize = 64 << 20;
        let buf = std::hint::black_box(vec![1u8; SIZE]);
        assert_eq!(buf[SIZE - 1], 1);
        drop(buf);
        publish_once();
        if sample().is_some() {
            let peak = crate::global()
                .snapshot()
                .gauges
                .into_iter()
                .find(|(n, _)| n == "proc.rss_peak_bytes")
                .map(|(_, v)| v);
            assert!(peak >= Some(SIZE as u64), "{peak:?}");
        }
        set_level(TelemetryLevel::Off);
        crate::global().reset();
    }

    #[test]
    fn sampler_starts_and_stops_cleanly() {
        let _guard = test_lock::hold();
        set_level(TelemetryLevel::Summary);
        crate::global().reset();
        start_sampler(Duration::from_millis(10));
        std::thread::sleep(Duration::from_millis(30));
        stop_sampler();
        // Idempotent.
        stop_sampler();
        if sample().is_some() {
            assert!(crate::global()
                .snapshot()
                .gauges
                .iter()
                .any(|(n, _)| n == "proc.rss_bytes"));
        }
        set_level(TelemetryLevel::Off);
        crate::global().reset();
    }
}
