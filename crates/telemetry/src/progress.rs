//! The pipeline's two output channels.
//!
//! The repo's output discipline (DESIGN.md §6) is:
//!
//! * **stdout** carries only user-facing results (banners and final
//!   tables), always, via [`report`] — so `--telemetry off` output is
//!   identical to an uninstrumented run and remains pipeable;
//! * **stderr** carries status/progress/summary, only when telemetry is
//!   enabled, via [`note`] (plus [`warn`], which always prints).

/// Print a user-facing result line to stdout. This is the one sanctioned
/// stdout sink; it is *not* gated by the telemetry level.
pub fn report(line: &str) {
    println!("{line}");
}

/// Print a status line to stderr when telemetry is enabled; no-op
/// otherwise.
pub fn note(line: &str) {
    if crate::enabled() {
        eprintln!("[run] {line}");
    }
}

/// Print a warning to stderr. *Not* gated by the telemetry level —
/// problems must surface even in `--telemetry off` runs.
pub fn warn(line: &str) {
    eprintln!("warning: {line}");
}
