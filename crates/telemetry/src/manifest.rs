//! Run manifests: a machine-readable record of one benchmark run.
//!
//! A [`Manifest`] captures the run's identity (binary, seed, scale,
//! threads, git revision), its wall time, and a full snapshot of the
//! telemetry registry. [`Manifest::write_json`] serializes it by hand —
//! this crate stays dependency-free, and the schema is flat enough that
//! a small escaping writer is simpler than pulling in serde.
//!
//! Schema (`schema_version` 1):
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "binary": "table1_scream",
//!   "seed": 42, "scale": 0.05, "threads": 4,
//!   "git": "a6694e5", "telemetry": "summary",
//!   "wall_time_s": 12.345,
//!   "spans":      { "<name>": {"calls":N,"total_s":F,"mean_ms":F,"max_ms":F}, … },
//!   "counters":   { "<name>": N, … },
//!   "gauges":     { "<name>": N, … },
//!   "histograms": { "<name>": {"count":N,"sum":N,"min":N,"max":N,"p50":N,"p95":N}, … }
//! }
//! ```

use crate::json;
use crate::registry::Snapshot;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Everything needed to reconstruct what one run did and how long each
/// part took.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Benchmark binary name (e.g. `table1_scream`).
    pub binary: String,
    /// Master RNG seed of the run.
    pub seed: u64,
    /// Problem-size multiplier (`--scale`).
    pub scale: f64,
    /// Worker thread count.
    pub threads: usize,
    /// `git describe --always --dirty` output, or `"unknown"`.
    pub git: String,
    /// Telemetry level the run was collected at.
    pub telemetry: String,
    /// Total wall time of the run in seconds.
    pub wall_time_s: f64,
    /// Snapshot of every span/counter/histogram at the end of the run.
    pub snapshot: Snapshot,
}

impl Manifest {
    /// Assemble a manifest from run parameters and a registry snapshot.
    ///
    /// `started` is the instant the binary began (wall time is measured
    /// from it); the git revision is resolved here, tolerantly — a missing
    /// `git` binary or non-repo directory yields `"unknown"`.
    pub fn new(
        binary: &str,
        seed: u64,
        scale: f64,
        threads: usize,
        started: Instant,
        snapshot: Snapshot,
    ) -> Self {
        Manifest {
            binary: binary.to_string(),
            seed,
            scale,
            threads,
            git: git_describe(),
            telemetry: crate::level().name().to_string(),
            wall_time_s: started.elapsed().as_secs_f64(),
            snapshot,
        }
    }

    /// Serialize to pretty-printed JSON (see the module docs for the
    /// schema). Deterministic: snapshot entries are pre-sorted by name.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema_version\": 1,");
        let _ = writeln!(out, "  \"binary\": {},", json::string(&self.binary));
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"scale\": {},", json::fixed(self.scale, 3));
        let _ = writeln!(out, "  \"threads\": {},", self.threads);
        let _ = writeln!(out, "  \"git\": {},", json::string(&self.git));
        let _ = writeln!(out, "  \"telemetry\": {},", json::string(&self.telemetry));
        let _ = writeln!(
            out,
            "  \"wall_time_s\": {},",
            json::fixed(self.wall_time_s, 3)
        );

        out.push_str("  \"spans\": {");
        for (i, s) in self.snapshot.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    {}: {{\"calls\": {}, \"total_s\": {}, \"mean_ms\": {}, \"max_ms\": {}}}",
                if i == 0 { "" } else { "," },
                json::string(&s.name),
                s.calls,
                json::fixed(s.total_secs(), 3),
                json::fixed(s.mean_ns() as f64 / 1e6, 3),
                json::fixed(s.max_ns as f64 / 1e6, 3),
            );
        }
        out.push_str(if self.snapshot.spans.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });

        out.push_str("  \"counters\": {");
        for (i, (name, value)) in self.snapshot.counters.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    {}: {}",
                if i == 0 { "" } else { "," },
                json::string(name),
                value
            );
        }
        out.push_str(if self.snapshot.counters.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });

        out.push_str("  \"gauges\": {");
        for (i, (name, value)) in self.snapshot.gauges.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    {}: {}",
                if i == 0 { "" } else { "," },
                json::string(name),
                value
            );
        }
        out.push_str(if self.snapshot.gauges.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });

        out.push_str("  \"histograms\": {");
        for (i, h) in self.snapshot.histograms.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    {}: {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"p50\": {}, \"p95\": {}}}",
                if i == 0 { "" } else { "," },
                json::string(&h.name),
                h.count,
                h.sum,
                h.min,
                h.max,
                h.p50,
                h.p95,
            );
        }
        out.push_str(if self.snapshot.histograms.is_empty() {
            "}\n"
        } else {
            "\n  }\n"
        });

        out.push_str("}\n");
        out
    }

    /// Write `manifest.json` into `dir` (creating the directory if
    /// needed).
    pub fn write_json(&self, dir: &Path) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join("manifest.json");
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// Render the human-readable timing table printed to stderr at the
    /// end of a `--telemetry summary` run: spans sorted by total time
    /// descending, then counters, then histograms.
    pub fn render_summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "── run summary: {} (seed {}, scale {}, {} threads, {}) ──",
            self.binary,
            self.seed,
            self.scale,
            self.threads,
            fmt_duration(self.wall_time_s * 1e9),
        );

        if !self.snapshot.spans.is_empty() {
            let name_w = self
                .snapshot
                .spans
                .iter()
                .map(|s| s.name.len())
                .max()
                .unwrap()
                .max(4);
            let _ = writeln!(
                out,
                "{:<name_w$}  {:>8}  {:>10}  {:>10}  {:>10}",
                "span", "calls", "total", "mean", "max"
            );
            let mut spans = self.snapshot.spans.clone();
            spans.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(&b.name)));
            for s in &spans {
                let _ = writeln!(
                    out,
                    "{:<name_w$}  {:>8}  {:>10}  {:>10}  {:>10}",
                    s.name,
                    s.calls,
                    fmt_duration(s.total_ns as f64),
                    fmt_duration(s.mean_ns() as f64),
                    fmt_duration(s.max_ns as f64),
                );
            }
        }

        if !self.snapshot.counters.is_empty() {
            let _ = writeln!(out, "counters:");
            for (name, value) in &self.snapshot.counters {
                let _ = writeln!(out, "  {name} = {value}");
            }
        }

        if !self.snapshot.gauges.is_empty() {
            let _ = writeln!(out, "gauges:");
            for (name, value) in &self.snapshot.gauges {
                let _ = writeln!(out, "  {name} = {value}");
            }
        }

        if !self.snapshot.histograms.is_empty() {
            let _ = writeln!(out, "histograms:");
            for h in &self.snapshot.histograms {
                let _ = writeln!(
                    out,
                    "  {} n={} mean={} p50~{} p95~{} max={}",
                    h.name,
                    h.count,
                    h.mean(),
                    h.p50,
                    h.p95,
                    h.max
                );
            }
        }
        out
    }
}

/// `git describe --always --dirty`, or `"unknown"` when git is
/// unavailable (the manifest must never fail the run).
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Nanoseconds as a compact human duration: `431ns`, `5.2µs`, `87ms`,
/// `3.4s`, `2m07s`.
fn fmt_duration(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.0}ns")
    } else if ns < 1e6 {
        format!("{:.1}µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.1}ms", ns / 1e6)
    } else if ns < 60e9 {
        format!("{:.2}s", ns / 1e9)
    } else {
        let secs = ns / 1e9;
        format!("{}m{:02.0}s", (secs / 60.0) as u64, secs % 60.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{HistSnapshot, Snapshot, SpanSnapshot};

    fn sample_manifest() -> Manifest {
        Manifest {
            binary: "test_bin".into(),
            seed: 42,
            scale: 0.05,
            threads: 4,
            git: "abc1234".into(),
            telemetry: "summary".into(),
            wall_time_s: 1.25,
            snapshot: Snapshot {
                spans: vec![SpanSnapshot {
                    name: "bench.datagen".into(),
                    calls: 1,
                    total_ns: 2_000_000,
                    max_ns: 2_000_000,
                    min_ns: 2_000_000,
                }],
                counters: vec![("netsim.sim.events".into(), 123)],
                gauges: vec![("proc.rss_bytes".into(), 4096)],
                histograms: vec![HistSnapshot {
                    name: "automl.fit_us[forest]".into(),
                    count: 3,
                    sum: 300,
                    min: 50,
                    max: 200,
                    p50: 127,
                    p95: 255,
                    buckets: vec![],
                }],
            },
        }
    }

    #[test]
    fn json_contains_all_sections_and_is_escaped() {
        let mut m = sample_manifest();
        m.binary = "weird\"name\\with\nnewline".into();
        let json = m.to_json();
        assert!(json.contains("\"schema_version\": 1"));
        assert!(json.contains("\"weird\\\"name\\\\with\\nnewline\""));
        assert!(json.contains("\"seed\": 42"));
        assert!(json.contains("\"bench.datagen\": {\"calls\": 1"));
        assert!(json.contains("\"netsim.sim.events\": 123"));
        assert!(json.contains("\"automl.fit_us[forest]\": {\"count\": 3"));
        // Braces balance — a cheap structural sanity check without a
        // JSON parser in the dependency tree.
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut m = sample_manifest();
        m.wall_time_s = f64::NAN;
        assert!(m.to_json().contains("\"wall_time_s\": null"));
    }

    #[test]
    fn empty_snapshot_is_valid_json_shape() {
        let mut m = sample_manifest();
        m.snapshot = Snapshot::default();
        let json = m.to_json();
        assert!(json.contains("\"spans\": {},"));
        assert!(json.contains("\"counters\": {},"));
        assert!(json.contains("\"histograms\": {}\n"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn write_json_creates_file() {
        let dir = std::env::temp_dir().join("aml_telemetry_manifest_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = sample_manifest().write_json(&dir).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("\"binary\": \"test_bin\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn summary_sorts_spans_by_total_time() {
        let mut m = sample_manifest();
        m.snapshot.spans.push(SpanSnapshot {
            name: "bench.big".into(),
            calls: 1,
            total_ns: 9_000_000_000,
            max_ns: 9_000_000_000,
            min_ns: 9_000_000_000,
        });
        let summary = m.render_summary();
        let big = summary.find("bench.big").unwrap();
        let small = summary.find("bench.datagen").unwrap();
        assert!(
            big < small,
            "spans must be sorted by total desc:\n{summary}"
        );
        assert!(summary.contains("netsim.sim.events = 123"));
    }

    #[test]
    fn durations_format_across_magnitudes() {
        assert_eq!(fmt_duration(431.0), "431ns");
        assert_eq!(fmt_duration(5_200.0), "5.2µs");
        assert_eq!(fmt_duration(87_000_000.0), "87.0ms");
        assert_eq!(fmt_duration(3.4e9), "3.40s");
        assert_eq!(fmt_duration(127e9), "2m07s");
    }
}
