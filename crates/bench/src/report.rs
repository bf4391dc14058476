//! `BENCH_<workload>.json`: the perf record one benchmark run leaves
//! behind, and the unit `perfgate` compares across commits.
//!
//! The report is distilled from the run manifest (DESIGN.md §6): wall
//! time, per-span totals, counter totals and their rates (per wall second,
//! or per core for the layer counters in `OWNED_COUNTERS`), histogram
//! quantiles, and — when the `alloc-track` feature is on — allocation
//! totals. Keys follow the telemetry naming scheme
//! (`crate.component.action`); the compare layer flattens them to metric
//! ids like `span:bench.datagen` (see [`crate::gate`]).
//!
//! Serialization is hand-rolled (like the manifest) and parsing uses
//! [`aml_telemetry::json`], so the format works identically with or without
//! a real serde_json in the build.

use aml_telemetry::{json, Manifest};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Schema version stamped into every report.
pub const BENCH_SCHEMA_VERSION: u64 = 1;

/// Layer counters paired with the span that does their work. Their
/// `throughput` is the counter over that span's total time, which sums
/// every call on every thread: a rate per core, which does not fall when
/// the rest of the run grows. Other counters are taken per second of wall
/// time. The netsim counters are owned by `netsim.scenario`, one span per
/// labelled condition that holds all of its simulations. Labels per
/// core-second is the netsim layer's number: it rises when a label needs
/// fewer simulations or a simulation gets cheaper, whatever that does to
/// the events each one pops. Training rows per core-second of
/// `automl.trial` is the model-fit layer's number.
pub(crate) const OWNED_COUNTERS: [(&str, &str); 5] = [
    ("automl.fit.rows", "automl.trial"),
    ("interpret.ale.predictions", "interpret.ale.curve"),
    ("netsim.labels", "netsim.scenario"),
    ("netsim.sim.events", "netsim.scenario"),
    ("netsim.sim.runs", "netsim.scenario"),
];

/// One span's aggregate in the report.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSpan {
    /// Span name.
    pub name: String,
    /// Closed calls.
    pub calls: u64,
    /// Total wall time, seconds.
    pub total_s: f64,
    /// Mean per call, milliseconds.
    pub mean_ms: f64,
    /// Longest call, milliseconds.
    pub max_ms: f64,
}

/// One histogram's summary in the report.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchHist {
    /// Histogram name.
    pub name: String,
    /// Observations.
    pub count: u64,
    /// Mean observation.
    pub mean: u64,
    /// Approximate median.
    pub p50: u64,
    /// Approximate 95th percentile.
    pub p95: u64,
    /// Largest observation.
    pub max: u64,
}

/// Allocation totals (present when the run tracked allocations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchAlloc {
    /// Total bytes allocated over the run.
    pub bytes: u64,
    /// Total allocations over the run.
    pub count: u64,
    /// High-water mark of live bytes (RSS proxy).
    pub peak_bytes: u64,
}

/// The full perf record of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Workload (benchmark binary) name.
    pub workload: String,
    /// Master RNG seed.
    pub seed: u64,
    /// Problem-size multiplier.
    pub scale: f64,
    /// Worker threads.
    pub threads: u64,
    /// `git describe` of the build.
    pub git: String,
    /// Total wall time, seconds.
    pub wall_time_s: f64,
    /// Sum of top-level `bench.*` phase spans, seconds — should track
    /// `wall_time_s` closely; a widening gap means untimed work.
    pub top_span_total_s: f64,
    /// Per-span aggregates, sorted by name.
    pub spans: Vec<BenchSpan>,
    /// Counter totals, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Counter rates, excluding `alloc.*`: the `OWNED_COUNTERS`
    /// (`interpret.ale.predictions`, `netsim.labels`, `netsim.sim.events`,
    /// `netsim.sim.runs`) per second of their owning span's total (omitted
    /// when that span took no time), every other counter per second of
    /// wall time.
    pub throughput: Vec<(String, f64)>,
    /// Histogram summaries, sorted by name.
    pub histograms: Vec<BenchHist>,
    /// Allocation totals, when tracked.
    pub alloc: Option<BenchAlloc>,
}

impl BenchReport {
    /// The canonical file name for a workload's report.
    pub fn file_name(workload: &str) -> String {
        format!("BENCH_{workload}.json")
    }

    /// Distill a report from a run manifest.
    pub fn from_manifest(manifest: &Manifest) -> BenchReport {
        let spans: Vec<BenchSpan> = manifest
            .snapshot
            .spans
            .iter()
            .map(|s| BenchSpan {
                name: s.name.clone(),
                calls: s.calls,
                total_s: s.total_secs(),
                mean_ms: s.mean_ns() as f64 / 1e6,
                max_ms: s.max_ns as f64 / 1e6,
            })
            .collect();
        let top_span_total_s = spans
            .iter()
            .filter(|s| s.name.starts_with("bench."))
            .map(|s| s.total_s)
            .sum();
        let counters = manifest.snapshot.counters.clone();
        let throughput = counters
            .iter()
            .filter(|(name, _)| !name.starts_with("alloc."))
            .filter_map(|(name, v)| {
                let secs = match OWNED_COUNTERS.iter().find(|(counter, _)| counter == name) {
                    Some((_, span)) => spans
                        .iter()
                        .find(|s| s.name == *span)
                        .map_or(0.0, |s| s.total_s),
                    None => manifest.wall_time_s,
                };
                (secs > 0.0).then(|| (name.clone(), *v as f64 / secs))
            })
            .collect();
        let find = |name: &str| counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
        let alloc = match (
            find("alloc.bytes"),
            find("alloc.count"),
            find("alloc.peak_bytes"),
        ) {
            (Some(bytes), Some(count), Some(peak_bytes)) => Some(BenchAlloc {
                bytes,
                count,
                peak_bytes,
            }),
            _ => None,
        };
        BenchReport {
            workload: manifest.binary.clone(),
            seed: manifest.seed,
            scale: manifest.scale,
            threads: manifest.threads as u64,
            git: manifest.git.clone(),
            wall_time_s: manifest.wall_time_s,
            top_span_total_s,
            spans,
            counters,
            throughput,
            histograms: manifest
                .snapshot
                .histograms
                .iter()
                .map(|h| BenchHist {
                    name: h.name.clone(),
                    count: h.count,
                    mean: h.mean(),
                    p50: h.p50,
                    p95: h.p95,
                    max: h.max,
                })
                .collect(),
            alloc,
        }
    }

    /// Serialize to pretty JSON with stable key order.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema_version\": {BENCH_SCHEMA_VERSION},");
        let _ = writeln!(out, "  \"workload\": {},", json::string(&self.workload));
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"scale\": {},", json::fixed(self.scale, 6));
        let _ = writeln!(out, "  \"threads\": {},", self.threads);
        let _ = writeln!(out, "  \"git\": {},", json::string(&self.git));
        let _ = writeln!(
            out,
            "  \"wall_time_s\": {},",
            json::fixed(self.wall_time_s, 6)
        );
        let _ = writeln!(
            out,
            "  \"top_span_total_s\": {},",
            json::fixed(self.top_span_total_s, 6)
        );

        out.push_str("  \"spans\": {");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    {}: {{\"calls\": {}, \"total_s\": {}, \"mean_ms\": {}, \"max_ms\": {}}}",
                comma(i),
                json::string(&s.name),
                s.calls,
                json::fixed(s.total_s, 6),
                json::fixed(s.mean_ms, 6),
                json::fixed(s.max_ms, 6),
            );
        }
        out.push_str(close_map(self.spans.is_empty()));

        out.push_str("  \"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            let _ = write!(out, "{}\n    {}: {}", comma(i), json::string(name), value);
        }
        out.push_str(close_map(self.counters.is_empty()));

        out.push_str("  \"throughput\": {");
        for (i, (name, value)) in self.throughput.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    {}: {}",
                comma(i),
                json::string(name),
                json::fixed(*value, 6)
            );
        }
        out.push_str(close_map(self.throughput.is_empty()));

        out.push_str("  \"histograms\": {");
        for (i, h) in self.histograms.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    {}: {{\"count\": {}, \"mean\": {}, \"p50\": {}, \"p95\": {}, \"max\": {}}}",
                comma(i),
                json::string(&h.name),
                h.count,
                h.mean,
                h.p50,
                h.p95,
                h.max,
            );
        }
        out.push_str(close_map(self.histograms.is_empty()));

        match &self.alloc {
            Some(a) => {
                let _ = writeln!(
                    out,
                    "  \"alloc\": {{\"bytes\": {}, \"count\": {}, \"peak_bytes\": {}}}",
                    a.bytes, a.count, a.peak_bytes
                );
            }
            None => out.push_str("  \"alloc\": null\n"),
        }
        out.push_str("}\n");
        out
    }

    /// Parse a report back from JSON (see [`aml_telemetry::json`]).
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let v = json::parse(text)?;
        let version = v.u64_at("schema_version")?;
        if version != BENCH_SCHEMA_VERSION {
            return Err(format!(
                "unsupported BENCH schema_version {version} (expected {BENCH_SCHEMA_VERSION})"
            ));
        }
        let spans = v
            .obj_at("spans")?
            .iter()
            .map(|(name, s)| {
                Ok(BenchSpan {
                    name: name.clone(),
                    calls: s.u64_at("calls")?,
                    total_s: s.f64_at("total_s")?,
                    mean_ms: s.f64_at("mean_ms")?,
                    max_ms: s.f64_at("max_ms")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let counters = v
            .obj_at("counters")?
            .iter()
            .map(|(name, c)| {
                c.as_u64()
                    .map(|n| (name.clone(), n))
                    .ok_or_else(|| format!("counter '{name}' is not an integer"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let throughput = v
            .obj_at("throughput")?
            .iter()
            .map(|(name, t)| {
                t.as_f64()
                    .map(|n| (name.clone(), n))
                    .ok_or_else(|| format!("throughput '{name}' is not a number"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let histograms = v
            .obj_at("histograms")?
            .iter()
            .map(|(name, h)| {
                Ok(BenchHist {
                    name: name.clone(),
                    count: h.u64_at("count")?,
                    mean: h.u64_at("mean")?,
                    p50: h.u64_at("p50")?,
                    p95: h.u64_at("p95")?,
                    max: h.u64_at("max")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let alloc = match v.get("alloc") {
            None | Some(json::Value::Null) => None,
            Some(a) => Some(BenchAlloc {
                bytes: a.u64_at("bytes")?,
                count: a.u64_at("count")?,
                peak_bytes: a.u64_at("peak_bytes")?,
            }),
        };
        Ok(BenchReport {
            workload: v.str_at("workload")?.to_string(),
            seed: v.u64_at("seed")?,
            scale: v.f64_at("scale")?,
            threads: v.u64_at("threads")?,
            git: v.str_at("git")?.to_string(),
            wall_time_s: v.f64_at("wall_time_s")?,
            top_span_total_s: v.f64_at("top_span_total_s")?,
            spans,
            counters,
            throughput,
            histograms,
            alloc,
        })
    }

    /// Load a report from a file.
    pub fn load(path: &Path) -> Result<BenchReport, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        BenchReport::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Write `BENCH_<workload>.json` into `dir`.
    pub fn write(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(BenchReport::file_name(&self.workload));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

/// Element-wise median across repeated runs of the same workload: each
/// numeric field becomes the median of its values across `reports`
/// (spans/counters/histograms matched by name; entries missing from any
/// repeat are dropped). Identity fields come from the first report.
pub fn median_report(reports: &[BenchReport]) -> Option<BenchReport> {
    use crate::gate::percentile;
    let first = reports.first()?;
    if reports.len() == 1 {
        return Some(first.clone());
    }
    let med = |values: Vec<f64>| -> f64 {
        let mut sorted = values;
        sorted.sort_by(f64::total_cmp);
        percentile(&sorted, 0.5)
    };
    let med_u = |values: Vec<u64>| -> u64 {
        med(values.into_iter().map(|v| v as f64).collect()).round() as u64
    };

    let spans = first
        .spans
        .iter()
        .filter_map(|s| {
            let all: Vec<&BenchSpan> = reports
                .iter()
                .filter_map(|r| r.spans.iter().find(|o| o.name == s.name))
                .collect();
            (all.len() == reports.len()).then(|| BenchSpan {
                name: s.name.clone(),
                calls: med_u(all.iter().map(|o| o.calls).collect()),
                total_s: med(all.iter().map(|o| o.total_s).collect()),
                mean_ms: med(all.iter().map(|o| o.mean_ms).collect()),
                max_ms: med(all.iter().map(|o| o.max_ms).collect()),
            })
        })
        .collect();
    let counters = first
        .counters
        .iter()
        .filter_map(|(name, _)| {
            let all: Vec<u64> = reports
                .iter()
                .filter_map(|r| r.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v))
                .collect();
            (all.len() == reports.len()).then(|| (name.clone(), med_u(all)))
        })
        .collect();
    let throughput = first
        .throughput
        .iter()
        .filter_map(|(name, _)| {
            let all: Vec<f64> = reports
                .iter()
                .filter_map(|r| {
                    r.throughput
                        .iter()
                        .find(|(n, _)| n == name)
                        .map(|(_, v)| *v)
                })
                .collect();
            (all.len() == reports.len()).then(|| (name.clone(), med(all)))
        })
        .collect();
    let histograms = first
        .histograms
        .iter()
        .filter_map(|h| {
            let all: Vec<&BenchHist> = reports
                .iter()
                .filter_map(|r| r.histograms.iter().find(|o| o.name == h.name))
                .collect();
            (all.len() == reports.len()).then(|| BenchHist {
                name: h.name.clone(),
                count: med_u(all.iter().map(|o| o.count).collect()),
                mean: med_u(all.iter().map(|o| o.mean).collect()),
                p50: med_u(all.iter().map(|o| o.p50).collect()),
                p95: med_u(all.iter().map(|o| o.p95).collect()),
                max: med_u(all.iter().map(|o| o.max).collect()),
            })
        })
        .collect();
    let alloc = if reports.iter().all(|r| r.alloc.is_some()) {
        let all: Vec<BenchAlloc> = reports.iter().filter_map(|r| r.alloc).collect();
        Some(BenchAlloc {
            bytes: med_u(all.iter().map(|a| a.bytes).collect()),
            count: med_u(all.iter().map(|a| a.count).collect()),
            peak_bytes: med_u(all.iter().map(|a| a.peak_bytes).collect()),
        })
    } else {
        None
    };

    Some(BenchReport {
        wall_time_s: med(reports.iter().map(|r| r.wall_time_s).collect()),
        top_span_total_s: med(reports.iter().map(|r| r.top_span_total_s).collect()),
        spans,
        counters,
        throughput,
        histograms,
        alloc,
        ..first.clone()
    })
}

fn comma(i: usize) -> &'static str {
    if i == 0 {
        ""
    } else {
        ","
    }
}

fn close_map(empty: bool) -> &'static str {
    if empty {
        "},\n"
    } else {
        "\n  },\n"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aml_telemetry::{HistSnapshot, Snapshot, SpanSnapshot};

    fn sample_manifest() -> Manifest {
        Manifest {
            binary: "table1_scream".into(),
            seed: 1,
            scale: 0.05,
            threads: 2,
            git: "abc1234".into(),
            telemetry: "summary".into(),
            wall_time_s: 10.0,
            snapshot: Snapshot {
                spans: vec![
                    SpanSnapshot {
                        name: "automl.search.run".into(),
                        calls: 4,
                        total_ns: 2_000_000_000,
                        max_ns: 900_000_000,
                        min_ns: 100_000_000,
                    },
                    SpanSnapshot {
                        name: "bench.datagen".into(),
                        calls: 1,
                        total_ns: 7_000_000_000,
                        max_ns: 7_000_000_000,
                        min_ns: 7_000_000_000,
                    },
                    SpanSnapshot {
                        name: "bench.strategies".into(),
                        calls: 1,
                        total_ns: 2_500_000_000,
                        max_ns: 2_500_000_000,
                        min_ns: 2_500_000_000,
                    },
                    SpanSnapshot {
                        name: "netsim.scenario".into(),
                        calls: 64,
                        total_ns: 4_000_000_000,
                        max_ns: 100_000_000,
                        min_ns: 50_000_000,
                    },
                ],
                counters: vec![
                    ("alloc.bytes".into(), 4096),
                    ("alloc.count".into(), 17),
                    ("alloc.peak_bytes".into(), 2048),
                    ("netsim.sim.events".into(), 50_000),
                ],
                gauges: vec![],
                histograms: vec![HistSnapshot {
                    name: "automl.fit_us[forest]".into(),
                    count: 4,
                    sum: 400,
                    min: 50,
                    max: 200,
                    p50: 127,
                    p95: 255,
                    buckets: vec![],
                }],
            },
        }
    }

    pub(crate) fn sample_report() -> BenchReport {
        BenchReport::from_manifest(&sample_manifest())
    }

    #[test]
    fn from_manifest_distills_all_sections() {
        let r = sample_report();
        assert_eq!(r.workload, "table1_scream");
        assert_eq!(r.spans.len(), 4);
        // top spans = bench.datagen (7s) + bench.strategies (2.5s).
        assert!(
            (r.top_span_total_s - 9.5).abs() < 1e-9,
            "{}",
            r.top_span_total_s
        );
        // Throughput excludes alloc.* counters; simulated events are rated
        // over the 4 s of `netsim.scenario`, not the 10 s wall.
        assert_eq!(r.throughput.len(), 1);
        assert_eq!(r.throughput[0].0, "netsim.sim.events");
        assert!((r.throughput[0].1 - 12_500.0).abs() < 1e-9);
        // Alloc counters surface as the alloc block.
        let alloc = r.alloc.unwrap();
        assert_eq!(alloc.bytes, 4096);
        assert_eq!(alloc.count, 17);
        assert_eq!(alloc.peak_bytes, 2048);
    }

    #[test]
    fn layer_counters_are_rated_per_core_over_their_span() {
        let mut m = sample_manifest();
        // Two threads each spend 0.25 s in ALE curves during a 10 s run.
        m.snapshot.spans.push(SpanSnapshot {
            name: "interpret.ale.curve".into(),
            calls: 8,
            total_ns: 500_000_000,
            max_ns: 70_000_000,
            min_ns: 60_000_000,
        });
        m.snapshot.spans.retain(|s| s.name != "netsim.scenario");
        m.snapshot.counters.extend([
            ("automl.trials".into(), 20),
            ("interpret.ale.predictions".into(), 100_000),
        ]);
        let r = BenchReport::from_manifest(&m);
        let rate = |name: &str| r.throughput.iter().find(|(n, _)| n == name).map(|t| t.1);
        // Per second of the span's summed total: 100k / 0.5 s.
        assert_eq!(rate("interpret.ale.predictions"), Some(200_000.0));
        // A plain counter keeps the wall-time rate.
        assert_eq!(rate("automl.trials"), Some(2.0));
        // Without its span's time there is no per-core rate to report.
        assert_eq!(rate("netsim.sim.events"), None);
        assert_eq!(r.throughput.len(), 2);

        // Labels and simulations are rated over the same 4 s of
        // `netsim.scenario` as their events: 64 labels, 16 per
        // core-second; 384 runs, 96 per core-second.
        let mut m = sample_manifest();
        m.snapshot.counters.extend([
            ("netsim.labels".into(), 64),
            ("netsim.sim.runs".into(), 384),
        ]);
        let r = BenchReport::from_manifest(&m);
        let rate = |name: &str| r.throughput.iter().find(|(n, _)| n == name).map(|t| t.1);
        assert_eq!(rate("netsim.labels"), Some(16.0));
        assert_eq!(rate("netsim.sim.runs"), Some(96.0));
        assert_eq!(rate("netsim.sim.events"), Some(12_500.0));
    }

    #[test]
    fn json_round_trips_exactly() {
        let r = sample_report();
        let parsed = BenchReport::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
        // And a report without alloc tracking.
        let mut no_alloc = r.clone();
        no_alloc.alloc = None;
        assert_eq!(
            BenchReport::from_json(&no_alloc.to_json()).unwrap().alloc,
            None
        );
    }

    #[test]
    fn write_and_load_use_the_canonical_name() {
        let dir = std::env::temp_dir().join(format!("aml_bench_report_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let r = sample_report();
        let path = r.write(&dir).unwrap();
        assert!(path.ends_with("BENCH_table1_scream.json"), "{path:?}");
        assert_eq!(BenchReport::load(&path).unwrap(), r);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn schema_version_mismatch_is_rejected() {
        let bad = sample_report()
            .to_json()
            .replace("\"schema_version\": 1", "\"schema_version\": 99");
        let err = BenchReport::from_json(&bad).unwrap_err();
        assert!(err.contains("schema_version 99"), "{err}");
    }

    #[test]
    fn median_of_three_runs_takes_middle_values() {
        let mk = |wall: f64, datagen: f64| {
            let mut r = sample_report();
            r.wall_time_s = wall;
            r.spans[1].total_s = datagen;
            r
        };
        let merged = median_report(&[mk(10.0, 7.0), mk(30.0, 8.0), mk(20.0, 6.0)]).unwrap();
        assert_eq!(merged.wall_time_s, 20.0);
        assert_eq!(merged.spans[1].total_s, 7.0);
        // Single run passes through unchanged; empty input is None.
        assert_eq!(median_report(&[mk(1.0, 1.0)]).unwrap().wall_time_s, 1.0);
        assert!(median_report(&[]).is_none());
    }
}
