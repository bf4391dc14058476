//! The repository benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <scream_datagen|scream_feedback|firewall_feedback|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is a closed loop with one caller: the next label batch or
//! feedback round is issued only after the previous one returns. The
//! program is driven only through public functions of its crates, at
//! `available_parallelism` worker threads, and every layer is timed by
//! wrapping the benchmark's own calls into it. Inputs come from `--seed`.
//!
//! With `--trace 0` the last line of standard output is a JSON object with
//! the end-to-end metrics; with `--trace 1` the run also replays its work
//! through the layers' own functions, each call in a span, and the JSON
//! holds the per-layer metrics instead. The exit code is non-zero when a
//! correctness check fails.

mod datagen;
mod feedback;
mod layers;
mod procfs;
mod report;
mod stats;
mod trace;

use report::{render_json, Outcome};
use std::process::ExitCode;
use std::time::Duration;

pub const WORKLOADS: [&str; 3] = ["scream_datagen", "scream_feedback", "firewall_feedback"];

/// Parsed command line.
pub struct Opts {
    pub workloads: Vec<&'static str>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub threads: usize,
}

impl Opts {
    /// Time the untraced pass measures for. A traced run splits its time
    /// between the untraced pass and the traced replay of the same work.
    pub fn pass_budget(&self) -> Duration {
        let s = if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        };
        Duration::from_secs_f64(s)
    }
}

const USAGE: &str =
    "usage: aml-repo-benchmark --workload <scream_datagen|scream_feedback|firewall_feedback|all> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} expects a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                let v = value()?;
                seed = Some(v.parse::<u64>().map_err(|_| format!("bad --seed '{v}'"))?);
            }
            "--seconds" => {
                let v = value()?;
                let s = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds '{v}'"))?;
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace '{v}' (expected 0 or 1)")),
                }
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let workloads = if workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![*WORKLOADS
            .iter()
            .find(|w| **w == workload)
            .ok_or_else(|| format!("unknown workload '{workload}'"))?]
    };
    Ok(Opts {
        workloads,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
    })
}

/// SplitMix64 seed derivation, the same mixing `aml_core::experiment`
/// uses to derive per-purpose AutoML seeds.
pub fn mix(master: u64, salt: u64) -> u64 {
    let mut z = master ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over 64-bit words: a digest that repeated runs of the same seed
/// must reproduce.
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Timings behind the end-to-end metrics of one workload.
pub struct E2e<'a> {
    /// Wall time of each cycle of the workload's fixed work.
    pub wall_s: &'a [f64],
    /// Wall time of each set-up.
    pub setup_s: &'a [f64],
    /// Latency of each closed-loop operation (round or label batch).
    pub round_s: &'a [f64],
    pub round_kind: &'static str,
    /// Rows labelled and the seconds the labelling operations took, summed
    /// over the timed pass.
    pub labelled_rows: f64,
    pub labelling_s: f64,
    pub labels_kind: &'static str,
}

/// Add every end-to-end metric, in the order `BENCHMARK.json` lists them.
///
/// The round and labelling figures are a mean and a ratio of sums over
/// the whole timed pass, not medians of single operations: a workload's
/// operations differ in kind (three strategies, two sampling modes), so
/// the middle operation changes with the data and a median of them jumps
/// from seed to seed. The median and the highest percentile the sample
/// count supports are printed alongside.
pub fn e2e_metrics(out: &mut Outcome, t: &E2e) {
    use stats::{highest_reportable_percentile, mean, median, percentile};
    out.metric("wall_s", median(t.wall_s), "s");
    out.metric("setup_s", median(t.setup_s), "s");
    out.metric("round_s_mean", mean(t.round_s), "s");
    let labels_per_s = (t.labelling_s > 0.0).then(|| t.labelled_rows / t.labelling_s);
    out.metric("labels_per_s", labels_per_s, "rows/s");
    out.metric("peak_rss_mb", procfs::peak_rss_mb(), "MiB");
    let n = t.round_s.len();
    let tail = match highest_reportable_percentile(n) {
        Some(p) => format!(
            "p{p} = {:.4} s is the highest percentile with >= {} samples beyond it",
            percentile(t.round_s, p).unwrap_or(f64::NAN),
            stats::MIN_TAIL_SAMPLES
        ),
        None => format!(
            "no percentile has >= {} samples beyond it",
            stats::MIN_TAIL_SAMPLES
        ),
    };
    out.note(format!(
        "wall_s: median of {} cycles of the fixed work; setup_s: median of {} set-ups; round_s_mean: mean of {n} {} (median {:.4} s; {tail}); labels_per_s: {} rows over {:.3} s of {}",
        t.wall_s.len(),
        t.setup_s.len(),
        t.round_kind,
        median(t.round_s).unwrap_or(f64::NAN),
        t.labelled_rows,
        t.labelling_s,
        t.labels_kind,
    ));
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcomes: Vec<Outcome> = opts
        .workloads
        .iter()
        .map(|&w| {
            let o = match w {
                "scream_datagen" => datagen::run(&opts),
                "scream_feedback" => feedback::run(feedback::Kind::Scream, &opts),
                _ => feedback::run(feedback::Kind::Firewall, &opts),
            };
            print!("{}", o.render_text());
            o
        })
        .collect();
    println!(
        "{}",
        render_json(&outcomes, opts.trace, opts.workloads.len() > 1)
    );
    if outcomes.iter().all(Outcome::correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let o = parse_args(&args(
            "--workload scream_datagen --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(o.workloads, vec!["scream_datagen"]);
        assert_eq!((o.seed, o.seconds, o.trace), (7, 10.0, true));
        assert_eq!(o.pass_budget(), Duration::from_secs(5));
        let all = parse_args(&args("--workload all --seed 1 --seconds 3 --trace 0")).unwrap();
        assert_eq!(all.workloads, WORKLOADS.to_vec());
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "--workload nope --seed 1 --seconds 1",
            "--workload all --seed x --seconds 1",
            "--workload all --seed 1 --seconds 0",
            "--workload all --seed 1 --seconds 1 --trace 2",
            "--workload all --seed 1",
            "--workload all --seed 1 --seconds 1 --bogus 3",
            "--workload",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn digest_depends_on_order() {
        let mut a = Digest::new();
        a.u64(1);
        a.u64(2);
        let mut b = Digest::new();
        b.u64(2);
        b.u64(1);
        assert_ne!(a.finish(), b.finish());
    }
}
