//! `scream_datagen`: label freshly sampled Scream-vs-rest conditions in
//! large batches, alternating production-like and uniform sampling. Only
//! the network simulator does work; the ML layers are bypassed.

use crate::layers::{layer_metrics, netsim_call, self_time_table, PassWalls};
use crate::report::Outcome;
use crate::trace::Tracer;
use crate::{e2e_metrics, mix, Digest, E2e, Opts};
use aml_dataset::Dataset;
use aml_netsim::datagen::{generate_dataset_mode, SamplingMode};
use aml_netsim::ConditionDomain;
use std::time::Instant;

/// Rows per `generate_dataset_mode` call. A label batch is one
/// production-like call and one uniform call.
const CALL_ROWS: usize = 192;
/// Label batches of the fixed work. A run repeats the same batches in
/// whole cycles; only the number of cycles depends on time.
const CYCLE_BATCHES: usize = 2;
/// Rows of each sequential (parallelism 1) reference prefix.
const PREFIX_ROWS: usize = 16;

const MODES: [SamplingMode; 2] = [SamplingMode::Production, SamplingMode::Uniform];

/// Label `n` conditions sampled with `mode` for batch `batch`, in one
/// netsim span.
fn label_call(
    tr: &mut Tracer,
    domain: &ConditionDomain,
    seed: u64,
    batch: usize,
    mode: SamplingMode,
    n: usize,
    parallelism: usize,
) -> Result<Dataset, String> {
    let salt = 2 * batch as u64 + u64::from(mode == SamplingMode::Uniform);
    let call_seed = mix(seed, 0xDA7A_0000 + salt);
    netsim_call(tr, "netsim.generate", n, || {
        generate_dataset_mode(domain, n, call_seed, parallelism, mode)
    })
    .map_err(|e| format!("batch {batch} ({mode:?}): {e}"))
}

/// Both halves of batch `batch`, `n` rows each: production-like, then
/// uniform.
fn label_batch(
    tr: &mut Tracer,
    domain: &ConditionDomain,
    seed: u64,
    batch: usize,
    n: usize,
    parallelism: usize,
) -> Result<[Dataset; 2], String> {
    let [a, b] = MODES.map(|mode| label_call(tr, domain, seed, batch, mode, n, parallelism));
    Ok([a?, b?])
}

/// Rows and labels of `a` and the first `a.n_rows()` rows of `b` agree.
fn is_prefix_of(a: &Dataset, b: &Dataset) -> bool {
    a.n_rows() <= b.n_rows()
        && (0..a.n_rows()).all(|i| a.row(i) == b.row(i))
        && a.labels() == &b.labels()[..a.n_rows()]
}

fn digest(halves: &[Dataset; 2]) -> u64 {
    let mut d = Digest::new();
    for ds in halves {
        for i in 0..ds.n_rows() {
            for v in ds.row(i) {
                d.f64(*v);
            }
        }
        for &l in ds.labels() {
            d.u64(l as u64);
        }
    }
    d.finish()
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::new("scream_datagen");
    let domain = ConditionDomain::default();
    let mut untraced = Tracer::new(false);

    let budget = opts.pass_budget().as_secs_f64();
    let start = Instant::now();
    let mut refs: Vec<[Dataset; 2]> = Vec::new();
    let mut setup_s = Vec::new();
    let mut cycle_s: Vec<f64> = Vec::new();
    let mut batch_s: Vec<f64> = Vec::new();
    let mut digests = [0u64; CYCLE_BATCHES];
    let mut classes = [0usize; 2];
    // Whole set-ups and cycles while another pair fits in the budget.
    while cycle_s.is_empty()
        || start.elapsed().as_secs_f64() * (cycle_s.len() + 1) as f64 / cycle_s.len() as f64
            <= budget
    {
        // Set-up: sequential references of both halves of every batch,
        // rebuilt before every cycle so that `setup_s` is a median over
        // the same stretch of time as `wall_s`. Each rebuild must
        // reproduce the first.
        for b in 0..CYCLE_BATCHES {
            let t = Instant::now();
            let r = label_batch(&mut untraced, &domain, opts.seed, b, PREFIX_ROWS, 1);
            setup_s.push(t.elapsed().as_secs_f64());
            match r {
                Ok(r) if refs.len() == b => refs.push(r),
                Ok(r) => out.check(r == refs[b], || {
                    format!("batch {b}: sequential reference differs on repetition")
                }),
                Err(e) => {
                    out.attempted += 1;
                    out.failed += 1;
                    out.check(false, || format!("set-up failed: {e}"));
                    return out;
                }
            }
        }

        // Timed part: one cycle of the fixed work.
        let cycle = cycle_s.len();
        let mut wall = 0.0;
        for (b, refs) in refs.iter().enumerate() {
            out.attempted += 1;
            let t = Instant::now();
            let r = label_batch(
                &mut untraced,
                &domain,
                opts.seed,
                b,
                CALL_ROWS,
                opts.threads,
            );
            let secs = t.elapsed().as_secs_f64();
            let ds = match r {
                Ok(ds) => ds,
                Err(e) => {
                    out.failed += 1;
                    out.check(false, || e);
                    return out;
                }
            };
            wall += secs;
            batch_s.push(secs);
            if cycle == 0 {
                for (r, half) in refs.iter().zip(&ds) {
                    out.check(is_prefix_of(r, half), || {
                        format!("batch {b}: parallel rows differ from the sequential prefix")
                    });
                    for (c, n) in classes.iter_mut().zip(half.class_counts()) {
                        *c += n;
                    }
                }
                digests[b] = digest(&ds);
            } else {
                out.check(digest(&ds) == digests[b], || {
                    format!("cycle {cycle}, batch {b}: labels differ from cycle 0")
                });
            }
        }
        cycle_s.push(wall);
    }

    out.check(classes.iter().all(|&c| c > 0), || {
        format!("labels hold one class only: {classes:?}")
    });
    let mut d = Digest::new();
    for v in digests {
        d.u64(v);
    }
    let batch_rows = 2 * CALL_ROWS;
    out.note(format!(
        "{} cycles of {CYCLE_BATCHES} label batches of {batch_rows} rows, {CALL_ROWS} production-like and {CALL_ROWS} uniform (classes {classes:?} per cycle), {} threads",
        cycle_s.len(),
        opts.threads
    ));
    out.note(format!("label digest of one cycle: {:016x}", d.finish()));
    out.note(format!(
        "failed_frac {:.6} (ratio, {} failed of {} attempted label batches)",
        out.failed as f64 / out.attempted as f64,
        out.failed,
        out.attempted
    ));
    e2e_metrics(
        &mut out,
        &E2e {
            wall_s: &cycle_s,
            setup_s: &setup_s,
            round_s: &batch_s,
            round_kind: "label batches",
            labelled_rows: (batch_rows * batch_s.len()) as f64,
            labelling_s: batch_s.iter().sum(),
            labels_kind: "label batches",
        },
    );
    if !opts.trace {
        return out;
    }

    // Traced pass: one set-up and one cycle again, each call in a span.
    let mut tr = Tracer::new(true);
    let t = Instant::now();
    let r0 = label_batch(&mut tr, &domain, opts.seed, 0, PREFIX_ROWS, 1);
    out.check(r0.as_ref().ok() == Some(&refs[0]), || {
        "traced set-up differs from the untraced one".into()
    });
    for (b, want) in digests.iter().enumerate() {
        tr.set_round(b as u64);
        let ds = label_batch(&mut tr, &domain, opts.seed, b, CALL_ROWS, opts.threads);
        out.check(ds.as_ref().map(digest).ok() == Some(*want), || {
            format!("traced batch {b} differs from the untraced one")
        });
    }
    let walls = PassWalls {
        untraced_s: setup_s[0] + cycle_s[0],
        traced_s: t.elapsed().as_secs_f64(),
    };
    out.per_layer = layer_metrics(&tr, opts.threads, &walls);
    for line in self_time_table(&tr, walls.traced_s) {
        out.note(line);
    }
    out
}
