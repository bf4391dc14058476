//! The feedback workloads: repeated `run_strategy` rounds, timed with
//! tracing off, then replayed through the layers' own public functions
//! with every call in a span.
//!
//! * `scream_feedback`: Within-ALE, Cross-ALE and Uniform on small
//!   Scream-vs-rest data; the labeller is the network simulator.
//! * `firewall_feedback`: Within-ALE-Pool, Cross-ALE-Pool and QBC on
//!   generated firewall data; no simulator.

use crate::layers::{ale_evals, layer_metrics, netsim_call, self_time_table, PassWalls};
use crate::report::Outcome;
use crate::stats::median;
use crate::trace::{Layer, Tracer};
use crate::{e2e_metrics, mix, Digest, E2e, Opts};
use aml_automl::{AutoMl, AutoMlConfig, FittedAutoMl};
use aml_core::qbc::qbc_select;
use aml_core::uniform::uniform_sample;
use aml_core::{run_strategy, AleFeedback, AleMode, ExperimentConfig, Strategy, ThresholdRule};
use aml_dataset::split::{split_into_k, three_way_split};
use aml_dataset::Dataset;
use aml_fwgen::{generate, FwGenConfig};
use aml_models::metrics::balanced_accuracy;
use aml_models::Classifier;
use aml_netsim::datagen::{generate_dataset_mode, label_rows, SamplingMode};
use aml_netsim::ConditionDomain;
use std::cell::RefCell;
use std::time::Instant;

/// Master seed of the AutoML searches.
const SEARCH_SEED: u64 = 0x5EA2C4;

/// Uniform test rows of a `scream_feedback` set-up, split into
/// [`SCREAM_TEST_SETS`] test sets.
const SCREAM_TEST_ROWS: usize = 200;
const SCREAM_TEST_SETS: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Scream,
    Firewall,
}

/// One set-up's data.
#[derive(PartialEq)]
struct Instance {
    train: Dataset,
    pool: Option<Dataset>,
    tests: Vec<Dataset>,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Scream => "scream_feedback",
            Kind::Firewall => "firewall_feedback",
        }
    }

    /// The strategies of one episode, in order.
    fn strategies(self) -> &'static [Strategy] {
        match self {
            Kind::Scream => &[Strategy::WithinAle, Strategy::CrossAle, Strategy::Uniform],
            Kind::Firewall => &[
                Strategy::WithinAlePool,
                Strategy::CrossAlePool,
                Strategy::Qbc,
            ],
        }
    }

    /// Set-ups per run, each on its own data. One cycle of the fixed work
    /// is one episode (a round of every strategy) on each of them.
    fn setup_reps(self) -> usize {
        match self {
            Kind::Scream => 3,
            Kind::Firewall => 2,
        }
    }

    /// Times a set-up is rebuilt, timed and checked, before each round on
    /// it. A set-up that takes a millisecond is rebuilt many times across
    /// the whole run, so that `setup_s` is a median of warm timings spread
    /// over the same stretch of time as `wall_s`.
    fn rebuilds_per_round(self) -> usize {
        match self {
            Kind::Scream => 0,
            Kind::Firewall => 100,
        }
    }

    /// Experiment configuration of the episodes on set-up `rep`, sized as
    /// the `--quick` scale of `table1_scream` and `table2_firewall`. The
    /// search seed depends on the set-up index only, so every run
    /// searches the same candidate sequences and `--seed` varies the data
    /// alone.
    fn config(self, rep: usize, threads: usize) -> ExperimentConfig {
        let (n_candidates, n_feedback_points, ale) = match self {
            Kind::Scream => (
                16,
                60,
                AleFeedback {
                    threshold: ThresholdRule::QuantileStd(0.75),
                    ..Default::default()
                },
            ),
            Kind::Firewall => (
                12,
                100,
                AleFeedback {
                    threshold: ThresholdRule::PerFeatureQuantile(0.85),
                    target_class: 0,
                    ..Default::default()
                },
            ),
        };
        ExperimentConfig {
            automl: AutoMlConfig {
                n_candidates,
                parallelism: threads,
                ..Default::default()
            },
            n_feedback_points,
            n_cross_runs: 3,
            ale,
            seed: mix(SEARCH_SEED, rep as u64),
        }
    }

    /// Generate the data of set-up `rep`, each layer call in a span.
    fn instance(
        self,
        tr: &mut Tracer,
        seed: u64,
        rep: usize,
        threads: usize,
    ) -> Result<Instance, String> {
        let s = mix(seed, 0x5E7_0000 + rep as u64);
        match self {
            Kind::Scream => {
                let domain = ConditionDomain::default();
                let n = 200;
                let train = netsim_call(tr, "netsim.generate", n, || {
                    generate_dataset_mode(&domain, n, s, threads, SamplingMode::Production)
                })?;
                let n = SCREAM_TEST_ROWS;
                let test = netsim_call(tr, "netsim.generate", n, || {
                    generate_dataset_mode(&domain, n, s ^ 0x7E57, threads, SamplingMode::Uniform)
                })?;
                let tests = tr
                    .span(Layer::Dataset, "dataset.split", || {
                        split_into_k(&test, SCREAM_TEST_SETS, s)
                    })
                    .map_err(|e| e.to_string())?;
                Ok(Instance {
                    train,
                    pool: None,
                    tests,
                })
            }
            Kind::Firewall => {
                let n = 3_000;
                let full = tr
                    .span(Layer::Fwgen, "fwgen.generate", || {
                        generate(&FwGenConfig {
                            n,
                            seed: s,
                            priors: None,
                        })
                    })
                    .map_err(|e| e.to_string())?;
                tr.count("fwgen.rows", n as f64);
                let (train, test, pool) = tr
                    .span(Layer::Dataset, "dataset.split", || {
                        three_way_split(&full, 0.4, 0.2, s)
                    })
                    .map_err(|e| e.to_string())?;
                let tests = tr
                    .span(Layer::Dataset, "dataset.split", || {
                        split_into_k(&test, 6, s)
                    })
                    .map_err(|e| e.to_string())?;
                Ok(Instance {
                    train,
                    pool: Some(pool),
                    tests,
                })
            }
        }
    }
}

/// The simulator as the labelling oracle of one episode.
struct Oracle {
    domain: ConditionDomain,
    seed: u64,
    threads: usize,
}

impl Oracle {
    /// The labeller of the episodes on set-up `rep`.
    fn new(opts: &Opts, rep: usize) -> Self {
        Oracle {
            domain: ConditionDomain::default(),
            seed: mix(opts.seed, 0x04AC_1E00 + rep as u64),
            threads: opts.threads,
        }
    }

    fn label(&self, tr: &mut Tracer, rows: &[Vec<f64>]) -> Result<Dataset, String> {
        netsim_call(tr, "netsim.label_rows", rows.len(), || {
            label_rows(rows, &self.domain, self.seed, self.threads)
        })
    }
}

/// What a round produced; the replay must reproduce it bit for bit.
#[derive(Debug, Clone, PartialEq)]
struct RoundResult {
    scores: Vec<f64>,
    points_added: usize,
}

impl RoundResult {
    fn same_bits(&self, other: &RoundResult) -> bool {
        self.points_added == other.points_added
            && self.scores.len() == other.scores.len()
            && self
                .scores
                .iter()
                .zip(&other.scores)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

/// `AutoMl::fit` as `run_strategy` calls it: the config's AutoML settings
/// with the seed derived from the experiment seed and `salt`.
fn fit(
    tr: &mut Tracer,
    cfg: &ExperimentConfig,
    train: &Dataset,
    salt: u64,
) -> Result<FittedAutoMl, String> {
    let ac = AutoMlConfig {
        seed: mix(cfg.seed, salt),
        ..cfg.automl.clone()
    };
    let trials = ac.n_candidates as f64;
    let model = tr
        .span(Layer::Automl, "automl.fit", || AutoMl::new(ac).fit(train))
        .map_err(|e| e.to_string())?;
    tr.count("automl.trials", trials);
    tr.count(
        "automl.trials_failed",
        trials - model.leaderboard().len() as f64,
    );
    tr.count("automl.members", model.ensemble().members().len() as f64);
    tr.count("automl.row_trials", train.n_rows() as f64 * trials);
    Ok(model)
}

/// Keep only rows whose values are all finite, as `run_strategy` does
/// before it hands suggested rows to the oracle.
fn finite_rows(rows: Vec<Vec<f64>>) -> Vec<Vec<f64>> {
    rows.into_iter()
        .filter(|r| r.iter().all(|v| v.is_finite()))
        .collect()
}

/// One round of `strategy` through the layers' public functions, in the
/// order and with the seeds `run_strategy` uses.
fn replay_round(
    tr: &mut Tracer,
    strategy: Strategy,
    cfg: &ExperimentConfig,
    inst: &Instance,
    oracle: Option<&Oracle>,
) -> Result<RoundResult, String> {
    let train = &inst.train;
    let n = cfg.n_feedback_points;
    let mut augmented = tr.span(Layer::Dataset, "dataset.clone", || train.clone());
    let pool = || inst.pool.as_ref().ok_or("strategy needs a pool");
    let need_oracle = || oracle.ok_or("strategy needs an oracle");
    let add = |tr: &mut Tracer, augmented: &mut Dataset, rows: &Dataset| {
        tr.span(Layer::Dataset, "dataset.extend", || augmented.extend(rows))
            .map_err(|e| e.to_string())
    };
    match strategy {
        Strategy::WithinAle
        | Strategy::CrossAle
        | Strategy::WithinAlePool
        | Strategy::CrossAlePool => {
            let mode = match strategy {
                Strategy::WithinAle | Strategy::WithinAlePool => AleMode::Within,
                _ => AleMode::Cross,
            };
            let n_runs = if mode == AleMode::Cross {
                cfg.n_cross_runs.max(2)
            } else {
                1
            };
            let runs = (0..n_runs)
                .map(|r| fit(tr, cfg, train, 100 + r as u64))
                .collect::<Result<Vec<_>, _>>()?;
            let ale = AleFeedback {
                mode,
                ..cfg.ale.clone()
            };
            let analysis = tr
                .span(Layer::Interpret, "interpret.analyze", || {
                    ale.analyze(&runs, train)
                })
                .map_err(|e| e.to_string())?;
            let committee = match mode {
                AleMode::Within => runs[0].ensemble().members().len(),
                AleMode::Cross => runs.len(),
            };
            tr.count(
                "interpret.ale_evals",
                ale_evals(train.n_rows(), train.n_features(), committee) as f64,
            );
            tr.count(
                "interpret.flagged_intervals",
                analysis.n_intervals_flagged() as f64,
            );
            if matches!(strategy, Strategy::WithinAle | Strategy::CrossAle) {
                let rows = tr
                    .span(Layer::Core, "core.select", || {
                        ale.suggest_points(&analysis, train, n, mix(cfg.seed, 7))
                            .map(finite_rows)
                    })
                    .map_err(|e| e.to_string())?;
                if !rows.is_empty() {
                    let labelled = need_oracle()?.label(tr, &rows)?;
                    add(tr, &mut augmented, &labelled)?;
                }
            } else {
                let pool = pool()?;
                let picked = tr
                    .span(Layer::Core, "core.select", || {
                        ale.suggest_from_pool(&analysis, pool, n)
                    })
                    .map_err(|e| e.to_string())?;
                let subset = tr
                    .span(Layer::Dataset, "dataset.subset", || pool.subset(&picked))
                    .map_err(|e| e.to_string())?;
                add(tr, &mut augmented, &subset)?;
            }
        }
        Strategy::Uniform => {
            let rows = tr
                .span(Layer::Core, "core.select", || {
                    uniform_sample(train, n, mix(cfg.seed, 8)).map(finite_rows)
                })
                .map_err(|e| e.to_string())?;
            if !rows.is_empty() {
                let labelled = need_oracle()?.label(tr, &rows)?;
                add(tr, &mut augmented, &labelled)?;
            }
        }
        Strategy::Qbc => {
            let run = fit(tr, cfg, train, 300)?;
            let pool = pool()?;
            let picked = tr
                .span(Layer::Core, "core.select", || {
                    qbc_select(run.ensemble(), pool, n)
                })
                .map_err(|e| e.to_string())?;
            let subset = tr
                .span(Layer::Dataset, "dataset.subset", || pool.subset(&picked))
                .map_err(|e| e.to_string())?;
            add(tr, &mut augmented, &subset)?;
        }
        other => {
            return Err(format!(
                "{} is not replayed by this benchmark",
                other.name()
            ))
        }
    }
    let points_added = augmented.n_rows() - train.n_rows();
    let model = fit(tr, cfg, &augmented, 0xF17)?;
    let scores = inst
        .tests
        .iter()
        .map(|ts| {
            let preds = tr
                .span(Layer::Models, "models.predict", || model.predict(ts))
                .map_err(|e| e.to_string())?;
            tr.count("models.predict_rows", ts.n_rows() as f64);
            tr.span(Layer::Models, "models.score", || {
                balanced_accuracy(ts.labels(), &preds, ts.n_classes())
            })
            .map_err(|e| e.to_string())
        })
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(RoundResult {
        scores,
        points_added,
    })
}

/// One untraced round.
struct Round {
    strategy: Strategy,
    /// Set-up the round ran on.
    rep: usize,
    secs: f64,
    result: RoundResult,
}

pub fn run(kind: Kind, opts: &Opts) -> Outcome {
    let mut out = Outcome::new(kind.name());
    let mut untraced = Tracer::new(false);

    let mut instances: Vec<Instance> = Vec::new();
    let mut setup_s = Vec::new();
    let mut set_up = |rep: usize| {
        let t = Instant::now();
        let inst = kind.instance(&mut untraced, opts.seed, rep, opts.threads);
        setup_s.push(t.elapsed().as_secs_f64());
        inst.map_err(|e| format!("set-up {rep} failed: {e}"))
    };
    for rep in 0..kind.setup_reps() {
        match set_up(rep) {
            Ok(i) => instances.push(i),
            Err(e) => {
                out.attempted += 1;
                out.failed += 1;
                out.check(false, || e);
                return out;
            }
        }
    }
    let needs_oracle = kind.strategies().iter().any(Strategy::needs_labeler);

    // Untraced pass: whole cycles while another one fits in the budget.
    // Every cycle runs the same episodes and must reproduce cycle 0.
    let budget = opts.pass_budget().as_secs_f64();
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut cycle_s: Vec<f64> = Vec::new();
    // Rows and seconds of every call into the simulator's labeller.
    let label_calls: RefCell<Vec<(usize, f64)>> = RefCell::new(Vec::new());
    let cycle_rounds = kind.setup_reps() * kind.strategies().len();
    while cycle_s.is_empty()
        || start.elapsed().as_secs_f64() + cycle_s.iter().sum::<f64>() / cycle_s.len() as f64
            <= budget
    {
        let cycle = cycle_s.len();
        let mut wall = 0.0;
        for (rep, inst) in instances.iter().enumerate() {
            let cfg = kind.config(rep, opts.threads);
            let o = Oracle::new(opts, rep);
            let labeler = |rows: &[Vec<f64>]| -> aml_core::Result<Dataset> {
                let t = Instant::now();
                let r = label_rows(rows, &o.domain, o.seed, o.threads)
                    .map_err(|e| aml_core::CoreError::InvalidParameter(e.to_string()));
                label_calls
                    .borrow_mut()
                    .push((rows.len(), t.elapsed().as_secs_f64()));
                r
            };
            for &strategy in kind.strategies() {
                for _ in 0..kind.rebuilds_per_round() {
                    match set_up(rep) {
                        Ok(i) => {
                            out.check(i == *inst, || format!("set-up {rep} differs on repetition"))
                        }
                        Err(e) => {
                            out.attempted += 1;
                            out.failed += 1;
                            out.check(false, || e);
                            return out;
                        }
                    }
                }
                out.attempted += 1 + cfg.automl.n_candidates as u64;
                let t = Instant::now();
                let r = run_strategy(
                    strategy,
                    &cfg,
                    &inst.train,
                    inst.pool.as_ref(),
                    needs_oracle.then_some(&labeler as &dyn aml_core::Labeler),
                    &inst.tests,
                );
                let secs = t.elapsed().as_secs_f64();
                wall += secs;
                let o = match r {
                    Ok(o) => o,
                    Err(e) => {
                        out.failed += 1;
                        out.check(false, || {
                            format!("cycle {cycle}, set-up {rep}, {}: {e}", strategy.name())
                        });
                        return out;
                    }
                };
                // run_strategy exposes only the refit's leaderboard; the
                // traced replay checks the trials of every fit.
                out.failed += (cfg.automl.n_candidates - o.model.leaderboard().len()) as u64;
                let result = RoundResult {
                    scores: o.scores,
                    points_added: o.n_points_added,
                };
                if cycle > 0 {
                    let first = &rounds[rounds.len() % cycle_rounds];
                    out.check(result.same_bits(&first.result), || {
                        format!(
                            "cycle {cycle}, set-up {rep}, {}: {result:?} differs from cycle 0 {:?}",
                            strategy.name(),
                            first.result
                        )
                    });
                }
                rounds.push(Round {
                    strategy,
                    rep,
                    secs,
                    result,
                });
            }
        }
        cycle_s.push(wall);
    }
    let label_calls = label_calls.into_inner();
    out.attempted += label_calls.len() as u64;

    // Digest and balanced accuracy over one cycle: the fixed work.
    let first = &rounds[..cycle_rounds];
    let mut d = Digest::new();
    for r in first {
        d.u64(r.result.points_added as u64);
        for s in &r.result.scores {
            d.f64(*s);
        }
    }
    let scores: Vec<f64> = first.iter().flat_map(|r| r.result.scores.clone()).collect();
    let bacc_mean = scores.iter().sum::<f64>() / scores.len() as f64;
    let points: usize = first.iter().map(|r| r.result.points_added).sum();
    let round_s: Vec<f64> = rounds.iter().map(|r| r.secs).collect();
    for &strategy in kind.strategies() {
        let secs: Vec<f64> = rounds
            .iter()
            .filter(|r| r.strategy == strategy)
            .map(|r| r.secs)
            .collect();
        out.note(format!(
            "{:<16} median round {:.4} s over {} rounds",
            strategy.name(),
            median(&secs).unwrap_or(f64::NAN),
            secs.len()
        ));
    }
    let labelled: usize = label_calls.iter().map(|c| c.0).sum();
    out.note(format!(
        "{} cycles of {} set-ups x {} rounds ({}), {} threads; {points} points added per cycle; {labelled} rows labelled by the simulator in {} calls",
        cycle_s.len(),
        kind.setup_reps(),
        kind.strategies().len(),
        kind.strategies().iter().map(|s| s.name()).collect::<Vec<_>>().join(", "),
        opts.threads,
        label_calls.len(),
    ));
    out.note(format!(
        "digest of points added and scores over one cycle: {:016x}",
        d.finish()
    ));
    out.note(format!(
        "bacc_mean {bacc_mean:.6} (fraction, mean balanced accuracy over {} test-set scores of one cycle)",
        scores.len()
    ));
    // With a simulator, labels_per_s is the labeller's throughput; without
    // one, the pool points the rounds reveal per second of the rounds.
    let (labelled_rows, labelling_s, labels_kind) = if label_calls.is_empty() {
        (
            rounds.iter().map(|r| r.result.points_added as f64).sum(),
            round_s.iter().sum(),
            "feedback rounds",
        )
    } else {
        (
            label_calls.iter().map(|c| c.0 as f64).sum(),
            label_calls.iter().map(|c| c.1).sum(),
            "labeller calls",
        )
    };
    e2e_metrics(
        &mut out,
        &E2e {
            wall_s: &cycle_s,
            setup_s: &setup_s,
            round_s: &round_s,
            round_kind: "feedback rounds",
            labelled_rows,
            labelling_s,
            labels_kind,
        },
    );
    if opts.trace {
        trace_cycle(
            kind,
            opts,
            &mut out,
            &instances,
            first,
            setup_s[0] + cycle_s[0],
        );
    }
    out.note(format!(
        "failed_frac {:.6} (ratio, {} failed of {} attempted rounds, label calls and AutoML trials: the refits' trials untraced, every fit's trials in the traced replay)",
        out.failed as f64 / out.attempted as f64,
        out.failed,
        out.attempted
    ));
    out
}

/// Traced pass: one set-up, then the rounds of one cycle replayed through
/// the layers' own functions; each must reproduce `run_strategy` bit for
/// bit. `untraced_s` is the untraced wall of the same work.
fn trace_cycle(
    kind: Kind,
    opts: &Opts,
    out: &mut Outcome,
    instances: &[Instance],
    rounds: &[Round],
    untraced_s: f64,
) {
    let mut tr = Tracer::new(true);
    let t = Instant::now();
    let traced_setup = kind.instance(&mut tr, opts.seed, 0, opts.threads);
    out.check(traced_setup.as_ref().ok() == Some(&instances[0]), || {
        "traced set-up differs from the untraced one".into()
    });
    let needs_oracle = kind.strategies().iter().any(Strategy::needs_labeler);
    for (i, round) in rounds.iter().enumerate() {
        tr.set_round(i as u64);
        let cfg = kind.config(round.rep, opts.threads);
        let o = Oracle::new(opts, round.rep);
        tr.open(Layer::Core, "core.round");
        let replayed = replay_round(
            &mut tr,
            round.strategy,
            &cfg,
            &instances[round.rep],
            needs_oracle.then_some(&o),
        );
        tr.close();
        tr.count("core.rounds", 1.0);
        match replayed {
            Ok(r) => {
                tr.count("core.points_added", r.points_added as f64);
                for s in &r.scores {
                    tr.sample("core.bacc", *s);
                }
                out.check(r.same_bits(&round.result), || {
                    format!(
                        "round {i} ({}, set-up {}): replay {:?} differs from run_strategy {:?}",
                        round.strategy.name(),
                        round.rep,
                        r,
                        round.result
                    )
                });
            }
            Err(e) => out.check(false, || format!("replay of round {i} failed: {e}")),
        }
    }
    let walls = PassWalls {
        untraced_s,
        traced_s: t.elapsed().as_secs_f64(),
    };
    out.attempted += tr.counter("automl.trials") as u64;
    out.failed += tr.counter("automl.trials_failed") as u64;
    out.per_layer = layer_metrics(&tr, opts.threads, &walls);
    for line in self_time_table(&tr, walls.traced_s) {
        out.note(line);
    }
}
