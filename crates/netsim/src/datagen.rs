//! Dataset generation: sample network conditions, simulate, label.
//!
//! This is the simulator-backed replacement for the paper's Pantheon data
//! collection ("Because we collect the data through emulation, we can
//! easily collect any additional data the feedback solution specifies") —
//! and that last property is the crucial one: [`label_rows`] can label
//! *arbitrary* feature points, which is what lets the ALE feedback sample
//! freely from suggested regions instead of being confined to a candidate
//! pool.

use crate::runner::label_condition;
use crate::scenario::{ConditionDomain, NetworkCondition};
use crate::Result;
use aml_dataset::Dataset;
use aml_rng::rngs::StdRng;
use aml_rng::SeedableRng;

/// Version of the generated data. Bump it in any change that alters the rows
/// or labels a given (domain, sampling mode, n, seed) produces — simulator
/// semantics, protocols, condition sampling or seed derivation — so that
/// dataset caches keyed on it miss instead of serving stale data.
///
/// Version 2 is the analytic bottleneck link of [`crate::sim`]: a packet
/// that starts service exactly when another arrives counts as in service,
/// which decides drops differently where the queue is full.
pub const GENERATOR_VERSION: u32 = 2;

/// SplitMix64 per-sample seed derivation.
fn derive_seed(master: u64, index: u64) -> u64 {
    let mut z = master ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Label one scenario under its own traced span, recording the
/// per-scenario cost histogram (`datagen.scenario_ns`) and the
/// `datagen.scenarios_total` counter. [`label_conditions`] attaches the
/// span under `netsim.labeling` with the *scenario index* as the slot,
/// whichever worker thread runs it, so sequential and parallel runs build
/// byte-identical trace trees.
fn label_scenario(index: u64, condition: NetworkCondition, master_seed: u64) -> Result<bool> {
    let _span = aml_telemetry::span!("netsim.scenario");
    let started = aml_telemetry::maybe_now();
    let label = label_condition(condition, derive_seed(master_seed, index));
    if let Some(t) = started {
        aml_telemetry::histogram_record("datagen.scenario_ns", t.elapsed().as_nanos() as u64);
        aml_telemetry::counter_add("datagen.scenarios_total", 1);
    }
    label
}

/// Label one batch of conditions with up to `parallelism` threads, which
/// claim scenarios one at a time so a heavy-tailed scenario holds up one
/// worker, not a static chunk. Output order matches input order; each
/// condition gets an independent derived seed so results don't depend on
/// batch composition. A worker's panic is re-raised here with its message.
pub fn label_conditions(
    conditions: &[NetworkCondition],
    master_seed: u64,
    parallelism: usize,
) -> Result<Vec<bool>> {
    let _span = aml_telemetry::span!("netsim.labeling");
    aml_telemetry::counter_add("netsim.labels", conditions.len() as u64);
    let jobs: Vec<(u64, NetworkCondition)> = conditions
        .iter()
        .enumerate()
        .map(|(i, &c)| (i as u64, c))
        .collect();
    let ctx = aml_telemetry::TraceContext::current();
    let labels = aml_telemetry::tracetree::par_map(ctx, parallelism, jobs, |i, c| {
        label_scenario(i, c, master_seed)
    })
    .unwrap_or_else(|message| std::panic::resume_unwind(Box::new(message)));
    // The first error in index order, as a sequential run would report.
    labels.into_iter().collect()
}

/// How conditions are drawn from the domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplingMode {
    /// Uniform over the domain (the candidate-pool distribution).
    Uniform,
    /// Production-like, biased toward typical operating points
    /// ([`ConditionDomain::sample_production`]) — how an operator's
    /// training/test data is actually collected.
    Production,
}

/// Generate `n` uniformly sampled, simulator-labelled samples.
pub fn generate_dataset(
    domain: &ConditionDomain,
    n: usize,
    seed: u64,
    parallelism: usize,
) -> Result<Dataset> {
    generate_dataset_mode(domain, n, seed, parallelism, SamplingMode::Uniform)
}

/// Generate `n` simulator-labelled samples with the given sampling mode.
pub fn generate_dataset_mode(
    domain: &ConditionDomain,
    n: usize,
    seed: u64,
    parallelism: usize,
    mode: SamplingMode,
) -> Result<Dataset> {
    let mut rng = StdRng::seed_from_u64(seed);
    let conditions: Vec<NetworkCondition> = (0..n)
        .map(|_| match mode {
            SamplingMode::Uniform => domain.sample(&mut rng),
            SamplingMode::Production => domain.sample_production(&mut rng),
        })
        .collect();
    let labels = label_conditions(&conditions, seed ^ 0xDA7A, parallelism)?;
    let mut ds = domain.empty_dataset()?;
    for (c, &scream_wins) in conditions.iter().zip(&labels) {
        ds.push_row(&c.to_row(), usize::from(scream_wins))?;
    }
    Ok(ds)
}

/// Label arbitrary feature rows (the feedback loop's "collect the data the
/// feedback solution specifies" step). Rows are clamped into validity by
/// [`NetworkCondition::from_row`].
pub fn label_rows(
    rows: &[Vec<f64>],
    domain: &ConditionDomain,
    seed: u64,
    parallelism: usize,
) -> Result<Dataset> {
    let conditions: Vec<NetworkCondition> = rows
        .iter()
        .map(|r| NetworkCondition::from_row(r))
        .collect::<Result<_>>()?;
    let labels = label_conditions(&conditions, seed, parallelism)?;
    let mut ds = domain.empty_dataset()?;
    for (c, &scream_wins) in conditions.iter().zip(&labels) {
        ds.push_row(&c.to_row(), usize::from(scream_wins))?;
    }
    Ok(ds)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_domain() -> ConditionDomain {
        // Narrow + low-rate domain keeps unit tests fast.
        ConditionDomain {
            link_rate: (2.0, 10.0),
            rtt: (20.0, 60.0),
            loss: (0.0, 0.04),
            flows: (1, 2),
        }
    }

    #[test]
    fn generates_requested_size_with_schema() {
        let ds = generate_dataset(&small_domain(), 12, 3, 1).unwrap();
        assert_eq!(ds.n_rows(), 12);
        assert_eq!(ds.n_features(), 4);
        assert_eq!(
            ds.class_names(),
            &["rest".to_string(), "scream".to_string()]
        );
    }

    #[test]
    fn deterministic_and_parallel_consistent() {
        let a = generate_dataset(&small_domain(), 10, 7, 1).unwrap();
        let b = generate_dataset(&small_domain(), 10, 7, 4).unwrap();
        assert_eq!(a, b, "parallel labeling must match sequential");
    }

    #[test]
    fn both_classes_appear_across_the_domain() {
        // The domain spans clean (Scream-friendly) and lossy
        // (Scream-hostile) regimes, so a moderate sample hits both labels.
        let ds = generate_dataset(&small_domain(), 24, 11, 4).unwrap();
        let counts = ds.class_counts();
        assert!(
            counts[0] > 0 && counts[1] > 0,
            "expected both classes, got {counts:?}"
        );
    }

    #[test]
    fn production_mode_generates_valid_dataset() {
        use super::SamplingMode;
        let ds =
            generate_dataset_mode(&small_domain(), 10, 5, 1, SamplingMode::Production).unwrap();
        assert_eq!(ds.n_rows(), 10);
        // Deterministic too.
        let ds2 =
            generate_dataset_mode(&small_domain(), 10, 5, 1, SamplingMode::Production).unwrap();
        assert_eq!(ds, ds2);
    }

    #[test]
    fn label_rows_accepts_raw_feature_points() {
        let rows = vec![vec![5.0, 40.0, 0.0, 1.0], vec![5.0, 40.0, 0.04, 1.0]];
        let ds = label_rows(&rows, &small_domain(), 5, 1).unwrap();
        assert_eq!(ds.n_rows(), 2);
        assert_eq!(ds.row(0)[0], 5.0);
    }

    #[test]
    fn scenario_trace_trees_match_across_worker_counts() {
        use aml_telemetry::tracetree;

        let domain = small_domain();
        let mut rng = aml_rng::rngs::StdRng::seed_from_u64(3);
        let conditions: Vec<NetworkCondition> = (0..6).map(|_| domain.sample(&mut rng)).collect();

        // Other tests in this binary may label concurrently once the
        // level flips on, so each collection is wrapped in a uniquely
        // named root span and compared subtree-to-subtree.
        let subtree_of = |nodes: &[tracetree::Node], root: &str| {
            let root_id = nodes.iter().find(|n| n.name == root).map(|n| n.id)?;
            let mut keep = std::collections::HashSet::from([root_id]);
            loop {
                let before = keep.len();
                for n in nodes {
                    if keep.contains(&n.parent) {
                        keep.insert(n.id);
                    }
                }
                if keep.len() == before {
                    break;
                }
            }
            let mut s: Vec<(u64, u64, String, bool)> = nodes
                .iter()
                .filter(|n| keep.contains(&n.id))
                .map(|n| (n.id, n.parent, n.name.clone(), n.parallel))
                .collect();
            s.sort();
            Some(s)
        };
        let run = |parallelism: usize| {
            tracetree::reset();
            tracetree::set_active(true);
            {
                let _wrap = aml_telemetry::span!("test.datagen.wrap");
                label_conditions(&conditions, 0x5eed, parallelism).unwrap();
            }
            tracetree::set_active(false);
            let nodes = tracetree::entries();
            let sub = subtree_of(&nodes, "test.datagen.wrap").unwrap();
            tracetree::reset();
            sub
        };

        aml_telemetry::set_level(aml_telemetry::TelemetryLevel::Summary);
        let one = run(1);
        let four = run(4);
        aml_telemetry::set_level(aml_telemetry::TelemetryLevel::Off);

        assert_eq!(one, four, "trace tree must not depend on worker count");
        let scenarios = one.iter().filter(|(_, _, n, _)| n == "netsim.scenario");
        assert_eq!(scenarios.clone().count(), conditions.len());
        assert!(scenarios.clone().all(|(_, _, _, par)| *par));
        let labeling = one
            .iter()
            .find(|(_, _, n, _)| n == "netsim.labeling")
            .unwrap();
        assert!(scenarios
            .clone()
            .all(|(_, parent, _, _)| *parent == labeling.0));
    }

    #[test]
    fn order_independence_of_labels() {
        // Each sample's seed is derived from its index, but the *simulation*
        // outcome depends only on (condition, derived seed): labeling the
        // same condition at the same index twice matches.
        let rows = vec![vec![6.0, 30.0, 0.01, 1.0]; 3];
        let a = label_rows(&rows, &small_domain(), 9, 1).unwrap();
        let b = label_rows(&rows, &small_domain(), 9, 2).unwrap();
        assert_eq!(a.labels(), b.labels());
    }
}
