//! Protocol comparison and labeling — the simulator-side replacement for
//! "use the Pantheon emulator to get the target performance (label) for a
//! given network condition".
//!
//! ## The label rule
//!
//! The running example asks: *"identify whether the application should use
//! Scream to achieve the lowest end-to-end latency given the current
//! network conditions."* Latency alone would make Scream trivially optimal
//! (a protocol targeting a 50 ms queue delay almost always has the lowest
//! delay), so — like any sane operator — we require a **minimum useful
//! throughput** first: a protocol qualifies only if it achieves at least
//! [`MIN_USEFUL_FRACTION`] of the bottleneck capacity. Among qualifying
//! protocols the one with the lowest mean packet delay wins; if none
//! qualifies (pathological conditions) the highest-throughput protocol
//! wins. The label is `1` ("scream") iff Scream wins.
//!
//! This produces the non-trivial decision surface of Figure 1: Scream wins
//! in deep-buffer/low-loss regimes and loses where random loss or extreme
//! BDPs collapse its throughput.
//!
//! The rule is one pairwise relation, `beats`, a strict total order on
//! results: a qualifier (with a finite delay) beats a non-qualifier;
//! between qualifiers the lower delay wins and a delay tie goes to the
//! earlier [`CcKind::ALL`] index; between non-qualifiers the higher
//! throughput wins and a tie goes to the later index. [`winner_index`] is
//! its maximum.
//!
//! [`label_condition`] needs only whether Scream is that maximum, so it
//! simulates in `LABEL_ORDER`: Scream first, then the five rivals one at
//! a time, and answers `false` as soon as a rival beats Scream. A Scream
//! win runs all six simulations; a loss runs six only when BBR, simulated
//! last, is the first rival to beat Scream. Each protocol keeps the seed
//! [`run_all`] gives it, derived from its index in [`CcKind::ALL`] (not
//! its place in the order), and the campaign's latent buffer, so every
//! label equals `winner_index(&run_all(..))` bit for bit. A simulation
//! that is never run cannot fail a label: an error from a rival after one
//! has already beaten Scream is never seen.

use crate::cc::CcKind;
use crate::scenario::NetworkCondition;
use crate::sim::{SimConfig, SimOutcome, Simulation};
use crate::Result;

/// Fraction of the link a protocol must utilize to qualify.
pub const MIN_USEFUL_FRACTION: f64 = 0.4;

/// Range of the **latent** bottleneck buffer depth, in BDP multiples.
///
/// The paper's toy problem notes the right protocol "depends on the
/// properties of the network (e.g., queue sizes, bottleneck bandwidths,
/// ...)" — yet queue size is *not* one of the four features the operator
/// measures. Each measurement campaign therefore runs against a buffer
/// depth drawn from this range (deterministically from the measurement
/// seed): where the winner is buffer-sensitive, repeated measurements of
/// the same observable condition genuinely disagree. That structured,
/// irreducible ambiguity is what gives the learning problem its headroom —
/// and gives the ALE committee something real to disagree about.
pub const LATENT_QUEUE_BDP: (f64, f64) = (0.5, 3.0);

/// SplitMix64 → unit interval (the latent-buffer draw).
fn unit_hash(seed: u64) -> f64 {
    let mut z = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// The latent buffer depth (BDP multiples) of measurement campaign `seed`.
pub fn latent_queue_mult(seed: u64) -> f64 {
    LATENT_QUEUE_BDP.0 + (LATENT_QUEUE_BDP.1 - LATENT_QUEUE_BDP.0) * unit_hash(seed)
}

/// Outcome of one protocol on one condition.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolResult {
    /// The protocol.
    pub protocol: CcKind,
    /// Total goodput (Mbit/s).
    pub throughput_mbps: f64,
    /// Mean one-way delay (ms).
    pub mean_delay_ms: f64,
    /// 95th-percentile one-way delay (ms).
    pub p95_delay_ms: f64,
    /// Whether the protocol reached the minimum useful throughput.
    pub qualifies: bool,
}

/// Run one simulation and judge its throughput against the label rule's
/// [`MIN_USEFUL_FRACTION`] of the configured link.
pub fn run_config(cfg: SimConfig) -> Result<ProtocolResult> {
    let (protocol, link_rate_mbps) = (cfg.protocol, cfg.condition.link_rate_mbps);
    let outcome: SimOutcome = Simulation::new(cfg)?.run()?;
    Ok(ProtocolResult {
        protocol,
        throughput_mbps: outcome.total_throughput_mbps,
        mean_delay_ms: outcome.mean_delay_ms,
        p95_delay_ms: outcome.p95_delay_ms,
        qualifies: outcome.total_throughput_mbps >= MIN_USEFUL_FRACTION * link_rate_mbps,
    })
}

/// Run one protocol on one condition with an explicit buffer depth.
pub fn run_protocol_with_queue(
    protocol: CcKind,
    condition: NetworkCondition,
    queue_bdp_mult: f64,
    seed: u64,
) -> Result<ProtocolResult> {
    let mut cfg = SimConfig::for_condition(condition, protocol, seed);
    cfg.queue_bdp_mult = queue_bdp_mult;
    run_config(cfg)
}

/// The seed of protocol `CcKind::ALL[index]` in measurement campaign
/// `seed`: the loss pattern is the protocol's own, independent of which
/// other protocols run.
pub fn protocol_seed(seed: u64, index: usize) -> u64 {
    seed ^ ((index as u64 + 1) * 0x9E37)
}

/// Run all six protocols on a condition. The latent buffer depth is drawn
/// once per campaign (same path for every protocol — they race on the same
/// network); loss patterns are protocol-independent via derived seeds.
pub fn run_all(condition: NetworkCondition, seed: u64) -> Result<Vec<ProtocolResult>> {
    let queue_mult = latent_queue_mult(seed);
    CcKind::ALL
        .iter()
        .enumerate()
        .map(|(i, &kind)| {
            run_protocol_with_queue(kind, condition, queue_mult, protocol_seed(seed, i))
        })
        .collect()
}

/// Whether `r`, at index `i`, beats `s`, at index `j` (indices into
/// [`CcKind::ALL`] order, `i != j`): the whole winner rule, as a strict
/// total order. A protocol that qualifies with a finite delay beats one
/// that does not. Between two such qualifiers the lower mean delay wins,
/// a tie going to the earlier index; between two non-qualifiers the higher
/// throughput wins, a tie going to the later index.
fn beats((i, r): (usize, &ProtocolResult), (j, s): (usize, &ProtocolResult)) -> bool {
    let useful = |p: &ProtocolResult| p.qualifies && p.mean_delay_ms.is_finite();
    match (useful(r), useful(s)) {
        (true, false) => true,
        (false, true) => false,
        (true, true) => {
            r.mean_delay_ms < s.mean_delay_ms || (r.mean_delay_ms == s.mean_delay_ms && i < j)
        }
        (false, false) => {
            r.throughput_mbps > s.throughput_mbps
                || (r.throughput_mbps == s.throughput_mbps && i > j)
        }
    }
}

/// Which protocol wins on a set of results (see the module docs for the
/// rule). Returns the winner's index into `results`. Ties go by position
/// in `results`, so pass them in [`CcKind::ALL`] order, as [`run_all`]
/// returns them.
pub fn winner_index(results: &[ProtocolResult]) -> usize {
    (1..results.len()).fold(0, |best, i| {
        if beats((i, &results[i]), (best, &results[best])) {
            i
        } else {
            best
        }
    })
}

/// The order [`label_condition`] simulates in: Scream, then its rivals.
/// Measured over 768 conditions drawn as the `scream_datagen` benchmark
/// draws them, this was the cheapest of the 120 rival orders (about 40%
/// of the simulation time of running all six): Cubic and Copa beat
/// Scream most often for what they cost, and BBR, which pops about five
/// times the events of any other protocol, runs last.
const LABEL_ORDER: [CcKind; 6] = [
    CcKind::Scream,
    CcKind::Cubic,
    CcKind::Copa,
    CcKind::Reno,
    CcKind::Vegas,
    CcKind::Bbr,
];

/// Decide whether Scream wins, taking protocol `CcKind::ALL[i]`'s result
/// from `run(i)` in [`LABEL_ORDER`] and stopping at the first rival that
/// beats Scream. Returns the label and how many results it took.
fn scream_wins(mut run: impl FnMut(usize) -> Result<ProtocolResult>) -> Result<(bool, usize)> {
    let index = |kind: CcKind| {
        CcKind::ALL
            .iter()
            .position(|&k| k == kind)
            .expect("CcKind::ALL lists every protocol")
    };
    let scream = index(LABEL_ORDER[0]);
    let scream_result = run(scream)?;
    for (taken, &rival) in LABEL_ORDER.iter().enumerate().skip(1) {
        let rival = index(rival);
        if beats((rival, &run(rival)?), (scream, &scream_result)) {
            return Ok((false, taken + 1));
        }
    }
    Ok((true, LABEL_ORDER.len()))
}

/// The label of a condition and the number of simulations it ran.
fn label_and_runs(condition: NetworkCondition, seed: u64) -> Result<(bool, usize)> {
    let queue_mult = latent_queue_mult(seed);
    scream_wins(|i| {
        run_protocol_with_queue(
            CcKind::ALL[i],
            condition,
            queue_mult,
            protocol_seed(seed, i),
        )
    })
}

/// Label a condition: `true` iff Scream wins, always equal to
/// `winner_index(&run_all(condition, seed))` naming Scream. Scream is
/// simulated first and the rivals one at a time, with the seeds and
/// latent buffer [`run_all`] gives them; the first rival that beats Scream
/// ends the labelling with `false`. A Scream win costs all six
/// simulations, a loss two to six (see the module docs).
pub fn label_condition(condition: NetworkCondition, seed: u64) -> Result<bool> {
    label_and_runs(condition, seed).map(|(label, _)| label)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake(protocol: CcKind, tp: f64, delay: f64, qualifies: bool) -> ProtocolResult {
        ProtocolResult {
            protocol,
            throughput_mbps: tp,
            mean_delay_ms: delay,
            p95_delay_ms: delay * 1.5,
            qualifies,
        }
    }

    #[test]
    fn lowest_delay_among_qualified_wins() {
        let results = vec![
            fake(CcKind::Scream, 5.0, 30.0, true),
            fake(CcKind::Cubic, 9.0, 80.0, true),
            fake(CcKind::Vegas, 2.0, 20.0, false), // lowest delay but disqualified
        ];
        assert_eq!(winner_index(&results), 0);
    }

    #[test]
    fn no_qualifier_falls_back_to_throughput() {
        let results = vec![
            fake(CcKind::Scream, 1.0, 30.0, false),
            fake(CcKind::Bbr, 3.0, 90.0, false),
        ];
        assert_eq!(winner_index(&results), 1);
    }

    #[test]
    fn infinite_delay_never_wins_when_alternatives_exist() {
        let results = vec![
            fake(CcKind::Scream, 5.0, f64::INFINITY, true),
            fake(CcKind::Reno, 5.0, 70.0, true),
        ];
        assert_eq!(winner_index(&results), 1);
    }

    #[test]
    fn run_all_covers_every_protocol() {
        let c = NetworkCondition {
            link_rate_mbps: 10.0,
            rtt_ms: 40.0,
            loss_rate: 0.0,
            n_flows: 1,
        };
        let results = run_all(c, 42).unwrap();
        assert_eq!(results.len(), 6);
        let names: Vec<&str> = results.iter().map(|r| r.protocol.name()).collect();
        assert!(names.contains(&"scream") && names.contains(&"cubic"));
    }

    #[test]
    fn scream_wins_clean_high_bdp_regime() {
        // Clean path, large BDP: loss-based protocols bloat the (1-BDP)
        // queue, Copa underutilizes below the qualification bar, and the
        // latency-targeting protocol wins.
        let c = NetworkCondition {
            link_rate_mbps: 50.0,
            rtt_ms: 100.0,
            loss_rate: 0.0,
            n_flows: 1,
        };
        assert!(
            label_condition(c, 1).unwrap(),
            "Scream should win clean high-BDP links"
        );
    }

    #[test]
    fn scream_loses_heavy_loss_regime() {
        // 5% random loss: Scream's halve-on-loss backoff collapses its
        // throughput below the qualification bar while BBR sails through.
        let c = NetworkCondition {
            link_rate_mbps: 20.0,
            rtt_ms: 40.0,
            loss_rate: 0.05,
            n_flows: 1,
        };
        assert!(
            !label_condition(c, 2).unwrap(),
            "Scream should lose at 5% loss"
        );
    }

    #[test]
    fn latent_queue_mult_spans_its_range_deterministically() {
        let a = latent_queue_mult(1);
        assert_eq!(a, latent_queue_mult(1));
        let vals: Vec<f64> = (0..200).map(latent_queue_mult).collect();
        assert!(vals.iter().all(|&v| (0.5..=3.0).contains(&v)));
        let min = vals.iter().cloned().fold(f64::MAX, f64::min);
        let max = vals.iter().cloned().fold(f64::MIN, f64::max);
        assert!(
            min < 0.8 && max > 2.7,
            "draws span the range: [{min}, {max}]"
        );
    }

    #[test]
    fn same_campaign_same_buffer_for_all_protocols() {
        // run_all races all protocols on ONE network: re-running any single
        // protocol with the campaign's latent multiplier reproduces its
        // row exactly.
        let c = NetworkCondition {
            link_rate_mbps: 10.0,
            rtt_ms: 40.0,
            loss_rate: 0.0,
            n_flows: 1,
        };
        let seed = 77;
        let all = run_all(c, seed).unwrap();
        let mult = latent_queue_mult(seed);
        let solo = run_protocol_with_queue(CcKind::Cubic, c, mult, seed ^ (3 * 0x9E37)).unwrap();
        let cubic_row = all.iter().find(|r| r.protocol == CcKind::Cubic).unwrap();
        assert_eq!(&solo, cubic_row);
    }

    #[test]
    fn labeling_is_deterministic() {
        let c = NetworkCondition {
            link_rate_mbps: 33.0,
            rtt_ms: 77.0,
            loss_rate: 0.012,
            n_flows: 2,
        };
        assert_eq!(
            label_condition(c, 9).unwrap(),
            label_condition(c, 9).unwrap()
        );
    }

    /// Six results in [`CcKind::ALL`] order, Scream first.
    fn six(rows: [(f64, f64, bool); 6]) -> Vec<ProtocolResult> {
        CcKind::ALL
            .iter()
            .zip(rows)
            .map(|(&kind, (tp, delay, qualifies))| fake(kind, tp, delay, qualifies))
            .collect()
    }

    /// How many simulations the early exit should run on `results`: up to
    /// and including the first rival in [`LABEL_ORDER`] that wins a
    /// two-protocol race against Scream, or all six.
    fn expected_runs(results: &[ProtocolResult]) -> usize {
        LABEL_ORDER[1..]
            .iter()
            .map(|&kind| results.iter().find(|r| r.protocol == kind).unwrap())
            .position(|rival| winner_index(&[results[0].clone(), rival.clone()]) == 1)
            .map_or(6, |p| p + 2)
    }

    /// The winner rule as `min_by`/`max_by` state it, for comparison with
    /// the pairwise `beats`: the first lowest delay among qualifiers with
    /// a finite delay, or else the last highest throughput.
    fn reference_winner(results: &[ProtocolResult]) -> usize {
        let qualified: Vec<usize> = (0..results.len())
            .filter(|&i| results[i].qualifies && results[i].mean_delay_ms.is_finite())
            .collect();
        let by = |key: fn(&ProtocolResult) -> f64| {
            move |&a: &usize, &b: &usize| key(&results[a]).partial_cmp(&key(&results[b])).unwrap()
        };
        if qualified.is_empty() {
            (0..results.len()).max_by(by(|r| r.throughput_mbps))
        } else {
            qualified.into_iter().min_by(by(|r| r.mean_delay_ms))
        }
        .unwrap()
    }

    /// The early-exit label of `results` and how many it looked at,
    /// checked against `winner_index` and [`expected_runs`].
    fn early_exit(results: &[ProtocolResult]) -> (bool, usize) {
        let (label, runs) = scream_wins(|i| Ok(results[i].clone())).unwrap();
        assert_eq!(
            winner_index(results),
            reference_winner(results),
            "{results:?}"
        );
        assert_eq!(
            label,
            results[winner_index(results)].protocol == CcKind::Scream,
            "{results:?}"
        );
        assert_eq!(runs, expected_runs(results), "{results:?}");
        (label, runs)
    }

    #[test]
    fn a_rival_tying_scream_on_delay_loses_to_it() {
        // Copa ties Scream's delay: the tie goes to the earlier index.
        let results = six([
            (5.0, 30.0, true),
            (9.0, 80.0, true),
            (9.0, 80.0, true),
            (9.0, 80.0, true),
            (9.0, 80.0, true),
            (5.0, 30.0, true),
        ]);
        assert_eq!(early_exit(&results), (true, 6));
        // Between two rivals the earlier index wins the tie too.
        let mut results = results;
        results[0].mean_delay_ms = 40.0;
        results[4].mean_delay_ms = 30.0;
        assert_eq!(winner_index(&results), 4);
        // Copa, simulated before BBR, already beats Scream.
        assert_eq!(early_exit(&results), (false, 3));
    }

    #[test]
    fn with_no_qualifier_a_throughput_tie_goes_to_the_rival() {
        // Nobody qualifies and Cubic ties Scream's throughput: the later
        // index wins, and Cubic is the first rival simulated.
        let results = six([
            (3.0, 30.0, false),
            (1.0, 90.0, false),
            (3.0, 90.0, false),
            (1.0, 90.0, false),
            (2.0, 90.0, false),
            (1.0, 90.0, false),
        ]);
        assert_eq!(winner_index(&results), 2);
        assert_eq!(early_exit(&results), (false, 2));
        // Strictly highest throughput, no qualifier: Scream wins.
        let mut results = results;
        results[2].throughput_mbps = 2.0;
        assert_eq!(early_exit(&results), (true, 6));
    }

    #[test]
    fn a_qualifier_with_infinite_delay_counts_as_not_qualifying() {
        // Scream "qualifies" with no delay sample; BBR, simulated last,
        // is the only useful protocol.
        let mut rows = [(1.0, 50.0, false); 6];
        rows[0] = (9.0, f64::INFINITY, true);
        rows[4] = (5.0, 70.0, true);
        let results = six(rows);
        assert_eq!(winner_index(&results), 4);
        // BBR is simulated last, so this loss takes all six.
        assert_eq!(early_exit(&results), (false, 6));
        // A rival with infinite delay beats no qualifying Scream.
        let mut rows = [(9.0, f64::INFINITY, true); 6];
        rows[0] = (1.0, 80.0, true);
        assert_eq!(early_exit(&six(rows)), (true, 6));
    }

    #[test]
    fn scream_alone_qualifying_wins_after_all_six() {
        let mut rows = [(9.0, 10.0, false); 6];
        rows[0] = (5.0, 60.0, true);
        assert_eq!(early_exit(&six(rows)), (true, 6));
    }

    /// Six results in [`CcKind::ALL`] order drawn from small value sets,
    /// so that delay ties, throughput ties, infinite delays, no qualifier
    /// and a lone qualifier all come up.
    struct AnyResults;

    impl aml_propcheck::Strategy for AnyResults {
        type Value = Vec<ProtocolResult>;
        fn gen_value(&self, rng: &mut aml_propcheck::TestRng) -> Vec<ProtocolResult> {
            const DELAYS: [f64; 4] = [20.0, 35.0, 50.0, f64::INFINITY];
            const THROUGHPUTS: [f64; 3] = [1.0, 2.0, 3.0];
            let mut pick = |n: usize| (rng.next_u64() % n as u64) as usize;
            // A per-set bar: 0 makes no protocol qualify, 4 makes all do.
            let bar = pick(5);
            CcKind::ALL
                .iter()
                .map(|&kind| {
                    let qualifies = pick(4) < bar;
                    fake(kind, THROUGHPUTS[pick(3)], DELAYS[pick(4)], qualifies)
                })
                .collect()
        }
    }

    aml_propcheck::proptest! {
        #![proptest_config(aml_propcheck::ProptestConfig::with_cases(4096))]

        /// `winner_index` picks the winner the `min_by`/`max_by` rule
        /// does, the early exit decides exactly what it does, and stops at
        /// the first rival that beats Scream.
        #[test]
        fn prop_early_exit_agrees_with_winner_index(results in AnyResults) {
            early_exit(&results);
        }
    }

    #[test]
    fn any_results_covers_the_tie_and_qualifier_cases() {
        use aml_propcheck::{Strategy, TestRng};
        let useful = |r: &ProtocolResult| r.qualifies && r.mean_delay_ms.is_finite();
        let mut seen = [0usize; 4];
        for case in 0..4096 {
            let results = AnyResults.gen_value(&mut TestRng::new(case));
            let (scream, rivals) = (&results[0], &results[1..]);
            let cases = [
                useful(scream)
                    && rivals
                        .iter()
                        .any(|r| useful(r) && r.mean_delay_ms == scream.mean_delay_ms),
                !results.iter().any(useful)
                    && rivals
                        .iter()
                        .any(|r| r.throughput_mbps == scream.throughput_mbps),
                results
                    .iter()
                    .any(|r| r.qualifies && r.mean_delay_ms.is_infinite()),
                useful(scream) && !rivals.iter().any(useful),
            ];
            for (n, hit) in seen.iter_mut().zip(cases) {
                *n += usize::from(hit);
            }
        }
        assert!(seen.iter().all(|&n| n >= 50), "{seen:?}");
    }

    /// The 64 conditions `tests/labels_pinned.rs` pins, each with its
    /// campaign seed `1000 + index`: the 16 corners of the default domain
    /// (flows varying fastest), then 48 Halton points.
    fn pinned_conditions() -> Vec<(NetworkCondition, u64)> {
        let d = crate::ConditionDomain::default();
        let mut out = Vec::new();
        for link_rate_mbps in [d.link_rate.0, d.link_rate.1] {
            for rtt_ms in [d.rtt.0, d.rtt.1] {
                for loss_rate in [d.loss.0, d.loss.1] {
                    for n_flows in [d.flows.0, d.flows.1] {
                        out.push(NetworkCondition {
                            link_rate_mbps,
                            rtt_ms,
                            loss_rate,
                            n_flows,
                        });
                    }
                }
            }
        }
        let halton = |mut i: usize, base: usize| {
            let (mut f, mut r) = (1.0, 0.0);
            while i > 0 {
                f /= base as f64;
                r += f * (i % base) as f64;
                i /= base;
            }
            r
        };
        let span = |(lo, hi): (f64, f64), u: f64| lo + (hi - lo) * u;
        let n_flows_range = d.flows.1 - d.flows.0 + 1;
        out.extend((1..=48).map(|i| NetworkCondition {
            link_rate_mbps: span(d.link_rate, halton(i, 2)),
            rtt_ms: span(d.rtt, halton(i, 3)),
            loss_rate: span(d.loss, halton(i, 5)),
            n_flows: d.flows.0 + (halton(i, 7) * n_flows_range as f64) as usize,
        }));
        out.into_iter().zip(1_000..).collect()
    }

    /// `n` conditions drawn from the default domain the way
    /// [`crate::datagen::SamplingMode`] `mode` draws them, with seeds.
    fn sampled_conditions(
        mode: crate::datagen::SamplingMode,
        n: usize,
    ) -> Vec<(NetworkCondition, u64)> {
        use aml_rng::SeedableRng;
        let d = crate::ConditionDomain::default();
        let mut rng = aml_rng::rngs::StdRng::seed_from_u64(0x1abe1 + n as u64);
        (0..n as u64)
            .map(|i| {
                let c = match mode {
                    crate::datagen::SamplingMode::Uniform => d.sample(&mut rng),
                    crate::datagen::SamplingMode::Production => d.sample_production(&mut rng),
                };
                (c, 0x5eed_0000 + i)
            })
            .collect()
    }

    /// Each condition's label equals `winner_index(&run_all(..))` naming
    /// Scream, and took exactly [`expected_runs`] simulations. Every
    /// mismatch is reported at once.
    fn assert_labels_agree(conditions: &[(NetworkCondition, u64)]) {
        let mut wrong = Vec::new();
        let mut runs = Vec::new();
        for &(c, seed) in conditions {
            let all = run_all(c, seed).unwrap();
            let want = (
                all[winner_index(&all)].protocol == CcKind::Scream,
                expected_runs(&all),
            );
            let got = label_and_runs(c, seed).unwrap();
            if got != want {
                wrong.push(format!("{c:?} seed {seed}: got {got:?}, want {want:?}"));
            }
            runs.push(got.1);
        }
        assert!(wrong.is_empty(), "labels differ:\n{}", wrong.join("\n"));
        // Both outcomes occur, and some labels stop early.
        assert!(runs.contains(&6) && runs.iter().any(|&r| r < 6), "{runs:?}");
    }

    #[test]
    fn pinned_corners_label_as_run_all_does() {
        assert_labels_agree(&pinned_conditions()[..16]);
    }

    #[test]
    fn pinned_interior_labels_as_run_all_does() {
        assert_labels_agree(&pinned_conditions()[16..]);
    }

    #[test]
    fn production_samples_label_as_run_all_does() {
        assert_labels_agree(&sampled_conditions(
            crate::datagen::SamplingMode::Production,
            112,
        ));
    }

    #[test]
    fn uniform_samples_label_as_run_all_does() {
        assert_labels_agree(&sampled_conditions(
            crate::datagen::SamplingMode::Uniform,
            112,
        ));
    }
}
