//! Bit-level pins for the netsim labeler.
//!
//! Every Scream-vs-rest label comes from [`run_all`]: six protocol
//! simulations of one network condition, then the winner rule. For 64
//! fixed conditions — the 16 corners of the default
//! [`ConditionDomain`] and 48 interior points — these tests pin, per
//! condition, an FNV-1a digest of each protocol's throughput, mean delay
//! and p95 delay (`f64::to_bits`, little-endian), each protocol's
//! bottleneck drop count, and the [`label_condition`] bit.
//!
//! A change that moves any pin changes simulation semantics: the cached
//! datasets it would serve are stale. Such a change must bump
//! `aml_netsim::datagen::GENERATOR_VERSION` (part of every dataset cache
//! key) and say why; an engine optimisation must leave every pin as is.

use aml_netsim::runner::{latent_queue_mult, run_all};
use aml_netsim::scenario::ConditionDomain;
use aml_netsim::{label_condition, CcKind, NetworkCondition, SimConfig, Simulation};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// What is pinned per condition: the statistics digest, each protocol's
/// drop count (in [`CcKind::ALL`] order), and whether Scream wins.
type Pin = (u64, [u64; 6], bool);

/// The 16 corners of the default domain, flows varying fastest.
fn corners() -> Vec<NetworkCondition> {
    let d = ConditionDomain::default();
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
    out
}

/// Radical inverse of `i` in `base`: one coordinate of a Halton point.
fn halton(mut i: usize, base: usize) -> f64 {
    let (mut f, mut r) = (1.0, 0.0);
    while i > 0 {
        f /= base as f64;
        r += f * (i % base) as f64;
        i /= base;
    }
    r
}

/// 48 interior points spread over the default domain (Halton bases 2, 3,
/// 5 and 7, skipping the origin).
fn interior() -> Vec<NetworkCondition> {
    let d = ConditionDomain::default();
    let span = |(lo, hi): (f64, f64), u: f64| lo + (hi - lo) * u;
    let n_flows_range = d.flows.1 - d.flows.0 + 1;
    (1..=48)
        .map(|i| NetworkCondition {
            link_rate_mbps: span(d.link_rate, halton(i, 2)),
            rtt_ms: span(d.rtt, halton(i, 3)),
            loss_rate: span(d.loss, halton(i, 5)),
            n_flows: d.flows.0 + (halton(i, 7) * n_flows_range as f64) as usize,
        })
        .collect()
}

/// Pin condition `index` (its campaign seed is `1000 + index`). The drop
/// counts come from re-running each protocol the way `run_all` does
/// (same latent buffer, same per-protocol seed); the re-run must
/// reproduce `run_all`'s statistics bit for bit.
fn pin(index: usize, condition: NetworkCondition) -> Pin {
    let seed = 1_000 + index as u64;
    let results = run_all(condition, seed).unwrap();
    let mut h = FNV_OFFSET;
    let mut drops = [0u64; 6];
    for (i, r) in results.iter().enumerate() {
        assert_eq!(r.protocol, CcKind::ALL[i]);
        let stats = [r.throughput_mbps, r.mean_delay_ms, r.p95_delay_ms].map(f64::to_bits);
        for bits in stats {
            h = fnv1a(h, &bits.to_le_bytes());
        }
        let mut cfg =
            SimConfig::for_condition(condition, r.protocol, seed ^ ((i as u64 + 1) * 0x9E37));
        cfg.queue_bdp_mult = latent_queue_mult(seed);
        let outcome = Simulation::new(cfg).unwrap().run().unwrap();
        let rerun = [
            outcome.total_throughput_mbps,
            outcome.mean_delay_ms,
            outcome.p95_delay_ms,
        ]
        .map(f64::to_bits);
        assert_eq!(
            rerun, stats,
            "{condition:?} {:?}: re-run differs",
            r.protocol
        );
        drops[i] = outcome.queue_drops;
    }
    (h, drops, label_condition(condition, seed).unwrap())
}

/// Pin `conditions`, which are conditions `first..` of the 64, against
/// `expected`. Every mismatch is reported at once, with its condition.
fn check(conditions: &[NetworkCondition], first: usize, expected: &[Pin]) {
    assert_eq!(conditions.len(), expected.len());
    let moved: Vec<String> = conditions
        .iter()
        .zip(expected)
        .enumerate()
        .filter_map(|(k, (&c, want))| {
            let got = pin(first + k, c);
            (got != *want).then(|| format!("#{} {c:?}: got {got:?}, pinned {want:?}", first + k))
        })
        .collect();
    assert!(moved.is_empty(), "netsim pins moved:\n{}", moved.join("\n"));
}

#[test]
fn domain_corners() {
    check(&corners(), 0, &CORNER_PINS);
}

// The interior is split three ways so the test harness runs the parts
// in parallel.

#[test]
fn interior_first_third() {
    check(&interior()[..16], 16, &INTERIOR_PINS[..16]);
}

#[test]
fn interior_second_third() {
    check(&interior()[16..32], 32, &INTERIOR_PINS[16..32]);
}

#[test]
fn interior_last_third() {
    check(&interior()[32..], 48, &INTERIOR_PINS[32..]);
}

const CORNER_PINS: [Pin; 16] = [
    (18150740406635801827, [11, 29, 33, 36, 3, 78], false),
    (5233698921915657838, [175, 166, 183, 227, 292, 247], false),
    (8724131229626493339, [10, 23, 24, 25, 2, 75], false),
    (14207556916523242350, [156, 151, 173, 196, 253, 236], false),
    (7914991373478761332, [0, 54, 80, 27, 0, 0], true),
    (13710977323462316326, [1, 83, 115, 39, 221, 42], true),
    (13949154429473351439, [0, 0, 0, 0, 0, 0], false),
    (5178576705442311035, [31, 46, 62, 38, 371, 61], true),
    (5982417147102551647, [0, 299, 419, 150, 0, 0], false),
    (8779706962172395148, [0, 296, 402, 131, 0, 0], true),
    (17583899946485566044, [0, 0, 0, 0, 0, 0], false),
    (14957595239981072991, [0, 0, 0, 0, 0, 0], false),
    (2497404512179085739, [0, 5205, 7715, 2602, 0, 0], true),
    (3331853416755168048, [0, 3821, 3821, 3210, 0, 0], true),
    (8256301168256959280, [0, 0, 0, 0, 0, 0], false),
    (9314537967655041077, [0, 0, 0, 0, 0, 0], false),
];

const INTERIOR_PINS: [Pin; 48] = [
    (4491954803975446093, [0, 0, 0, 0, 0, 0], false),
    (8835050989602235126, [0, 0, 0, 0, 0, 0], false),
    (15229395223430258025, [0, 0, 0, 0, 0, 0], false),
    (14227463015565792874, [0, 0, 0, 0, 169, 0], false),
    (9021461435540062853, [0, 0, 0, 0, 33, 0], true),
    (9465454048288483477, [0, 0, 0, 0, 0, 0], true),
    (5843241711990192662, [0, 0, 0, 0, 0, 0], false),
    (9335347561519364450, [0, 0, 0, 0, 0, 0], false),
    (13797539172631729542, [0, 0, 0, 0, 0, 0], false),
    (13360867855385183561, [0, 589, 0, 84, 0, 0], false),
    (15934129721515031832, [0, 0, 0, 0, 1126, 0], false),
    (12199596504096700257, [0, 0, 0, 0, 0, 0], true),
    (4922412860895657164, [0, 0, 0, 0, 0, 0], false),
    (7362338314374849930, [0, 0, 0, 0, 0, 0], false),
    (10418731596019993497, [0, 0, 0, 0, 0, 0], false),
    (8136393968438842969, [0, 33, 90, 0, 9, 0], false),
    (4122531896359598466, [0, 0, 0, 0, 0, 0], false),
    (5376611097655739082, [0, 0, 0, 0, 0, 0], false),
    (3909894295859316223, [0, 0, 0, 0, 0, 0], false),
    (2371538266673819025, [0, 0, 13, 0, 0, 0], false),
    (4418774725161719117, [0, 0, 0, 0, 0, 0], false),
    (1394667646252218486, [0, 0, 0, 0, 90, 0], false),
    (14386705107631276345, [0, 0, 0, 0, 0, 0], false),
    (15267639455980963717, [0, 0, 0, 0, 0, 0], false),
    (1914785687068116300, [0, 2408, 3114, 995, 0, 0], false),
    (11398370395400819107, [0, 0, 0, 0, 0, 0], false),
    (10749283918844710349, [53, 58, 57, 0, 120, 4], true),
    (11317956133732928248, [0, 0, 0, 0, 0, 0], false),
    (10510169473849533082, [0, 0, 0, 0, 0, 0], false),
    (1315531613605178446, [0, 523, 519, 0, 0, 0], true),
    (4426793133760091378, [0, 0, 0, 0, 0, 0], false),
    (14984960467830524239, [0, 50, 39, 0, 140, 1], true),
    (16880311999785621911, [0, 0, 0, 0, 0, 0], false),
    (17859190833360655140, [0, 0, 0, 0, 0, 0], false),
    (5602855969610715840, [0, 0, 0, 0, 0, 0], false),
    (5099648482422410891, [0, 9, 0, 28, 0, 0], true),
    (16602562841443382472, [0, 0, 0, 0, 0, 0], false),
    (13498850134528096710, [0, 0, 0, 0, 0, 0], false),
    (1028671577914008187, [0, 0, 0, 0, 0, 0], false),
    (16519076087564283852, [21, 132, 142, 41, 219, 0], true),
    (6790030672919005501, [0, 0, 0, 0, 0, 0], false),
    (14422428001489792454, [0, 0, 0, 0, 0, 0], false),
    (4956152796249344835, [0, 0, 0, 0, 0, 0], false),
    (13170829656001653487, [0, 0, 0, 0, 0, 0], false),
    (8575633411761565251, [0, 0, 68, 61, 107, 0], false),
    (9482866197478310693, [0, 0, 0, 0, 0, 0], false),
    (5563330846271289942, [0, 0, 0, 0, 0, 0], false),
    (15997400659532478856, [5, 42, 45, 1, 41, 19], true),
];
