//! Critical-path analysis over the causal trace tree.
//!
//! Consumes the [`crate::tracetree`] nodes plus a registry
//! [`Snapshot`] and answers three questions the flat views cannot:
//!
//! 1. **What is the critical path?** The longest dependency chain
//!    through the tree — starting from the dominant top-level phase and
//!    greedily descending into the costliest child. Each chain segment
//!    is charged its *contribution* (its total minus the descended
//!    child's total), so the segment contributions sum to the dominant
//!    phase's total and never exceed the run's wall time.
//! 2. **How much of each phase is parallelizable?** Per phase, `work`
//!    is the summed self time of the subtree and `ideal` is the
//!    best-case chain length when every `parallel`-marked fan-out (the
//!    [`crate::tracetree::TraceContext`] handoff roots) runs with
//!    unlimited workers: `ideal = self + Σ serial children + max over
//!    parallel children`. Amdahl's law then gives
//!    `serial_fraction = ideal / work` and the speedup ceiling
//!    `max_speedup = work / ideal` — the number to compare before and
//!    after a parallelism PR.
//! 3. **Is the run CPU-bound?** Wall time versus the `/proc` sampler's
//!    `proc.cpu_user_ms + proc.cpu_sys_ms` gauges, when present.
//!
//! The per-scenario datagen instrumentation surfaces here too: the
//! `datagen.scenarios_total` counter and `datagen.scenario_ns` histogram
//! from the snapshot are embedded so one `crit.json` carries the whole
//! cost-attribution story. Rendered two ways: [`CritReport::render_json`]
//! (hand-rolled, field order pinned by a golden test; written by
//! `--crit-out` and served at `/crit`) and [`CritReport::render_table`]
//! (the human summary `amlinspect crit` and the run footer print).
//! [`CritReport::from_json`] reads `crit.json` back — it is the one
//! rendered report the read side loads, since it is not ledger-derived.

use crate::json;
use crate::profile::fmt_ns;
use crate::registry::Snapshot;
use crate::tracetree::{Node, SpanId};
use std::collections::HashMap;

/// Schema version stamped into `crit.json`.
pub const CRIT_SCHEMA_VERSION: u32 = 1;

/// One segment of the critical path, outermost first.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// Span name.
    pub name: String,
    /// Structural span id (see [`crate::tracetree`]).
    pub id: SpanId,
    /// Depth along the chain (0 = the dominant phase).
    pub depth: usize,
    /// The span's total wall time, ns.
    pub total_ns: u64,
    /// Chain contribution: total minus the descended child's total, ns.
    pub contribution_ns: u64,
    /// Whether the segment is a handoff (fan-out) root.
    pub parallel: bool,
}

/// Amdahl accounting for one top-level phase (or the whole run).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStat {
    /// Phase span name (the run total uses `"run"`).
    pub name: String,
    /// The phase span's wall time, ns.
    pub total_ns: u64,
    /// Summed self time over the subtree, ns (CPU-side work).
    pub work_ns: u64,
    /// Best-case chain with unlimited workers on every fan-out, ns.
    pub ideal_ns: u64,
    /// `ideal / work` — the serial fraction `f` in Amdahl's law.
    pub serial_fraction: f64,
    /// `work / ideal` — the parallel speedup ceiling (`1/f`).
    pub max_speedup: f64,
    /// Spans in the subtree (including the phase span).
    pub subtree_spans: u64,
}

/// Per-scenario datagen cost attribution pulled from the snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioStats {
    /// `datagen.scenarios_total`.
    pub total: u64,
    /// `datagen.scenario_ns` observation count.
    pub count: u64,
    /// Summed scenario cost, ns.
    pub sum_ns: u64,
    /// Mean scenario cost, ns.
    pub mean_ns: u64,
    /// Approximate median scenario cost, ns.
    pub p50_ns: u64,
    /// Approximate 95th-percentile scenario cost, ns.
    pub p95_ns: u64,
    /// Largest scenario cost, ns.
    pub max_ns: u64,
}

/// The full critical-path report.
#[derive(Debug, Clone, PartialEq)]
pub struct CritReport {
    /// Wall time of the run: summed top-level phase totals, ns.
    pub wall_ns: u64,
    /// `proc.cpu_user_ms + proc.cpu_sys_ms` in ns, when sampled.
    pub cpu_ns: Option<u64>,
    /// Dominant top-level phase (longest total), empty when no nodes.
    pub dominant_phase: String,
    /// Summed chain contributions (= the dominant phase's total), ns.
    pub critical_path_ns: u64,
    /// The chain, outermost segment first.
    pub path: Vec<Segment>,
    /// Per-phase Amdahl accounting, in phase start order.
    pub phases: Vec<PhaseStat>,
    /// Whole-run Amdahl accounting (phases are serial to each other).
    pub amdahl: PhaseStat,
    /// Per-scenario datagen costs, when the run generated data.
    pub scenarios: Option<ScenarioStats>,
    /// Recorded node count.
    pub nodes: usize,
    /// Nodes dropped at the collection cap.
    pub nodes_dropped: u64,
}

/// Analyze `nodes` (any order) against `snapshot`. Pure; deterministic
/// for deterministic inputs (ties broken by name, then id).
pub fn analyze(nodes: &[Node], snapshot: &Snapshot) -> CritReport {
    analyze_with_drops(nodes, snapshot, 0)
}

/// [`analyze`], recording how many nodes the collector dropped.
pub fn analyze_with_drops(nodes: &[Node], snapshot: &Snapshot, dropped: u64) -> CritReport {
    let by_id: HashMap<SpanId, usize> = nodes.iter().enumerate().map(|(i, n)| (n.id, i)).collect();
    let mut children: HashMap<SpanId, Vec<usize>> = HashMap::new();
    let mut roots: Vec<usize> = Vec::new();
    for (i, n) in nodes.iter().enumerate() {
        if n.parent != 0 && by_id.contains_key(&n.parent) && n.parent != n.id {
            children.entry(n.parent).or_default().push(i);
        } else {
            roots.push(i);
        }
    }
    let order = |a: &usize, b: &usize| {
        let (x, y) = (&nodes[*a], &nodes[*b]);
        x.start_ns
            .cmp(&y.start_ns)
            .then_with(|| x.name.cmp(&y.name))
            .then(x.id.cmp(&y.id))
    };
    for kids in children.values_mut() {
        kids.sort_by(order);
    }
    roots.sort_by(order);

    // Post-order work/ideal/subtree-size per node.
    let mut work = vec![0u64; nodes.len()];
    let mut ideal = vec![0u64; nodes.len()];
    let mut size = vec![0u64; nodes.len()];
    fn compute(
        i: usize,
        nodes: &[Node],
        children: &HashMap<SpanId, Vec<usize>>,
        work: &mut [u64],
        ideal: &mut [u64],
        size: &mut [u64],
    ) {
        let kids: &[usize] = children.get(&nodes[i].id).map_or(&[], |v| v.as_slice());
        let (mut child_total, mut child_work, mut serial_ideal, mut par_max) =
            (0u64, 0u64, 0u64, 0u64);
        let mut subtree = 1u64;
        for &k in kids {
            compute(k, nodes, children, work, ideal, size);
            child_total = child_total.saturating_add(nodes[k].total_ns);
            child_work = child_work.saturating_add(work[k]);
            if nodes[k].parallel {
                par_max = par_max.max(ideal[k]);
            } else {
                serial_ideal = serial_ideal.saturating_add(ideal[k]);
            }
            subtree += size[k];
        }
        // Self time saturates at 0 when parallel children overlap the
        // parent's wall clock.
        let self_ns = nodes[i].total_ns.saturating_sub(child_total);
        work[i] = self_ns.saturating_add(child_work);
        ideal[i] = self_ns.saturating_add(serial_ideal).saturating_add(par_max);
        size[i] = subtree;
    }
    for &r in &roots {
        compute(r, nodes, &children, &mut work, &mut ideal, &mut size);
    }

    let phase_stat = |name: &str, total: u64, w: u64, i: u64, spans: u64| PhaseStat {
        name: name.to_string(),
        total_ns: total,
        work_ns: w,
        ideal_ns: i,
        serial_fraction: if w == 0 { 1.0 } else { i as f64 / w as f64 },
        max_speedup: if i == 0 { 1.0 } else { w as f64 / i as f64 },
        subtree_spans: spans,
    };
    let phases: Vec<PhaseStat> = roots
        .iter()
        .map(|&r| {
            phase_stat(
                &nodes[r].name,
                nodes[r].total_ns,
                work[r],
                ideal[r],
                size[r],
            )
        })
        .collect();
    let wall_ns = roots
        .iter()
        .map(|&r| nodes[r].total_ns)
        .fold(0u64, u64::saturating_add);
    let (run_work, run_ideal, run_spans) = roots.iter().fold((0u64, 0u64, 0u64), |acc, &r| {
        (
            acc.0.saturating_add(work[r]),
            acc.1.saturating_add(ideal[r]),
            acc.2 + size[r],
        )
    });
    let amdahl = phase_stat("run", wall_ns, run_work, run_ideal, run_spans);

    // Greedy chain descent from the dominant phase.
    let dominant = roots.iter().copied().max_by(|a, b| {
        nodes[*a]
            .total_ns
            .cmp(&nodes[*b].total_ns)
            .then_with(|| nodes[*b].name.cmp(&nodes[*a].name))
            .then(nodes[*b].id.cmp(&nodes[*a].id))
    });
    let mut path = Vec::new();
    let mut critical_path_ns = 0u64;
    if let Some(mut cur) = dominant {
        for depth in 0..64 {
            let next = children.get(&nodes[cur].id).and_then(|kids| {
                kids.iter().copied().max_by(|a, b| {
                    nodes[*a]
                        .total_ns
                        .cmp(&nodes[*b].total_ns)
                        .then_with(|| nodes[*b].name.cmp(&nodes[*a].name))
                        .then(nodes[*b].id.cmp(&nodes[*a].id))
                })
            });
            let descended_ns = next.map_or(0, |n| nodes[n].total_ns);
            let contribution_ns = nodes[cur].total_ns.saturating_sub(descended_ns);
            path.push(Segment {
                name: nodes[cur].name.clone(),
                id: nodes[cur].id,
                depth,
                total_ns: nodes[cur].total_ns,
                contribution_ns,
                parallel: nodes[cur].parallel,
            });
            critical_path_ns = critical_path_ns.saturating_add(contribution_ns);
            match next {
                Some(n) => cur = n,
                None => break,
            }
        }
    }

    let gauge = |name: &str| {
        snapshot
            .gauges
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    };
    let cpu_ns = match (gauge("proc.cpu_user_ms"), gauge("proc.cpu_sys_ms")) {
        (None, None) => None,
        (u, s) => Some((u.unwrap_or(0) + s.unwrap_or(0)).saturating_mul(1_000_000)),
    };

    let scenarios = snapshot
        .counters
        .iter()
        .find(|(n, _)| n == "datagen.scenarios_total")
        .map(|(_, total)| {
            let hist = snapshot
                .histograms
                .iter()
                .find(|h| h.name == "datagen.scenario_ns");
            ScenarioStats {
                total: *total,
                count: hist.map_or(0, |h| h.count),
                sum_ns: hist.map_or(0, |h| h.sum),
                mean_ns: hist.map_or(0, |h| h.mean()),
                p50_ns: hist.map_or(0, |h| h.p50),
                p95_ns: hist.map_or(0, |h| h.p95),
                max_ns: hist.map_or(0, |h| h.max),
            }
        });

    CritReport {
        wall_ns,
        cpu_ns,
        dominant_phase: dominant.map_or(String::new(), |d| nodes[d].name.clone()),
        critical_path_ns,
        path,
        phases,
        amdahl,
        scenarios,
        nodes: nodes.len(),
        nodes_dropped: dropped,
    }
}

impl CritReport {
    /// Render as one JSON line (plus trailing newline). Field order and
    /// formatting are pinned by a golden test; `/crit` serves exactly
    /// this for an active collector.
    pub fn render_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\"active\":true,\"schema_version\":");
        out.push_str(&CRIT_SCHEMA_VERSION.to_string());
        out.push_str(&format!(",\"wall_ns\":{}", self.wall_ns));
        match self.cpu_ns {
            Some(cpu) => {
                out.push_str(&format!(",\"cpu_ns\":{cpu}"));
                let ratio = if self.wall_ns == 0 {
                    "null".to_string()
                } else {
                    json::fixed(cpu as f64 / self.wall_ns as f64, 6)
                };
                out.push_str(&format!(",\"cpu_wall_ratio\":{ratio}"));
            }
            None => out.push_str(",\"cpu_ns\":null,\"cpu_wall_ratio\":null"),
        }
        out.push_str(&format!(
            ",\"dominant_phase\":{}",
            json::string(&self.dominant_phase)
        ));
        out.push_str(&format!(",\"critical_path_ns\":{}", self.critical_path_ns));
        out.push_str(",\"critical_path\":[");
        for (i, s) in self.path.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            // Ids are 64-bit hashes; a JSON number would be read back
            // through f64 and lose bits past 2^53, so they travel as
            // decimal strings.
            out.push_str(&format!(
                "{{\"name\":{},\"id\":\"{}\",\"depth\":{},\"total_ns\":{},\"contribution_ns\":{},\"parallel\":{}}}",
                json::string(&s.name),
                s.id,
                s.depth,
                s.total_ns,
                s.contribution_ns,
                s.parallel,
            ));
        }
        out.push_str("],\"phases\":[");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&Self::phase_json(p));
        }
        out.push_str("],\"amdahl\":");
        out.push_str(&Self::phase_json(&self.amdahl));
        match &self.scenarios {
            Some(s) => out.push_str(&format!(
                ",\"scenarios\":{{\"total\":{},\"histogram\":{{\"count\":{},\"sum_ns\":{},\"mean_ns\":{},\"p50_ns\":{},\"p95_ns\":{},\"max_ns\":{}}}}}",
                s.total, s.count, s.sum_ns, s.mean_ns, s.p50_ns, s.p95_ns, s.max_ns,
            )),
            None => out.push_str(",\"scenarios\":null"),
        }
        out.push_str(&format!(
            ",\"nodes\":{},\"nodes_dropped\":{}}}\n",
            self.nodes, self.nodes_dropped
        ));
        out
    }

    /// Parse a `crit.json` document back, the inverse of
    /// [`CritReport::render_json`]: `from_json(r.render_json())` renders
    /// the same bytes again. Strict about the pinned shape: `active`
    /// must be `true` and `schema_version` must be
    /// [`CRIT_SCHEMA_VERSION`], so a stale or future artifact fails
    /// loudly instead of rendering nonsense.
    pub fn from_json(text: &str) -> Result<CritReport, String> {
        let v = json::parse(text)?;
        match v.get("active") {
            Some(json::Value::Bool(true)) => {}
            Some(json::Value::Bool(false)) => {
                return Err("collector was not active (run with --crit-out)".into())
            }
            _ => return Err("missing 'active' field — not a crit.json document".into()),
        }
        let schema = v.u64_at("schema_version")?;
        if schema != u64::from(CRIT_SCHEMA_VERSION) {
            return Err(format!(
                "unsupported crit schema v{schema} (this build reads v{CRIT_SCHEMA_VERSION})"
            ));
        }
        let segment = |s: &json::Value| {
            Ok(Segment {
                name: s.str_at("name")?.to_string(),
                // Ids travel as decimal strings (see `render_json`).
                id: s
                    .str_at("id")?
                    .parse()
                    .map_err(|_| "segment 'id' is not a decimal string")?,
                depth: s.u64_at("depth")? as usize,
                total_ns: s.u64_at("total_ns")?,
                contribution_ns: s.u64_at("contribution_ns")?,
                parallel: s.bool_at("parallel")?,
            })
        };
        let phase = |p: &json::Value| {
            Ok(PhaseStat {
                name: p.str_at("name")?.to_string(),
                total_ns: p.u64_at("total_ns")?,
                work_ns: p.u64_at("work_ns")?,
                ideal_ns: p.u64_at("ideal_ns")?,
                serial_fraction: p.f64_at("serial_fraction")?,
                max_speedup: p.f64_at("max_speedup")?,
                subtree_spans: p.u64_at("subtree_spans")?,
            })
        };
        let scenarios = match v.get("scenarios") {
            None | Some(json::Value::Null) => None,
            Some(s) => {
                let hist = s.req("histogram")?;
                Some(ScenarioStats {
                    total: s.u64_at("total")?,
                    count: hist.u64_at("count")?,
                    sum_ns: hist.u64_at("sum_ns")?,
                    mean_ns: hist.u64_at("mean_ns")?,
                    p50_ns: hist.u64_at("p50_ns")?,
                    p95_ns: hist.u64_at("p95_ns")?,
                    max_ns: hist.u64_at("max_ns")?,
                })
            }
        };
        Ok(CritReport {
            wall_ns: v.u64_at("wall_ns")?,
            cpu_ns: v.get("cpu_ns").and_then(json::Value::as_u64),
            dominant_phase: v.str_at("dominant_phase")?.to_string(),
            critical_path_ns: v.u64_at("critical_path_ns")?,
            path: v
                .arr_at("critical_path")?
                .iter()
                .map(segment)
                .collect::<Result<_, String>>()?,
            phases: v
                .arr_at("phases")?
                .iter()
                .map(phase)
                .collect::<Result<_, String>>()?,
            amdahl: phase(v.req("amdahl")?)?,
            scenarios,
            nodes: v.u64_at("nodes")? as usize,
            nodes_dropped: v.u64_at("nodes_dropped")?,
        })
    }

    fn phase_json(p: &PhaseStat) -> String {
        format!(
            "{{\"name\":{},\"total_ns\":{},\"work_ns\":{},\"ideal_ns\":{},\"serial_fraction\":{},\"max_speedup\":{},\"subtree_spans\":{}}}",
            json::string(&p.name),
            p.total_ns,
            p.work_ns,
            p.ideal_ns,
            json::fixed(p.serial_fraction, 6),
            json::fixed(p.max_speedup, 6),
            p.subtree_spans,
        )
    }

    /// The human-readable summary `amlinspect crit` prints and `--crit-out`
    /// appends to the run footer on stderr.
    pub fn render_table(&self) -> String {
        let mut out = String::from("critical path (causal trace tree):\n");
        let pct = |part: u64, whole: u64| {
            if whole == 0 {
                0.0
            } else {
                part as f64 * 100.0 / whole as f64
            }
        };
        out.push_str(&format!(
            "  wall {} | chain {} ({:.1}% of wall)",
            fmt_ns(self.wall_ns),
            fmt_ns(self.critical_path_ns),
            pct(self.critical_path_ns, self.wall_ns),
        ));
        if let Some(cpu) = self.cpu_ns {
            let ratio = if self.wall_ns == 0 {
                0.0
            } else {
                cpu as f64 / self.wall_ns as f64
            };
            out.push_str(&format!(" | cpu {} ({ratio:.2}x wall)", fmt_ns(cpu)));
        }
        out.push_str(&format!(" | {} spans\n", self.nodes));
        if self.dominant_phase.is_empty() {
            out.push_str("  (no spans recorded)\n");
            return out;
        }
        out.push_str(&format!("  dominant phase: {}\n", self.dominant_phase));
        out.push_str(&format!(
            "  {:<46} {:>10} {:>10}\n",
            "chain segment", "total", "contrib"
        ));
        for s in &self.path {
            let label = format!(
                "{}{}{}",
                " ".repeat(s.depth),
                s.name,
                if s.parallel { " [par]" } else { "" }
            );
            out.push_str(&format!(
                "  {:<46} {:>10} {:>10}\n",
                label,
                fmt_ns(s.total_ns),
                fmt_ns(s.contribution_ns),
            ));
        }
        out.push_str(&format!(
            "  {:<30} {:>10} {:>8} {:>12}\n",
            "phase (Amdahl)", "total", "serial%", "max speedup"
        ));
        for p in self.phases.iter().chain(std::iter::once(&self.amdahl)) {
            out.push_str(&format!(
                "  {:<30} {:>10} {:>7.1}% {:>11.1}x\n",
                p.name,
                fmt_ns(p.total_ns),
                p.serial_fraction * 100.0,
                p.max_speedup,
            ));
        }
        if let Some(s) = &self.scenarios {
            out.push_str(&format!(
                "  scenarios: {} labeled | cost mean {} p50 {} p95 {} max {}\n",
                s.total,
                fmt_ns(s.mean_ns),
                fmt_ns(s.p50_ns),
                fmt_ns(s.p95_ns),
                fmt_ns(s.max_ns),
            ));
        }
        out
    }
}

/// Analyze the live collector + registry and render the `/crit` payload:
/// the full report when the collector is (or was) recording, else
/// `{"active":false}`.
pub fn live_json() -> String {
    let nodes = crate::tracetree::entries();
    if nodes.is_empty() && !crate::tracetree::active() {
        return "{\"active\":false}\n".to_string();
    }
    analyze_with_drops(
        &nodes,
        &crate::global().snapshot(),
        crate::tracetree::dropped(),
    )
    .render_json()
}

/// Write the report for the current collector state to `path` and return
/// the rendered report for further display.
pub fn write_json(path: &std::path::Path) -> std::io::Result<CritReport> {
    let nodes = crate::tracetree::entries();
    let report = analyze_with_drops(
        &nodes,
        &crate::global().snapshot(),
        crate::tracetree::dropped(),
    );
    std::fs::write(path, report.render_json())?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Snapshot;

    fn node(
        id: SpanId,
        parent: SpanId,
        name: &str,
        start: u64,
        total: u64,
        parallel: bool,
    ) -> Node {
        Node {
            id,
            parent,
            name: name.to_string(),
            start_ns: start,
            total_ns: total,
            parallel,
        }
    }

    fn empty_snapshot() -> Snapshot {
        crate::registry::Registry::new().snapshot()
    }

    /// A fabricated deterministic run: datagen (with a parallel scenario
    /// fan-out) then a lighter strategies phase.
    fn fixture() -> Vec<Node> {
        vec![
            node(10, 0, "bench.datagen", 0, 2_000_000, false),
            node(11, 10, "netsim.labeling", 100_000, 1_600_000, false),
            node(21, 11, "netsim.scenario", 110_000, 700_000, true),
            node(22, 11, "netsim.scenario", 120_000, 800_000, true),
            node(30, 0, "bench.strategies", 2_100_000, 1_000_000, false),
        ]
    }

    #[test]
    fn chain_contributions_sum_to_dominant_and_stay_under_wall() {
        let report = analyze(&fixture(), &empty_snapshot());
        assert_eq!(report.wall_ns, 3_000_000);
        assert_eq!(report.dominant_phase, "bench.datagen");
        // Chain: datagen -> labeling -> scenario#22 (largest).
        let names: Vec<&str> = report.path.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["bench.datagen", "netsim.labeling", "netsim.scenario"]
        );
        assert_eq!(report.critical_path_ns, 2_000_000);
        assert!(report.critical_path_ns <= report.wall_ns);
        let sum: u64 = report.path.iter().map(|s| s.contribution_ns).sum();
        assert_eq!(sum, report.critical_path_ns);
        assert_eq!(report.path[0].contribution_ns, 400_000); // 2.0ms - 1.6ms
        assert_eq!(report.path[1].contribution_ns, 800_000); // 1.6ms - 0.8ms
        assert_eq!(report.path[2].contribution_ns, 800_000); // leaf keeps total
    }

    #[test]
    fn amdahl_rewards_parallel_fanouts() {
        let report = analyze(&fixture(), &empty_snapshot());
        let datagen = &report.phases[0];
        assert_eq!(datagen.name, "bench.datagen");
        // Work: datagen self 0.4 + labeling self 0.1 + scenarios 1.5 = 2.0ms.
        assert_eq!(datagen.work_ns, 2_000_000);
        // Ideal: datagen self 0.4 + labeling self 0.1 + max scenario 0.8.
        assert_eq!(datagen.ideal_ns, 1_300_000);
        assert!(datagen.serial_fraction < 1.0);
        assert!(datagen.max_speedup > 1.0);
        // The strategies phase has no children: fully serial.
        let strategies = &report.phases[1];
        assert_eq!(strategies.serial_fraction, 1.0);
        assert_eq!(strategies.max_speedup, 1.0);
        // Run totals cover both phases.
        assert_eq!(report.amdahl.work_ns, 3_000_000);
        assert_eq!(report.amdahl.ideal_ns, 2_300_000);
    }

    #[test]
    fn dangling_parents_become_roots_not_panics() {
        let nodes = vec![
            node(1, 0, "a", 0, 100, false),
            node(2, 999, "orphan", 10, 50, false),
        ];
        let report = analyze(&nodes, &empty_snapshot());
        assert_eq!(report.phases.len(), 2);
        assert_eq!(report.wall_ns, 150);
    }

    #[test]
    fn empty_tree_renders_cleanly() {
        let report = analyze(&[], &empty_snapshot());
        assert_eq!(report.wall_ns, 0);
        assert_eq!(report.dominant_phase, "");
        assert!(report.path.is_empty());
        let json = report.render_json();
        assert!(json.starts_with("{\"active\":true,"));
        assert!(json.ends_with("}\n"));
        assert!(report.render_table().contains("no spans recorded"));
    }

    #[test]
    fn cpu_and_scenarios_come_from_the_snapshot() {
        let registry = crate::registry::Registry::new();
        registry.gauge_set("proc.cpu_user_ms", 1_500);
        registry.gauge_set("proc.cpu_sys_ms", 500);
        registry.counter_add("datagen.scenarios_total", 3);
        for ns in [10_000u64, 20_000, 30_000] {
            registry.histogram_record("datagen.scenario_ns", ns);
        }
        let report = analyze(&fixture(), &registry.snapshot());
        assert_eq!(report.cpu_ns, Some(2_000_000_000));
        let s = report.scenarios.as_ref().unwrap();
        assert_eq!(s.total, 3);
        assert_eq!(s.count, 3);
        assert_eq!(s.sum_ns, 60_000);
        assert_eq!(s.mean_ns, 20_000);
        let json = report.render_json();
        assert!(json.contains("\"cpu_ns\":2000000000"));
        assert!(json.contains("\"scenarios\":{\"total\":3,"));
    }

    #[test]
    fn json_rendering_is_byte_pinned() {
        // The full shape on the fabricated tree — any change to field
        // order, formatting, or derivation shows up here.
        let report = analyze(&fixture(), &empty_snapshot());
        assert_eq!(
            report.render_json(),
            concat!(
                "{\"active\":true,\"schema_version\":1,\"wall_ns\":3000000,",
                "\"cpu_ns\":null,\"cpu_wall_ratio\":null,",
                "\"dominant_phase\":\"bench.datagen\",\"critical_path_ns\":2000000,",
                "\"critical_path\":[",
                "{\"name\":\"bench.datagen\",\"id\":\"10\",\"depth\":0,\"total_ns\":2000000,\"contribution_ns\":400000,\"parallel\":false},",
                "{\"name\":\"netsim.labeling\",\"id\":\"11\",\"depth\":1,\"total_ns\":1600000,\"contribution_ns\":800000,\"parallel\":false},",
                "{\"name\":\"netsim.scenario\",\"id\":\"22\",\"depth\":2,\"total_ns\":800000,\"contribution_ns\":800000,\"parallel\":true}",
                "],\"phases\":[",
                "{\"name\":\"bench.datagen\",\"total_ns\":2000000,\"work_ns\":2000000,\"ideal_ns\":1300000,\"serial_fraction\":0.650000,\"max_speedup\":1.538462,\"subtree_spans\":4},",
                "{\"name\":\"bench.strategies\",\"total_ns\":1000000,\"work_ns\":1000000,\"ideal_ns\":1000000,\"serial_fraction\":1.000000,\"max_speedup\":1.000000,\"subtree_spans\":1}",
                "],\"amdahl\":",
                "{\"name\":\"run\",\"total_ns\":3000000,\"work_ns\":3000000,\"ideal_ns\":2300000,\"serial_fraction\":0.766667,\"max_speedup\":1.304348,\"subtree_spans\":5}",
                ",\"scenarios\":null,\"nodes\":5,\"nodes_dropped\":0}\n",
            )
        );
    }

    #[test]
    fn table_mentions_the_key_figures() {
        let report = analyze(&fixture(), &empty_snapshot());
        let table = report.render_table();
        assert!(table.contains("dominant phase: bench.datagen"), "{table}");
        assert!(table.contains("netsim.scenario [par]"), "{table}");
        assert!(table.contains("phase (Amdahl)"), "{table}");
    }

    #[test]
    fn crit_json_round_trips_through_the_parser() {
        let report = analyze(&fixture(), &empty_snapshot());
        let parsed = CritReport::from_json(&report.render_json()).expect("parses");
        // Floats lose precision to the {:.6} rendering, so compare via a
        // second render: parse -> render is a fixpoint.
        assert_eq!(parsed.render_json(), report.render_json());
        assert_eq!(parsed.path, report.path);
        assert_eq!(parsed.dominant_phase, report.dominant_phase);
        assert_eq!(parsed.nodes, report.nodes);
    }

    #[test]
    fn parser_rejects_inactive_and_foreign_documents() {
        let err = CritReport::from_json("{\"active\":false}\n").unwrap_err();
        assert!(err.contains("--crit-out"), "{err}");
        assert!(CritReport::from_json("{\"workload\":\"x\"}").is_err());
        assert!(CritReport::from_json("not json at all").is_err());
        let future = analyze(&fixture(), &empty_snapshot())
            .render_json()
            .replace("\"schema_version\":1", "\"schema_version\":99");
        let err = CritReport::from_json(&future).unwrap_err();
        assert!(err.contains("v99"), "{err}");
    }
}
