//! View of a critical-path report: diff two reports for `amlinspect
//! crit --compare`. `crit.json` is written and read back in one place,
//! [`aml_telemetry::crit`] (`CritReport::render_json`/`from_json`).

use aml_telemetry::CritReport;
use std::fmt::Write;

/// Text diff of two reports for `amlinspect crit --compare`: the figures someone
/// checks before and after a performance PR.
pub fn render_compare(a: &CritReport, b: &CritReport) -> String {
    let mut out = String::from("critical path compare (A -> B):\n");
    let ms = |ns: u64| ns as f64 / 1e6;
    let line = |out: &mut String, label: &str, x: f64, y: f64, unit: &str| {
        let _ = writeln!(
            out,
            "  {label:<24} {x:>10.2}{unit} -> {y:>10.2}{unit} ({:+.1}%)",
            if x.abs() < f64::EPSILON {
                0.0
            } else {
                (y - x) * 100.0 / x
            }
        );
    };
    line(&mut out, "wall", ms(a.wall_ns), ms(b.wall_ns), "ms");
    line(
        &mut out,
        "critical path",
        ms(a.critical_path_ns),
        ms(b.critical_path_ns),
        "ms",
    );
    if let (Some(ca), Some(cb)) = (a.cpu_ns, b.cpu_ns) {
        line(&mut out, "cpu", ms(ca), ms(cb), "ms");
    }
    let _ = writeln!(
        out,
        "  {:<24} {:>12} -> {:>12}",
        "dominant phase", a.dominant_phase, b.dominant_phase
    );
    line(
        &mut out,
        "run max speedup",
        a.amdahl.max_speedup,
        b.amdahl.max_speedup,
        "x",
    );
    for pa in &a.phases {
        if let Some(pb) = b.phases.iter().find(|p| p.name == pa.name) {
            line(
                &mut out,
                &format!("phase {}", pa.name),
                ms(pa.total_ns),
                ms(pb.total_ns),
                "ms",
            );
        }
    }
    if let (Some(sa), Some(sb)) = (&a.scenarios, &b.scenarios) {
        line(
            &mut out,
            "scenario mean cost",
            sa.mean_ns as f64 / 1e6,
            sb.mean_ns as f64 / 1e6,
            "ms",
        );
        let _ = writeln!(
            out,
            "  {:<24} {:>12} -> {:>12}",
            "scenarios labeled", sa.total, sb.total
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use aml_telemetry::crit::analyze;
    use aml_telemetry::tracetree::Node;

    fn sample_report() -> CritReport {
        let node = |id, parent, name: &str, start, total, parallel| Node {
            id,
            parent,
            name: name.to_string(),
            start_ns: start,
            total_ns: total,
            parallel,
        };
        let nodes = vec![
            node(10, 0, "bench.datagen", 0, 2_000_000, false),
            node(11, 10, "netsim.labeling", 100_000, 1_600_000, false),
            node(21, 11, "netsim.scenario", 110_000, 700_000, true),
            node(22, 11, "netsim.scenario", 120_000, 800_000, true),
            node(30, 0, "bench.strategies", 2_100_000, 1_000_000, false),
        ];
        analyze(&nodes, &aml_telemetry::Registry::new().snapshot())
    }

    #[test]
    fn compare_reports_deltas_per_phase() {
        let a = sample_report();
        let mut b = a.clone();
        b.wall_ns = 1_500_000;
        b.critical_path_ns = 1_000_000;
        let text = render_compare(&a, &b);
        assert!(text.contains("wall"), "{text}");
        assert!(text.contains("-50.0%"), "{text}");
        assert!(text.contains("phase bench.datagen"), "{text}");
        assert!(text.contains("dominant phase"), "{text}");
    }
}
