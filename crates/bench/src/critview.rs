//! Views of a critical-path report: render the chain as an inline SVG
//! for `amlreport`, and diff two reports for `amlinspect crit
//! --compare`. `crit.json` is written and read back in one place,
//! [`aml_telemetry::crit`] (`CritReport::render_json`/`from_json`).

use aml_telemetry::CritReport;
use std::fmt::Write;

/// The critical-path chain as a self-contained inline SVG: one bar per
/// chain segment, full-width = the dominant phase's total, the solid
/// part = the segment's own contribution. Same self-containment contract
/// as the rest of `amlreport` (no scripts, no external assets).
pub fn render_crit_svg(report: &CritReport) -> String {
    const W: f64 = 640.0;
    const BAR: f64 = 22.0;
    const GAP: f64 = 6.0;
    const LEFT: f64 = 10.0;
    let rows = report.path.len().max(1);
    let height = rows as f64 * (BAR + GAP) + GAP;
    let mut out = String::with_capacity(2048);
    let _ = write!(
        out,
        "<svg viewBox=\"0 0 {W} {height}\" width=\"{W}\" height=\"{height}\" \
         xmlns=\"http://www.w3.org/2000/svg\" role=\"img\">"
    );
    if report.path.is_empty() {
        let _ = write!(
            out,
            "<text x=\"{LEFT}\" y=\"{}\" font-size=\"12\">no critical path recorded</text>",
            GAP + BAR * 0.7
        );
        out.push_str("</svg>");
        return out;
    }
    let scale = (W - 2.0 * LEFT) / report.path[0].total_ns.max(1) as f64;
    for (i, s) in report.path.iter().enumerate() {
        let y = GAP + i as f64 * (BAR + GAP);
        let total_w = s.total_ns as f64 * scale;
        let contrib_w = s.contribution_ns as f64 * scale;
        let fill = if s.parallel { "#7aa2d4" } else { "#d49a6a" };
        let _ = write!(
            out,
            "<rect x=\"{LEFT}\" y=\"{y:.1}\" width=\"{total_w:.1}\" height=\"{BAR}\" \
             fill=\"{fill}\" opacity=\"0.35\"/>\
             <rect x=\"{LEFT}\" y=\"{y:.1}\" width=\"{contrib_w:.1}\" height=\"{BAR}\" \
             fill=\"{fill}\"/>\
             <text x=\"{:.1}\" y=\"{:.1}\" font-size=\"11\" font-family=\"monospace\">\
             {}{} — {:.2}ms (contrib {:.2}ms)</text>",
            LEFT + 4.0,
            y + BAR * 0.7,
            crate::amlreport::esc(&s.name),
            if s.parallel { " [par]" } else { "" },
            s.total_ns as f64 / 1e6,
            s.contribution_ns as f64 / 1e6,
        );
    }
    out.push_str("</svg>");
    out
}

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
    fn svg_draws_one_bar_per_segment() {
        let report = sample_report();
        let svg = render_crit_svg(&report);
        assert!(svg.starts_with("<svg"), "{svg}");
        // Two rects per segment: total (faded) + contribution (solid).
        assert_eq!(svg.matches("<rect").count(), 2 * report.path.len());
        assert!(svg.contains("bench.datagen"), "{svg}");
        assert!(svg.contains("[par]"), "{svg}");
        let empty = render_crit_svg(&analyze(&[], &aml_telemetry::Registry::new().snapshot()));
        assert!(empty.contains("no critical path"), "{empty}");
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
