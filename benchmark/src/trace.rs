//! In-memory spans recorded around the benchmark's own calls into each
//! layer. A disabled tracer runs the wrapped call and records nothing.

use crate::procfs;
use std::collections::BTreeMap;
use std::time::Instant;

/// The program layer a span's call goes into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// `aml_netsim::datagen` (simulate and label conditions).
    Netsim,
    /// `aml_fwgen::generate`.
    Fwgen,
    /// `aml_dataset` splits, subsets and concatenation.
    Dataset,
    /// `AutoMl::fit`.
    Automl,
    /// `AleFeedback::analyze`.
    Interpret,
    /// `Classifier::predict` and scoring.
    Models,
    /// The feedback loop itself: rounds and point selection.
    Core,
}

impl Layer {
    pub const ALL: [Layer; 7] = [
        Layer::Netsim,
        Layer::Fwgen,
        Layer::Dataset,
        Layer::Automl,
        Layer::Interpret,
        Layer::Models,
        Layer::Core,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Netsim => "netsim",
            Layer::Fwgen => "fwgen",
            Layer::Dataset => "dataset",
            Layer::Automl => "automl",
            Layer::Interpret => "interpret",
            Layer::Models => "models",
            Layer::Core => "core",
        }
    }
}

/// One timed call. Times are seconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub layer: Layer,
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    /// Feedback round (or label batch) the span belongs to.
    pub round: u64,
    /// Process CPU seconds used while the span was open (all threads).
    pub cpu_s: Option<f64>,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

struct Open {
    index: usize,
    cpu_at_start: Option<f64>,
}

/// Span recorder plus named counters and per-call samples.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<Open>,
    round: u64,
    counts: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            round: 0,
            counts: BTreeMap::new(),
            samples: BTreeMap::new(),
        }
    }

    /// Tag spans opened from now on with round `round`.
    pub fn set_round(&mut self, round: u64) {
        self.round = round;
    }

    /// Open a span; it becomes the parent of spans opened before
    /// [`Tracer::close`] is called on it.
    pub fn open(&mut self, layer: Layer, name: &'static str) {
        if !self.enabled {
            return;
        }
        let cpu_at_start = procfs::process_cpu_s();
        self.spans.push(Span {
            layer,
            name,
            start: self.origin.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: self.stack.last().map(|o| o.index),
            round: self.round,
            cpu_s: None,
        });
        self.stack.push(Open {
            index: self.spans.len() - 1,
            cpu_at_start,
        });
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        let open = self.stack.pop().expect("close matches an open");
        let end = self.origin.elapsed().as_secs_f64();
        let cpu_end = procfs::process_cpu_s();
        let span = &mut self.spans[open.index];
        span.end = end;
        span.cpu_s = open.cpu_at_start.zip(cpu_end).map(|(a, b)| b - a);
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, layer: Layer, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.open(layer, name);
        let out = f();
        self.close();
        out
    }

    /// Add `v` to counter `key`.
    pub fn count(&mut self, key: &'static str, v: f64) {
        if self.enabled {
            *self.counts.entry(key).or_default() += v;
        }
    }

    /// Record one per-call sample under `key`.
    pub fn sample(&mut self, key: &'static str, v: f64) {
        if self.enabled {
            self.samples.entry(key).or_default().push(v);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn counter(&self, key: &str) -> f64 {
        self.counts.get(key).copied().unwrap_or(0.0)
    }

    pub fn samples(&self, key: &str) -> &[f64] {
        self.samples.get(key).map_or(&[], Vec::as_slice)
    }
}

/// Length of `[lo, hi]` covered by the union of `intervals`, each clipped
/// to `[lo, hi]`. Overlapping intervals (children run in parallel) count
/// once.
pub fn covered(lo: f64, hi: f64, intervals: &[(f64, f64)]) -> f64 {
    let mut clipped: Vec<(f64, f64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| b > a)
        .collect();
    clipped.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (a, b) in clipped {
        match current {
            Some((ca, cb)) if a <= cb => current = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                current = Some((a, b));
            }
            None => current = Some((a, b)),
        }
    }
    total + current.map_or(0.0, |(a, b)| b - a)
}

/// Each span's self time: its duration minus the part of it that its
/// direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| s.duration() - covered(s.start, s.end, kids))
        .collect()
}

/// Totals of one layer over a span list.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTotals {
    /// Calls into the layer (spans not nested in a span of the same layer).
    pub calls: usize,
    /// Wall time of those calls.
    pub busy_s: f64,
    /// Self time of every span of the layer.
    pub self_s: f64,
    /// CPU seconds of those calls; `None` if any reading was unavailable.
    pub cpu_s: Option<f64>,
    /// Per-call wall times.
    pub call_s: Vec<f64>,
}

pub fn layer_totals(spans: &[Span], self_s: &[f64], layer: Layer) -> LayerTotals {
    let mut t = LayerTotals {
        cpu_s: Some(0.0),
        ..Default::default()
    };
    for (s, own) in spans.iter().zip(self_s) {
        if s.layer != layer {
            continue;
        }
        t.self_s += own;
        let nested = s.parent.is_some_and(|p| spans[p].layer == layer);
        if !nested {
            t.calls += 1;
            t.busy_s += s.duration();
            t.call_s.push(s.duration());
            t.cpu_s = t.cpu_s.zip(s.cpu_s).map(|(a, b)| a + b);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            layer,
            name: "t",
            start,
            end,
            parent,
            round: 0,
            cpu_s: Some(end - start),
        }
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn union_of_disjoint_overlapping_and_clipped_intervals() {
        assert!(close(covered(0.0, 10.0, &[]), 0.0));
        assert!(close(covered(0.0, 10.0, &[(1.0, 2.0), (4.0, 6.0)]), 3.0));
        assert!(close(covered(0.0, 10.0, &[(1.0, 5.0), (3.0, 7.0)]), 6.0));
        assert!(close(covered(0.0, 10.0, &[(2.0, 3.0), (1.0, 9.0)]), 8.0));
        assert!(close(covered(0.0, 10.0, &[(-5.0, 2.0), (9.0, 15.0)]), 3.0));
        assert!(close(covered(0.0, 10.0, &[(11.0, 12.0)]), 0.0));
    }

    #[test]
    fn nested_spans_subtract_only_direct_children() {
        // root [0,10] > child [1,6] > grandchild [2,5]; child [7,8].
        let spans = vec![
            span(Layer::Core, 0.0, 10.0, None),
            span(Layer::Automl, 1.0, 6.0, Some(0)),
            span(Layer::Models, 2.0, 5.0, Some(1)),
            span(Layer::Netsim, 7.0, 8.0, Some(0)),
        ];
        let own = self_times(&spans);
        assert!(close(own[0], 10.0 - 5.0 - 1.0));
        assert!(close(own[1], 5.0 - 3.0));
        assert!(close(own[2], 3.0));
        assert!(close(own[3], 1.0));
        // Self times partition the root's wall.
        assert!(close(own.iter().sum::<f64>(), 10.0));
    }

    #[test]
    fn parallel_children_are_not_double_counted() {
        // Two workers run overlapping children [1,5] and [2,6] under one
        // parent [0,8]: the parent's own time is 8 - 5 = 3.
        let spans = vec![
            span(Layer::Netsim, 0.0, 8.0, None),
            span(Layer::Netsim, 1.0, 5.0, Some(0)),
            span(Layer::Netsim, 2.0, 6.0, Some(0)),
        ];
        let own = self_times(&spans);
        assert!(close(own[0], 3.0));
        let t = layer_totals(&spans, &own, Layer::Netsim);
        // Nested same-layer spans are not separate calls.
        assert_eq!(t.calls, 1);
        assert!(close(t.busy_s, 8.0));
        assert!(close(t.cpu_s.unwrap(), 8.0));
    }

    #[test]
    fn layer_totals_split_by_layer() {
        let spans = vec![
            span(Layer::Core, 0.0, 10.0, None),
            span(Layer::Core, 1.0, 2.0, Some(0)),
            span(Layer::Automl, 2.0, 6.0, Some(0)),
            span(Layer::Automl, 6.0, 9.0, Some(0)),
        ];
        let own = self_times(&spans);
        let core = layer_totals(&spans, &own, Layer::Core);
        assert_eq!(core.calls, 1);
        assert!(close(core.busy_s, 10.0));
        assert!(close(core.self_s, 2.0 + 1.0));
        let automl = layer_totals(&spans, &own, Layer::Automl);
        assert_eq!(automl.calls, 2);
        assert_eq!(automl.call_s, vec![4.0, 3.0]);
        assert_eq!(layer_totals(&spans, &own, Layer::Netsim).calls, 0);
    }

    #[test]
    fn missing_cpu_reading_makes_cpu_absent() {
        let mut spans = vec![span(Layer::Netsim, 0.0, 1.0, None)];
        spans[0].cpu_s = None;
        let own = self_times(&spans);
        assert_eq!(layer_totals(&spans, &own, Layer::Netsim).cpu_s, None);
    }

    #[test]
    fn tracer_links_parents_and_rounds() {
        let mut tr = Tracer::new(true);
        tr.set_round(3);
        tr.open(Layer::Core, "core.round");
        let v = tr.span(Layer::Automl, "automl.fit", || 7);
        tr.close();
        assert_eq!(v, 7);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.round == 3 && s.end >= s.start));
        let mut off = Tracer::new(false);
        off.span(Layer::Netsim, "netsim", || ());
        off.count("netsim.rows", 4.0);
        assert!(off.spans().is_empty());
        assert_eq!(off.counter("netsim.rows"), 0.0);
    }
}
