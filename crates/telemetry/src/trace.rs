//! Chrome trace-event exporter: `trace.json` for Perfetto /
//! `chrome://tracing`.
//!
//! [`ChromeTraceSink`] holds the open file; at flush it renders the
//! trace-tree nodes ([`crate::tracetree::entries`]) as a JSON object in
//! the [trace-event format] containing:
//!
//! * one `M` (metadata) event naming each lane,
//! * a balanced `B`/`E` (begin/end) pair per span, reconstructing the
//!   span tree — timestamps are microseconds since the collector's
//!   origin, so viewers lay spans out exactly as they nested,
//! * one `C` (counter) event per final counter value,
//! * run identity (`run_id`, workload, seed, git) under `otherData`.
//!
//! Lanes come from the tree, not from OS threads: every root span and
//! every handoff root (a [`crate::tracetree::par_map`] job) opens a lane,
//! and its serial descendants share it. Lanes are numbered in canonical
//! node order and named after their root span, so each lane is one job
//! and the lane set is the same at any worker count.
//!
//! Events are sorted so the file is well-nested even for zero-duration
//! spans, and field order is fixed, making the output deterministic for a
//! given node list (the golden test relies on this).
//!
//! [trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//!
//! The emitted `pid` is a constant `1`: the trace describes one process,
//! and a stable value keeps output diffable across runs.

use crate::json;
use crate::registry::Snapshot;
use crate::sink::{RunHeader, Sink};
use crate::tracetree::{Node, SpanId};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

/// Sink that renders the Chrome trace file from the trace tree at flush
/// time.
pub struct ChromeTraceSink {
    path: PathBuf,
    file: Mutex<std::fs::File>,
    header: RunHeader,
}

impl ChromeTraceSink {
    /// Create (truncate) `path` now — so an unwritable destination fails
    /// at startup, not after the run — and render at [`Sink::finish`].
    pub fn create(path: &Path, header: &RunHeader) -> std::io::Result<ChromeTraceSink> {
        Ok(ChromeTraceSink {
            path: path.to_path_buf(),
            file: Mutex::new(std::fs::File::create(path)?),
            header: header.clone(),
        })
    }
}

impl Sink for ChromeTraceSink {
    fn finish(&self, snapshot: &Snapshot) -> std::io::Result<()> {
        use std::io::Write as _;
        let json = chrome_trace_json(&crate::tracetree::entries(), snapshot, &self.header);
        let mut file = self.file.lock().unwrap_or_else(PoisonError::into_inner);
        file.write_all(json.as_bytes())?;
        file.flush()
    }

    fn target(&self) -> String {
        self.path.display().to_string()
    }
}

/// Phase of a rendered trace event, in the order they must appear when
/// timestamps tie: an `E` at time t precedes a `B` at time t (sequential
/// spans touch without overlapping), and metadata precedes everything.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Phase {
    End,
    Begin,
}

/// Lane of every node, by index into `nodes`, plus the index of each
/// lane's root node. A root span (its parent is not among `nodes`) or a
/// handoff root opens a lane; any other node shares its parent's.
fn lanes(nodes: &[Node]) -> (Vec<usize>, Vec<usize>) {
    let index: HashMap<SpanId, usize> = nodes.iter().enumerate().map(|(i, n)| (n.id, i)).collect();
    let mut roots = Vec::new();
    let mut lane_of: Vec<Option<usize>> = vec![None; nodes.len()];
    for (i, n) in nodes.iter().enumerate() {
        if n.parallel || !index.contains_key(&n.parent) {
            lane_of[i] = Some(roots.len());
            roots.push(i);
        }
    }
    let lanes = (0..nodes.len())
        .map(|mut i| loop {
            match lane_of[i] {
                Some(lane) => break lane,
                None => i = index[&nodes[i].parent],
            }
        })
        .collect();
    (lanes, roots)
}

/// Render the trace-event JSON for trace-tree `nodes` (canonical order,
/// as [`crate::tracetree::entries`] returns them) + final `snapshot`
/// counters.
///
/// Pure and deterministic: same inputs, same bytes. Field order within
/// each event object is fixed (`name`, `cat`, `ph`, `pid`, `tid`, `ts`,
/// then `dur`/`args` where applicable).
pub fn chrome_trace_json(nodes: &[Node], snapshot: &Snapshot, header: &RunHeader) -> String {
    let (lane_of, roots) = lanes(nodes);
    // One B and one E per span, ordered so the stream is well-nested even
    // where timestamps tie: at equal ts, ends come before begins, longer
    // spans open first, and shorter spans close first.
    let mut marks: Vec<(u64, Phase, usize)> = Vec::with_capacity(nodes.len() * 2);
    for (i, n) in nodes.iter().enumerate() {
        marks.push((n.start_ns, Phase::Begin, i));
        marks.push((n.end_ns(), Phase::End, i));
    }
    marks.sort_by(|a, b| {
        let (da, db) = (nodes[a.2].total_ns, nodes[b.2].total_ns);
        a.0.cmp(&b.0)
            .then(a.1.cmp(&b.1))
            .then_with(|| match a.1 {
                Phase::Begin => db.cmp(&da),
                Phase::End => da.cmp(&db),
            })
            .then(a.2.cmp(&b.2))
    });
    let us = |ns: u64| ns as f64 / 1e3;
    let end_us = us(nodes.iter().map(Node::end_ns).max().unwrap_or(0));

    let mut out = String::with_capacity(4096 + marks.len() * 96);
    out.push_str("{\n\"displayTimeUnit\": \"ms\",\n\"otherData\": {");
    let _ = write!(
        out,
        "\"run_id\": {}, \"workload\": {}, \"seed\": \"{}\", \"git\": {}",
        json::string(&header.run_id),
        json::string(&header.workload),
        header.seed,
        json::string(&header.git),
    );
    out.push_str("},\n\"traceEvents\": [\n");

    let mut first = true;
    let mut emit = |line: String, out: &mut String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&line);
    };

    for (tid, &root) in roots.iter().enumerate() {
        emit(
            format!(
                "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \"args\": {{\"name\": {}}}}}",
                json::string(&nodes[root].name)
            ),
            &mut out,
        );
    }

    for &(ts, phase, i) in &marks {
        let ph = match phase {
            Phase::Begin => "B",
            Phase::End => "E",
        };
        emit(
            format!(
                "{{\"name\": {}, \"cat\": \"span\", \"ph\": \"{ph}\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}}}",
                json::string(&nodes[i].name),
                lane_of[i],
                us(ts),
            ),
            &mut out,
        );
    }
    // Final counter values as one counter sample each, stamped at the end
    // of the run so viewers show them on the timeline's right edge.
    for (name, value) in &snapshot.counters {
        emit(
            format!(
                "{{\"name\": {}, \"cat\": \"counter\", \"ph\": \"C\", \"pid\": 1, \"tid\": 0, \"ts\": {end_us:.3}, \"args\": {{\"value\": {value}}}}}",
                json::string(name),
            ),
            &mut out,
        );
    }

    out.push_str("\n]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(id: SpanId, parent: SpanId, name: &str, start_ns: u64, total_ns: u64) -> Node {
        Node {
            id,
            parent,
            name: name.into(),
            start_ns,
            total_ns,
            parallel: false,
        }
    }

    #[test]
    fn b_and_e_are_balanced_and_well_nested() {
        // A parent with a same-start child and a zero-duration child,
        // plus a second root span.
        let nodes = vec![
            node(1, 0, "parent", 10_000, 30_000),
            node(4, 0, "work", 12_000, 6_000),
            node(2, 1, "child", 10_000, 5_000),
            node(3, 1, "instant", 20_000, 0),
        ];
        let json = chrome_trace_json(&nodes, &Snapshot::default(), &RunHeader::default());
        assert_eq!(json.matches("\"ph\": \"B\"").count(), 4);
        assert_eq!(json.matches("\"ph\": \"E\"").count(), 4);
        // Parent opens before its same-ts child (longer duration first).
        let parent_b = json
            .find("\"name\": \"parent\", \"cat\": \"span\", \"ph\": \"B\"")
            .unwrap();
        let child_b = json
            .find("\"name\": \"child\", \"cat\": \"span\", \"ph\": \"B\"")
            .unwrap();
        assert!(parent_b < child_b, "{json}");
        // Two root lanes, named after their root spans.
        assert!(json.contains("\"tid\": 0, \"args\": {\"name\": \"parent\"}"));
        assert!(json.contains("\"tid\": 1, \"args\": {\"name\": \"work\"}"));
        // Structural sanity without a JSON parser in this crate.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn handoff_roots_open_lanes_and_serial_children_share_them() {
        let handoff = |id, parent, name: &str, start_ns| Node {
            parallel: true,
            ..node(id, parent, name, start_ns, 10)
        };
        // Canonical (parent, id) order, as tracetree::entries returns it.
        let nodes = vec![
            node(1, 0, "phase", 0, 100),
            handoff(5, 1, "job", 10),
            handoff(6, 1, "job", 10),
            node(7, 1, "tail", 90, 5),
            node(8, 5, "step", 12, 2),
            node(9, 6, "step", 12, 2),
            node(10, 8, "leaf", 13, 1),
        ];
        let (lane_of, roots) = lanes(&nodes);
        assert_eq!(roots, vec![0, 1, 2], "the root and each handoff root");
        assert_eq!(lane_of, vec![0, 1, 2, 0, 1, 2, 1]);
        let json = chrome_trace_json(&nodes, &Snapshot::default(), &RunHeader::default());
        assert_eq!(json.matches("\"ph\": \"M\"").count(), 3);
        assert!(json.contains("\"tid\": 2, \"args\": {\"name\": \"job\"}"));
        assert!(json.contains(
            "\"name\": \"leaf\", \"cat\": \"span\", \"ph\": \"B\", \"pid\": 1, \"tid\": 1,"
        ));
    }

    #[test]
    fn counters_become_counter_events_at_run_end() {
        let mut snapshot = Snapshot::default();
        snapshot.counters.push(("netsim.sim.events".into(), 42));
        let nodes = vec![node(1, 0, "a", 0, 100_000)];
        let json = chrome_trace_json(&nodes, &snapshot, &RunHeader::default());
        assert!(json.contains(
            "{\"name\": \"netsim.sim.events\", \"cat\": \"counter\", \"ph\": \"C\", \"pid\": 1, \"tid\": 0, \"ts\": 100.000, \"args\": {\"value\": 42}}"
        ));
    }

    #[test]
    fn header_lands_in_other_data() {
        let header = RunHeader {
            run_id: "w-s7-p9".into(),
            workload: "w".into(),
            seed: 7,
            git: "abc".into(),
        };
        let json = chrome_trace_json(&[], &Snapshot::default(), &header);
        assert!(json.contains("\"run_id\": \"w-s7-p9\""));
        assert!(json.contains("\"workload\": \"w\""));
        assert!(json.contains("\"seed\": \"7\""));
        // Empty node list still renders a valid, balanced document.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
