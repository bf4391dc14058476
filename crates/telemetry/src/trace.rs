//! Chrome trace-event exporter: `trace.json` for Perfetto /
//! `chrome://tracing`.
//!
//! [`ChromeTraceSink`] buffers every [`SpanEvent`] of the run and, at
//! flush, writes a JSON object in the [trace-event format] containing:
//!
//! * one `M` (metadata) event naming each thread lane,
//! * a balanced `B`/`E` (begin/end) pair per span close, reconstructing
//!   the span tree — timestamps are microseconds since the run origin, so
//!   viewers lay spans out exactly as they nested,
//! * one `C` (counter) event per final counter value,
//! * run identity (`run_id`, workload, seed, git) under `otherData`.
//!
//! Events are sorted so the file is well-nested even for zero-duration
//! spans, and field order is fixed, making the output deterministic for a
//! given event list (the golden test relies on this).
//!
//! [trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//!
//! The emitted `pid` is a constant `1`: the trace describes one process,
//! and a stable value keeps output diffable across runs.

use crate::json;
use crate::registry::Snapshot;
use crate::sink::{RunHeader, Sink, SpanEvent};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Buffering sink that renders the Chrome trace file at flush time.
pub struct ChromeTraceSink {
    path: PathBuf,
    file: Mutex<std::fs::File>,
    header: RunHeader,
    events: Mutex<Vec<SpanEvent>>,
}

impl ChromeTraceSink {
    /// Create (truncate) `path` now — so an unwritable destination fails
    /// at startup, not after the run — and buffer events until
    /// [`Sink::finish`].
    pub fn create(path: &Path, header: &RunHeader) -> std::io::Result<ChromeTraceSink> {
        Ok(ChromeTraceSink {
            path: path.to_path_buf(),
            file: Mutex::new(std::fs::File::create(path)?),
            header: header.clone(),
            events: Mutex::new(Vec::new()),
        })
    }
}

impl Sink for ChromeTraceSink {
    fn on_span_close(&self, event: &SpanEvent) {
        self.events.lock().unwrap().push(event.clone());
    }

    fn finish(&self, snapshot: &Snapshot) -> std::io::Result<()> {
        use std::io::Write as _;
        let events = self.events.lock().unwrap();
        let json = chrome_trace_json(&events, snapshot, &self.header);
        let mut file = self.file.lock().unwrap();
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

/// Render the trace-event JSON for `events` + final `snapshot` counters.
///
/// Pure and deterministic: same inputs, same bytes. Field order within
/// each event object is fixed (`name`, `cat`, `ph`, `pid`, `tid`, `ts`,
/// then `dur`/`args` where applicable).
pub fn chrome_trace_json(events: &[SpanEvent], snapshot: &Snapshot, header: &RunHeader) -> String {
    // One B and one E per span, ordered so the stream is well-nested even
    // where timestamps tie: at equal ts, ends come before begins, longer
    // spans open first, and shorter spans close first.
    let mut marks: Vec<(f64, Phase, &SpanEvent)> = Vec::with_capacity(events.len() * 2);
    for e in events {
        marks.push((e.start_us, Phase::Begin, e));
        marks.push((e.end_us(), Phase::End, e));
    }
    marks.sort_by(|a, b| {
        a.0.total_cmp(&b.0)
            .then(a.1.cmp(&b.1))
            .then_with(|| match a.1 {
                Phase::Begin => b.2.dur_us.total_cmp(&a.2.dur_us),
                Phase::End => a.2.dur_us.total_cmp(&b.2.dur_us),
            })
    });

    let mut tids: Vec<u64> = events.iter().map(|e| e.tid).collect();
    tids.sort_unstable();
    tids.dedup();

    let end_us = events.iter().map(SpanEvent::end_us).fold(0.0, f64::max);

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

    for tid in &tids {
        let label = if *tid == 0 {
            "main".to_string()
        } else {
            format!("worker-{tid}")
        };
        emit(
            format!(
                "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \"args\": {{\"name\": {}}}}}",
                json::string(&label)
            ),
            &mut out,
        );
    }

    for (ts, phase, e) in &marks {
        let ph = match phase {
            Phase::Begin => "B",
            Phase::End => "E",
        };
        emit(
            format!(
                "{{\"name\": {}, \"cat\": \"span\", \"ph\": \"{ph}\", \"pid\": 1, \"tid\": {}, \"ts\": {ts:.3}}}",
                json::string(&e.name),
                e.tid,
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

    fn ev(name: &str, tid: u64, depth: usize, start_us: f64, dur_us: f64) -> SpanEvent {
        SpanEvent {
            name: name.into(),
            tid,
            depth,
            start_us,
            dur_us,
        }
    }

    #[test]
    fn b_and_e_are_balanced_and_well_nested() {
        // Close order (as sinks see it): child first, then parent —
        // plus a worker-thread span and a zero-duration span.
        let events = vec![
            ev("child", 0, 1, 10.0, 5.0),
            ev("instant", 0, 1, 20.0, 0.0),
            ev("parent", 0, 0, 10.0, 30.0),
            ev("work", 1, 0, 12.0, 6.0),
        ];
        let json = chrome_trace_json(&events, &Snapshot::default(), &RunHeader::default());
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
        // Two thread lanes, named.
        assert!(json.contains("{\"name\": \"main\"}"));
        assert!(json.contains("{\"name\": \"worker-1\"}"));
        // Structural sanity without a JSON parser in this crate.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn counters_become_counter_events_at_run_end() {
        let mut snapshot = Snapshot::default();
        snapshot.counters.push(("netsim.sim.events".into(), 42));
        let events = vec![ev("a", 0, 0, 0.0, 100.0)];
        let json = chrome_trace_json(&events, &snapshot, &RunHeader::default());
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
        // Empty event list still renders a valid, balanced document.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
