//! Causal trace trees: parent-linked spans with **deterministic** ids.
//!
//! The registry answers "how long did `netsim.labeling` take in total?"
//! and the profiler answers "where was the exclusive time?", but neither
//! can say what the *critical path* of a run is — for that every span
//! needs a stable identity and a causal parent, including spans opened
//! inside `std::thread::scope` workers whose OS-thread ancestry says
//! nothing about their logical parent. This module collects exactly that:
//! one [`Node`] per span close, carrying
//!
//! * a [`SpanId`] derived **structurally** (parent id × name hash ×
//!   sibling ordinal — no timestamps, no thread ids, no global counters
//!   racing across threads), so the same program produces the same tree
//!   whether it ran on 1 worker or 8 and golden tests stay byte-pinned;
//! * a parent link, where cross-thread edges are established explicitly
//!   with [`TraceContext`]: capture the context next to the work
//!   enumeration and [`TraceContext::attach`] it inside the worker under a
//!   deterministic `slot` (a stable per-job key) before opening spans.
//!   [`par_map`] is the one fan-out that does this for every job;
//! * interval offsets (`start_ns`/`total_ns` against a process-local
//!   origin) so well-formedness — children nested within parents — is
//!   checkable, plus a `parallel` flag marking handoff roots, which is
//!   what lets the critical-path analyzer ([`crate::crit`]) distinguish
//!   "serial chain" from "parallelizable fan-out".
//!
//! Collection rides the existing span guards exactly like the profiler:
//! with the collector inactive the span hot path pays one extra relaxed
//! atomic load and nothing else (the crate's off-is-free rule). Enabled
//! by `--crit-out` through `RunOpts::prepare`.
//!
//! ```
//! aml_telemetry::set_level(aml_telemetry::TelemetryLevel::Summary);
//! aml_telemetry::tracetree::reset();
//! aml_telemetry::tracetree::set_active(true);
//! {
//!     let _phase = aml_telemetry::span!("doc.phase");
//!     let ctx = aml_telemetry::tracetree::TraceContext::current();
//!     let jobs: Vec<(u64, u64)> = (0..4u64).map(|slot| (slot, slot * 10)).collect();
//!     let out = aml_telemetry::tracetree::par_map(ctx, 2, jobs, |_slot, x| {
//!         let _s = aml_telemetry::span!("doc.work");
//!         x + 1
//!     });
//!     assert_eq!(out, Ok(vec![1, 11, 21, 31]));
//! }
//! aml_telemetry::tracetree::set_active(false);
//! let nodes = aml_telemetry::tracetree::entries();
//! assert_eq!(nodes.len(), 5); // the phase + one attached root per slot
//! aml_telemetry::tracetree::reset();
//! aml_telemetry::set_level(aml_telemetry::TelemetryLevel::Off);
//! ```

use std::cell::{Cell, RefCell};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// A span's stable structural identity (never 0; 0 means "no parent").
pub type SpanId = u64;

/// Whether the trace-tree collector is recording. One relaxed load on
/// the span hot path.
static ACTIVE: AtomicBool = AtomicBool::new(false);

/// Bumped by [`reset`] so stale thread-local root lanes from a previous
/// collection epoch are re-initialized lazily instead of leaking ids in.
static EPOCH: AtomicU64 = AtomicU64::new(1);

/// Next detached root lane (lane 0 is claimed by the thread that calls
/// [`reset`] — the main thread in every harness wiring).
static LANES: AtomicU64 = AtomicU64::new(1);

/// Hard cap on collected nodes; further closes count into
/// [`dropped`] instead of growing without bound.
pub const MAX_NODES: usize = 1 << 20;

/// Turn the collector on or off (typically once, from CLI parsing,
/// before any spans open).
pub fn set_active(on: bool) {
    ACTIVE.store(on, Ordering::Release);
}

/// Whether the collector is recording (one relaxed atomic load).
#[inline]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// One recorded span: a node of the causal trace tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// Structural id (see module docs); unique within a collection.
    pub id: SpanId,
    /// Parent id, or 0 for a root (top-level span on its root lane).
    pub parent: SpanId,
    /// Span name as given to [`crate::span!`].
    pub name: String,
    /// Open offset against the collection origin, in ns.
    pub start_ns: u64,
    /// Wall time between open and close, in ns.
    pub total_ns: u64,
    /// Whether this span is a handoff root — opened directly under a
    /// [`TraceContext::attach`], i.e. one unit of a parallelizable
    /// fan-out rather than a serial child.
    pub parallel: bool,
}

impl Node {
    /// Close offset against the collection origin, in ns.
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.total_ns
    }
}

/// One entry on a thread's open stack: a real span frame, or a handoff
/// marker pushed by [`TraceContext::attach`] that re-parents the spans
/// opened above it.
enum Frame {
    Span {
        id: SpanId,
        name: String,
        start_ns: u64,
        child_seq: u64,
        parallel: bool,
    },
    Handoff {
        parent: SpanId,
        child_seq: u64,
    },
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    /// `(epoch, lane, root_seq)` for top-level spans on this thread.
    static LANE: Cell<Option<(u64, u64, u64)>> = const { Cell::new(None) };
}

fn store() -> &'static Mutex<(Vec<Node>, u64)> {
    static STORE: OnceLock<Mutex<(Vec<Node>, u64)>> = OnceLock::new();
    STORE.get_or_init(|| Mutex::new((Vec::new(), 0)))
}

fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    origin().elapsed().as_nanos() as u64
}

/// FNV-1a over the span name — the only string-dependent id input.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 finalizer: a cheap bijective bit mixer.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `id = mix(mix(parent ⊕ hash(name)) ⊕ ordinal)` — purely structural,
/// so identical program shapes give identical ids regardless of thread
/// count or wall clock. 0 is reserved for "no parent".
fn derive_id(parent: SpanId, name: &str, ordinal: u64) -> SpanId {
    let id = mix(mix(parent ^ fnv1a(name).wrapping_mul(0x9e37_79b9_7f4a_7c15)) ^ ordinal);
    if id == 0 {
        1
    } else {
        id
    }
}

/// Salt separating one attach slot's (or detached lane's) child ordinals
/// from every other's.
fn slot_salt(slot: u64) -> u64 {
    mix(slot.wrapping_add(0xa77a_c4ed_5a17_0001))
}

/// Ordinal for the next top-level span on this thread. Lane 0 (the
/// thread that called [`reset`]) counts 1, 2, …; detached worker lanes
/// get a salted range so their roots cannot collide with the main
/// thread's. Worker spans that *matter* should attach instead — a
/// detached lane number depends on thread scheduling, so those ids are
/// unique but not reproducible.
fn next_root_ordinal() -> u64 {
    let epoch = EPOCH.load(Ordering::Relaxed);
    LANE.with(|l| {
        let (lane, seq) = match l.get() {
            Some((e, lane, seq)) if e == epoch => (lane, seq + 1),
            _ => (LANES.fetch_add(1, Ordering::Relaxed), 1),
        };
        l.set(Some((epoch, lane, seq)));
        if lane == 0 {
            seq
        } else {
            slot_salt(lane).wrapping_add(seq)
        }
    })
}

/// Push a frame for a span named `name`. Called from span open, only
/// when [`active`].
pub(crate) fn on_span_open(name: &str) {
    let start_ns = now_ns();
    STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let (parent, ordinal, parallel) = match stack.last_mut() {
            Some(Frame::Span { id, child_seq, .. }) => {
                *child_seq += 1;
                (*id, *child_seq, false)
            }
            Some(Frame::Handoff { parent, child_seq }) => {
                *child_seq = child_seq.wrapping_add(1);
                (*parent, *child_seq, true)
            }
            None => (0, next_root_ordinal(), false),
        };
        let id = derive_id(parent, name, ordinal);
        stack.push(Frame::Span {
            id,
            name: name.to_string(),
            start_ns,
            child_seq: 0,
            parallel,
        });
    });
}

/// Pop the top span frame and record its [`Node`]. Called from span
/// drop, only for spans that pushed a frame.
pub(crate) fn on_span_close() {
    let node = STACK.with(|s| {
        let mut stack = s.borrow_mut();
        // The top frame is this span's unless guards were dropped out of
        // order (a misuse the RAII API prevents); bail rather than pop a
        // handoff marker that an AttachGuard still owns.
        if !matches!(stack.last(), Some(Frame::Span { .. })) {
            return None;
        }
        let Some(Frame::Span {
            id,
            name,
            start_ns,
            parallel,
            ..
        }) = stack.pop()
        else {
            unreachable!("matched Frame::Span above");
        };
        let parent = match stack.last() {
            Some(Frame::Span { id, .. }) => *id,
            Some(Frame::Handoff { parent, .. }) => *parent,
            None => 0,
        };
        Some(Node {
            id,
            parent,
            name,
            start_ns,
            total_ns: now_ns().saturating_sub(start_ns),
            parallel,
        })
    });
    let Some(node) = node else { return };
    let mut store = store().lock().unwrap_or_else(PoisonError::into_inner);
    if store.0.len() >= MAX_NODES {
        store.1 += 1;
    } else {
        store.0.push(node);
    }
}

/// A capturable point in the trace tree: the innermost open span at the
/// capture site. `Copy + Send`, so it crosses into worker threads by
/// value.
///
/// Capture next to the work enumeration and hand it to [`par_map`],
/// which attaches it under each job's slot inside the worker:
///
/// ```ignore
/// let ctx = TraceContext::current();
/// let jobs: Vec<(u64, Job)> = trials.map(|t| (t.id, t.job)).collect();
/// let out = par_map(ctx, threads, jobs, |trial, job| {
///     let _s = aml_telemetry::span!("worker.item");
///     run(trial, job)
/// })?;
/// ```
///
/// Because the slot is a key of the *job* (its index, or a stable id
/// such as a trial number), not of the thread that ran it, the resulting
/// tree is identical however the jobs were distributed over workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    parent: SpanId,
}

impl TraceContext {
    /// Capture the innermost open span on this thread (parent 0 when
    /// called outside any span, or while the collector is inactive).
    pub fn current() -> TraceContext {
        if !active() {
            return TraceContext { parent: 0 };
        }
        let parent = STACK.with(|s| match s.borrow().last() {
            Some(Frame::Span { id, .. }) => *id,
            Some(Frame::Handoff { parent, .. }) => *parent,
            None => 0,
        });
        TraceContext { parent }
    }

    /// The captured parent id (0 = none). Exposed for tests.
    pub fn parent(&self) -> SpanId {
        self.parent
    }

    /// Re-parent spans subsequently opened on the *calling* thread to
    /// this context, under deterministic `slot`: a stable per-job key,
    /// such as a trial id or a scenario index, unique among the jobs
    /// attached to this context. Spans opened directly under the guard become
    /// `parallel` handoff roots; open exactly one per attach so the
    /// tree's fan-out mirrors the fan-out of the work. The guard restores
    /// the previous parentage on drop and must be dropped after any span
    /// opened under it (the natural RAII order).
    pub fn attach(self, slot: u64) -> AttachGuard {
        if !active() {
            return AttachGuard { pushed: false };
        }
        STACK.with(|s| {
            s.borrow_mut().push(Frame::Handoff {
                parent: self.parent,
                child_seq: slot_salt(slot),
            })
        });
        AttachGuard { pushed: true }
    }
}

/// RAII guard for [`TraceContext::attach`]; pops the handoff marker.
pub struct AttachGuard {
    pushed: bool,
}

impl Drop for AttachGuard {
    fn drop(&mut self) {
        if !self.pushed {
            return;
        }
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if matches!(stack.last(), Some(Frame::Handoff { .. })) {
                stack.pop();
            }
        });
    }
}

/// Run `f(slot, item)` over every `(slot, item)` job on up to `threads`
/// scoped workers and return the results in job order.
///
/// Workers claim jobs one at a time from a shared index, so one costly
/// job holds up one worker rather than a static chunk. Each job runs
/// under `ctx.attach(slot)`, which makes the trace tree, like the
/// output, identical at any worker count. With `threads <= 1` or at
/// most one job, the jobs run inline on the calling thread.
///
/// A panicking job does not take the process down here: `par_map` waits
/// for every worker to finish, then returns the first panic's message as
/// `Err` (the inline path stops at that job). With the profiler active,
/// the caller's time blocked on its workers is charged to a
/// `…;(wait)` stack, not to the caller's own self time.
pub fn par_map<T, R, F>(
    ctx: TraceContext,
    threads: usize,
    jobs: Vec<(u64, T)>,
    f: F,
) -> Result<Vec<R>, String>
where
    T: Send,
    R: Send,
    F: Fn(u64, T) -> R + Sync,
{
    let run = |slot: u64, item: T| {
        let _handoff = ctx.attach(slot);
        f(slot, item)
    };
    if threads <= 1 || jobs.len() <= 1 {
        return std::panic::catch_unwind(AssertUnwindSafe(|| {
            jobs.into_iter()
                .map(|(slot, item)| run(slot, item))
                .collect()
        }))
        .map_err(|payload| panic_message(&*payload));
    }
    let n = jobs.len();
    let jobs: Vec<Mutex<Option<(u64, T)>>> =
        jobs.into_iter().map(|job| Mutex::new(Some(job))).collect();
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(job) = jobs.get(i) else {
                return done;
            };
            let (slot, item) = job
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take()
                .expect("each job is claimed once");
            done.push((i, run(slot, item)));
        }
    };
    let wait_started = (crate::enabled() && crate::profile::active()).then(|| {
        crate::profile::on_span_open("(wait)");
        Instant::now()
    });
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let mut first_panic = None;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.min(n)).map(|_| scope.spawn(worker)).collect();
        for handle in handles {
            match handle.join() {
                Ok(done) => {
                    for (i, r) in done {
                        out[i] = Some(r);
                    }
                }
                Err(payload) => {
                    first_panic.get_or_insert_with(|| panic_message(&*payload));
                }
            }
        }
    });
    if let Some(started) = wait_started {
        crate::profile::on_span_close(started.elapsed().as_nanos() as u64);
    }
    match first_panic {
        Some(message) => Err(message),
        None => Ok(out.into_iter().map(|r| r.expect("every job ran")).collect()),
    }
}

/// Best-effort human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Every recorded node in canonical order, `(parent, id)`. Both keys are
/// structural, so the order never depends on which thread opened or
/// closed its span first: every consumer sees the same sequence at any
/// worker count.
pub fn entries() -> Vec<Node> {
    let store = store().lock().unwrap_or_else(PoisonError::into_inner);
    let mut out = store.0.clone();
    out.sort_by_key(|n| (n.parent, n.id));
    out
}

/// Nodes dropped after [`MAX_NODES`] was reached.
pub fn dropped() -> u64 {
    store().lock().unwrap_or_else(PoisonError::into_inner).1
}

/// Drop all recorded nodes, clear this thread's open stack, and claim
/// root lane 0 for the calling thread (so the harness thread's top-level
/// phases get clean ordinals 1, 2, …).
pub fn reset() {
    let mut store = store().lock().unwrap_or_else(PoisonError::into_inner);
    store.0.clear();
    store.1 = 0;
    drop(store);
    let epoch = EPOCH.fetch_add(1, Ordering::Relaxed) + 1;
    LANES.store(1, Ordering::Relaxed);
    STACK.with(|s| s.borrow_mut().clear());
    LANE.with(|l| l.set(Some((epoch, 0, 0))));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{set_level, span, test_lock, TelemetryLevel};
    use std::collections::HashSet;

    fn collect<F: FnOnce()>(f: F) -> Vec<Node> {
        crate::global().reset();
        reset();
        set_active(true);
        f();
        set_active(false);
        entries()
    }

    /// Thread-count-independent structural projection of a tree.
    fn structure(nodes: &[Node]) -> Vec<(SpanId, SpanId, String, bool)> {
        let mut s: Vec<_> = nodes
            .iter()
            .map(|n| (n.id, n.parent, n.name.clone(), n.parallel))
            .collect();
        s.sort();
        s
    }

    #[test]
    fn same_thread_nesting_builds_a_tree() {
        let _guard = test_lock::hold();
        set_level(TelemetryLevel::Summary);
        let nodes = collect(|| {
            let _root = span("test.tree.root");
            for _ in 0..2 {
                let _mid = span("test.tree.mid");
                let _leaf = span("test.tree.leaf");
            }
        });
        assert_eq!(nodes.len(), 5);
        let root = nodes.iter().find(|n| n.name == "test.tree.root").unwrap();
        assert_eq!(root.parent, 0);
        let mids: Vec<&Node> = nodes.iter().filter(|n| n.name == "test.tree.mid").collect();
        assert_eq!(mids.len(), 2);
        assert!(mids.iter().all(|m| m.parent == root.id));
        assert_ne!(mids[0].id, mids[1].id, "sibling ordinals split ids");
        let leaves: Vec<&Node> = nodes
            .iter()
            .filter(|n| n.name == "test.tree.leaf")
            .collect();
        // Each leaf hangs off its own mid.
        let mid_ids: HashSet<SpanId> = mids.iter().map(|m| m.id).collect();
        assert!(leaves.iter().all(|l| mid_ids.contains(&l.parent)));
        assert!(!nodes.iter().any(|n| n.parallel));
        // Intervals nest.
        for m in &mids {
            assert!(m.start_ns >= root.start_ns && m.end_ns() <= root.end_ns());
        }
        reset();
        set_level(TelemetryLevel::Off);
        crate::global().reset();
    }

    #[test]
    fn ids_are_reproducible_across_collections() {
        let _guard = test_lock::hold();
        set_level(TelemetryLevel::Summary);
        let program = || {
            let _a = span("test.repro.a");
            let _b = span("test.repro.b");
        };
        let first = structure(&collect(program));
        let second = structure(&collect(program));
        assert_eq!(first, second);
        reset();
        set_level(TelemetryLevel::Off);
        crate::global().reset();
    }

    #[test]
    fn handoff_attaches_worker_spans_across_threads() {
        let _guard = test_lock::hold();
        set_level(TelemetryLevel::Summary);
        let run = |workers: usize| {
            collect(|| {
                let _phase = span("test.handoff.phase");
                let jobs: Vec<(u64, ())> = (0..8).map(|slot| (slot, ())).collect();
                par_map(TraceContext::current(), workers, jobs, |_, ()| {
                    let _s = span("test.handoff.item");
                })
                .unwrap();
            })
        };
        let one = run(1);
        let phase = one.iter().find(|n| n.name == "test.handoff.phase").unwrap();
        let items: Vec<&Node> = one
            .iter()
            .filter(|n| n.name == "test.handoff.item")
            .collect();
        assert_eq!(items.len(), 8);
        assert!(items.iter().all(|i| i.parent == phase.id && i.parallel));
        assert_eq!(
            items.iter().map(|i| i.id).collect::<HashSet<_>>().len(),
            8,
            "slots separate ids"
        );
        // The tentpole determinism property: 1 worker and 4 workers
        // produce the identical tree after sort.
        assert_eq!(structure(&one), structure(&run(4)));
        reset();
        set_level(TelemetryLevel::Off);
        crate::global().reset();
    }

    /// Jobs whose cost varies by orders of magnitude, so dynamic claiming
    /// hands them to workers in an order that differs from run to run.
    fn uneven_job(slot: u64, x: u64) -> u64 {
        let spins = if slot.is_multiple_of(5) { 200_000 } else { 10 };
        (0..spins).fold(x, |acc, i| acc.wrapping_mul(31).wrapping_add(i))
    }

    #[test]
    fn par_map_matches_sequential_at_any_thread_count() {
        let jobs = || {
            (0..40u64)
                .map(|slot| (slot, slot * 7 + 1))
                .collect::<Vec<_>>()
        };
        let sequential: Vec<u64> = jobs().into_iter().map(|(s, x)| uneven_job(s, x)).collect();
        for threads in [1, 2, 3, 8] {
            let out = par_map(TraceContext::current(), threads, jobs(), uneven_job);
            assert_eq!(out.as_ref(), Ok(&sequential), "threads = {threads}");
        }
    }

    #[test]
    fn par_map_handles_more_threads_than_jobs_and_no_jobs() {
        let ctx = TraceContext::current();
        let out = par_map(ctx, 16, vec![(4, 'a'), (9, 'b'), (2, 'c')], |slot, c| {
            (slot, c)
        });
        assert_eq!(out, Ok(vec![(4, 'a'), (9, 'b'), (2, 'c')]));
        for threads in [1, 4] {
            let none: Vec<(u64, u8)> = Vec::new();
            assert_eq!(par_map(ctx, threads, none, |_, x| x), Ok(Vec::new()));
        }
    }

    #[test]
    fn par_map_returns_a_job_panic_as_err() {
        for threads in [1, 2, 4] {
            let jobs: Vec<(u64, u64)> = (0..12).map(|slot| (slot, slot)).collect();
            let out = par_map(TraceContext::current(), threads, jobs, |slot, x| {
                if slot == 5 {
                    panic!("job {slot} failed");
                }
                x
            });
            assert_eq!(out, Err("job 5 failed".to_string()), "threads = {threads}");
        }
    }

    #[test]
    fn attach_also_reparents_on_the_same_thread() {
        // The sequential fallback of a parallel site must produce the
        // same tree as the threaded path, so attach works inline too.
        let _guard = test_lock::hold();
        set_level(TelemetryLevel::Summary);
        let nodes = collect(|| {
            let _phase = span("test.inline.phase");
            let ctx = TraceContext::current();
            {
                let _inner = span("test.inline.detour");
                let _h = ctx.attach(3);
                let _s = span("test.inline.item");
            }
        });
        let phase = nodes
            .iter()
            .find(|n| n.name == "test.inline.phase")
            .unwrap();
        let item = nodes.iter().find(|n| n.name == "test.inline.item").unwrap();
        assert_eq!(item.parent, phase.id, "attach shadows the open detour span");
        assert!(item.parallel);
        reset();
        set_level(TelemetryLevel::Off);
        crate::global().reset();
    }

    #[test]
    fn inactive_collector_records_nothing() {
        let _guard = test_lock::hold();
        set_level(TelemetryLevel::Summary);
        crate::global().reset();
        reset();
        assert!(!active());
        {
            let _s = span("test.tree.inactive");
            let ctx = TraceContext::current();
            assert_eq!(ctx.parent(), 0);
            let _h = ctx.attach(0);
        }
        assert!(entries().is_empty());
        assert_eq!(dropped(), 0);
        set_level(TelemetryLevel::Off);
        crate::global().reset();
    }

    // Propcheck: random nesting depth, fan-out width, and worker count;
    // the collected tree must always be well-formed — unique ids, every
    // child's interval nested in its parent's, exactly one root per
    // handoff slot.
    aml_propcheck::proptest! {
        #![proptest_config(aml_propcheck::ProptestConfig::with_cases(24))]
        #[test]
        fn trees_are_well_formed_under_randomized_fanout(
            depth in 1usize..4,
            slots in 1usize..7,
            workers in 1usize..5,
        ) {
            let _guard = test_lock::hold();
            set_level(TelemetryLevel::Summary);
            let nodes = collect(|| {
                fn nest(levels: usize, slots: usize, workers: usize) {
                    let _s = span("test.prop.level");
                    if levels > 1 {
                        nest(levels - 1, slots, workers);
                        return;
                    }
                    let jobs: Vec<(u64, ())> = (0..slots as u64).map(|slot| (slot, ())).collect();
                    par_map(TraceContext::current(), workers, jobs, |_, ()| {
                        let _leaf = span("test.prop.leaf");
                    })
                    .unwrap();
                }
                nest(depth, slots, workers);
            });
            // Unique ids.
            let ids: HashSet<SpanId> = nodes.iter().map(|n| n.id).collect();
            aml_propcheck::prop_assert!(ids.len() == nodes.len(), "duplicate ids: {nodes:?}");
            // Every parent link resolves, and child intervals nest.
            for n in &nodes {
                if n.parent == 0 {
                    continue;
                }
                let parent = nodes.iter().find(|p| p.id == n.parent);
                aml_propcheck::prop_assert!(parent.is_some(), "dangling parent for {n:?}");
                let p = parent.unwrap();
                aml_propcheck::prop_assert!(
                    n.start_ns >= p.start_ns && n.end_ns() <= p.end_ns(),
                    "child interval escapes parent: {n:?} vs {p:?}"
                );
            }
            // Exactly one handoff root per slot, attached to the
            // innermost level span.
            let leaves: Vec<&Node> =
                nodes.iter().filter(|n| n.name == "test.prop.leaf").collect();
            aml_propcheck::prop_assert!(leaves.len() == slots, "want {slots} leaves");
            aml_propcheck::prop_assert!(leaves.iter().all(|l| l.parallel));
            let leaf_parents: HashSet<SpanId> = leaves.iter().map(|l| l.parent).collect();
            aml_propcheck::prop_assert!(
                leaf_parents.len() == 1,
                "leaves scattered: {leaf_parents:?}"
            );
            reset();
            set_level(TelemetryLevel::Off);
            crate::global().reset();
        }
    }
}
