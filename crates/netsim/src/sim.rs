//! The simulation core: one bottleneck, `n_flows` senders of one protocol,
//! an event loop, and statistics.
//!
//! See the crate docs for the topology. The link is computed, not
//! simulated: `link_free_at` is when the bottleneck finishes its last
//! admitted packet, so a packet admitted at `now` starts service at
//! `max(now, link_free_at)` and its ACK is scheduled right then, at its
//! departure plus a full round trip of propagation. The packet's delivery
//! (delay sample, goodput bytes) is taken when that ACK pops, at `now −
//! prop_half`. `link_free_at` never decreases and `prop_half` is fixed, so
//! ACKs are scheduled in time order and go through the event queue's FIFO
//! lane ([`EventQueue::schedule_in_order`]); only flow starts, pacing
//! wakes and RTO checks go through its heap. Invariants the tests pin
//! down:
//!
//! * conservation — every sent packet is acknowledged, dropped at the
//!   queue, lost on the link, or has its ACK still queued at the end;
//! * one event per packet — the loop processes at most one event per sent
//!   packet, plus flow starts, pacing wakes and timeout pops;
//! * ACKs skip the heap — the heap holds a few events per flow, however
//!   many ACKs are in flight;
//! * determinism — identical `(config, seed)` ⇒ identical statistics;
//! * liveness — a per-flow RTO timer (one queued timer per flow) guarantees
//!   the event loop never stalls while a flow has outstanding data.

use crate::cc::CcKind;
use crate::event::{Event, EventQueue};
use crate::flow::Flow;
use crate::queue::DropTailQueue;
use crate::red::RedQueue;
use crate::scenario::NetworkCondition;
use crate::time::{serialization_time, Duration, SimTime};
use crate::{Result, SimError};
use aml_rng::rngs::StdRng;
use aml_rng::{Rng, SeedableRng};

/// Bottleneck queue discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueKind {
    /// Plain drop-tail FIFO (the Pantheon-style default).
    DropTail,
    /// RED active queue management ([`crate::red`]).
    Red,
}

/// The configured bottleneck queue (internal dispatch).
enum Queue {
    DropTail(DropTailQueue),
    Red(RedQueue),
}

impl Queue {
    /// Offer a packet arriving at `now` that would start service at
    /// `start`; `true` if admitted.
    fn enqueue(&mut self, now: SimTime, start: SimTime, size: u32) -> bool {
        match self {
            Queue::DropTail(q) => q.enqueue(now, start, size),
            Queue::Red(q) => q.enqueue(now, start, size),
        }
    }

    fn drops(&self) -> u64 {
        match self {
            Queue::DropTail(q) => q.drops,
            Queue::Red(q) => q.drops,
        }
    }
}

/// Simulator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// The emulated network.
    pub condition: NetworkCondition,
    /// Protocol all flows run.
    pub protocol: CcKind,
    /// Total simulated duration (stats cover `warmup..duration`).
    pub duration: Duration,
    /// Warm-up period excluded from statistics.
    pub warmup: Duration,
    /// Packet size in bytes.
    pub mss: u32,
    /// Bottleneck queue capacity as a multiple of the BDP (Pantheon-style
    /// drop-tail buffering; 1.0 = one BDP).
    pub queue_bdp_mult: f64,
    /// Queue discipline at the bottleneck.
    pub queue_kind: QueueKind,
    /// RNG seed (random loss and RED early drops; nothing else is
    /// stochastic).
    pub seed: u64,
}

impl SimConfig {
    /// Sensible defaults for a condition: duration adapts to the RTT so slow
    /// paths still see enough round trips (≥ 15 RTTs measured).
    pub fn for_condition(condition: NetworkCondition, protocol: CcKind, seed: u64) -> Self {
        let rtt = Duration::from_secs_f64(condition.rtt_ms / 1e3);
        SimConfig {
            condition,
            protocol,
            duration: Duration::from_millis(1500).max(rtt.mul_f64(20.0)),
            warmup: Duration::from_millis(300).max(rtt.mul_f64(5.0)),
            mss: 1500,
            queue_bdp_mult: 1.0,
            queue_kind: QueueKind::DropTail,
            seed,
        }
    }

    fn validate(&self) -> Result<()> {
        self.condition.validate()?;
        if self.warmup >= self.duration {
            return Err(SimError::InvalidConfig(
                "warmup must be shorter than duration".into(),
            ));
        }
        if self.mss < 64 || self.mss > 9000 {
            return Err(SimError::InvalidConfig(format!(
                "mss {} outside 64..=9000",
                self.mss
            )));
        }
        if !(self.queue_bdp_mult > 0.0 && self.queue_bdp_mult.is_finite()) {
            return Err(SimError::InvalidConfig(
                "queue_bdp_mult must be positive".into(),
            ));
        }
        Ok(())
    }
}

/// Per-flow statistics over the measurement window.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowStats {
    /// Goodput in Mbit/s.
    pub throughput_mbps: f64,
    /// Mean one-way packet delay in ms (`INFINITY` if nothing delivered).
    pub mean_delay_ms: f64,
    /// 95th-percentile one-way delay in ms.
    pub p95_delay_ms: f64,
    /// Mean RTT in ms.
    pub mean_rtt_ms: f64,
    /// Packets the sender declared lost.
    pub lost_packets: u64,
    /// Packets delivered within the measurement window.
    pub delivered_packets: usize,
}

/// Aggregate outcome of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Per-flow stats.
    pub flows: Vec<FlowStats>,
    /// Total goodput across flows (Mbit/s).
    pub total_throughput_mbps: f64,
    /// Delay-sample-weighted mean one-way delay (ms).
    pub mean_delay_ms: f64,
    /// Pooled 95th-percentile one-way delay (ms).
    pub p95_delay_ms: f64,
    /// Packets dropped at the bottleneck queue.
    pub queue_drops: u64,
}

/// The simulator. Build with [`Simulation::new`], run with
/// [`Simulation::run`] (consumes the simulation).
pub struct Simulation {
    cfg: SimConfig,
    flows: Vec<Flow>,
    events: EventQueue,
    queue: Queue,
    /// When the bottleneck finishes serializing its last admitted packet.
    link_free_at: SimTime,
    rng: StdRng,
    now: SimTime,
    link_rate_bps: f64,
    /// Serialization time of one `mss` packet at the link rate.
    ser: Duration,
    prop_half: Duration,
    /// Packets killed by random loss (for conservation accounting).
    link_losses: u64,
    /// ACKs popped: packets that reached the receiver.
    delivered: u64,
    sent: u64,
    /// Events popped per kind, live or not.
    #[cfg(test)]
    pops: Pops,
}

/// Per-kind event pop counts (tests only; ACK pops are `delivered`),
/// and the most events the heap lane ever held after a dispatch.
#[cfg(test)]
#[derive(Debug, Default)]
struct Pops {
    flow_starts: u64,
    wakes: u64,
    timeouts: u64,
    heap_peak: usize,
}

#[cfg(test)]
impl Pops {
    fn count(&mut self, event: &Event) {
        match event {
            Event::FlowStart { .. } => self.flow_starts += 1,
            Event::SenderWake { .. } => self.wakes += 1,
            Event::Timeout { .. } => self.timeouts += 1,
            Event::AckArrival { .. } => {}
        }
    }
}

impl Simulation {
    /// Construct a simulation (validates the configuration).
    pub fn new(cfg: SimConfig) -> Result<Self> {
        cfg.validate()?;
        let cond = cfg.condition;
        let link_rate_bps = cond.link_rate_mbps * 1e6;
        let flows = (0..cond.n_flows)
            .map(|id| Flow::new(id, cfg.protocol.build()))
            .collect();
        let queue_capacity =
            ((cond.bdp_bytes() as f64 * cfg.queue_bdp_mult) as u64).max(2 * cfg.mss as u64);
        let queue = match cfg.queue_kind {
            QueueKind::DropTail => Queue::DropTail(DropTailQueue::new(queue_capacity)),
            QueueKind::Red => Queue::Red(RedQueue::new(queue_capacity, cfg.seed ^ 0xA0_11)),
        };
        Ok(Simulation {
            rng: StdRng::seed_from_u64(cfg.seed),
            flows,
            events: EventQueue::new(),
            queue,
            link_free_at: SimTime::ZERO,
            now: SimTime::ZERO,
            link_rate_bps,
            ser: serialization_time(cfg.mss, link_rate_bps),
            prop_half: Duration::from_secs_f64(cond.rtt_ms / 2e3),
            link_losses: 0,
            delivered: 0,
            sent: 0,
            #[cfg(test)]
            pops: Pops::default(),
            cfg,
        })
    }

    /// Run to completion and return the statistics.
    pub fn run(mut self) -> Result<SimOutcome> {
        let processed = self.run_events()?;
        // Telemetry is flushed once per run from the loop's local tallies —
        // the event loop itself stays free of atomics.
        if aml_telemetry::enabled() {
            aml_telemetry::counter_add("netsim.sim.runs", 1);
            aml_telemetry::counter_add("netsim.sim.events", processed);
            aml_telemetry::counter_add("netsim.sim.packets_sent", self.sent);
            aml_telemetry::counter_add("netsim.sim.packets_delivered", self.delivered);
        }
        Ok(self.finish())
    }

    /// The event loop; returns the number of events processed.
    fn run_events(&mut self) -> Result<u64> {
        // Stagger flow starts by 10 ms to avoid artificial phase locking.
        for f in 0..self.flows.len() {
            self.events.schedule(
                SimTime::ZERO + Duration::from_millis(10 * f as u64),
                Event::FlowStart { flow: f },
            );
        }

        // Safety valve: the event count is physically bounded by
        // link-rate × duration × constant; 64× that means a logic bug.
        let max_events = 64
            * (self.link_rate_bps * self.cfg.duration.as_secs_f64() / (8.0 * self.cfg.mss as f64))
                as u64
            + 1_000_000;
        let mut processed = 0u64;

        let end = SimTime::ZERO + self.cfg.duration + self.prop_half + self.prop_half;
        while let Some((at, event)) = self.events.pop_until(end) {
            self.now = at;
            processed += 1;
            #[cfg(test)]
            self.pops.count(&event);
            if processed > max_events {
                return Err(SimError::InvalidConfig(format!(
                    "event budget exceeded ({max_events}); simulation is livelocked"
                )));
            }
            self.dispatch(event);
            #[cfg(test)]
            {
                self.pops.heap_peak = self.pops.heap_peak.max(self.events.heap_len());
            }
        }
        Ok(processed)
    }

    fn dispatch(&mut self, event: Event) {
        match event {
            Event::FlowStart { flow } => {
                self.flows[flow].started = true;
                self.flows[flow].last_ack_time = self.now;
                self.try_send(flow);
                self.arm_timeout(flow);
            }
            Event::SenderWake { flow } => {
                self.flows[flow].wake_scheduled = false;
                self.try_send(flow);
            }
            Event::AckArrival {
                flow,
                seq,
                sent_at,
                bytes,
            } => {
                // The receiver got the packet half a round trip ago and
                // acked at once; the ACK path is clean.
                self.delivered += 1;
                let delivered_at = self.now - self.prop_half;
                if self.in_window(delivered_at) {
                    let f = &mut self.flows[flow];
                    f.delay_samples
                        .push(delivered_at.since(sent_at).as_secs_f64());
                    f.measured_bytes += bytes as u64;
                }
                let in_window = self.in_window(self.now);
                if let Some(ev) = self.flows[flow].on_ack(seq, sent_at, bytes, self.now) {
                    if in_window {
                        self.flows[flow].rtt_samples.push(ev.rtt.as_secs_f64());
                    }
                    self.arm_timeout(flow);
                }
                self.try_send(flow);
            }
            Event::Timeout { flow, seq } => {
                let f = &mut self.flows[flow];
                if f.queued_timer != Some((self.now, seq)) {
                    return; // superseded by a sooner re-arm
                }
                f.queued_timer = None;
                if f.timer.1 != seq {
                    // Re-armed since it was queued: wait for the logical
                    // timer under the seq reserved for it.
                    queue_timer(&mut self.events, f);
                    return;
                }
                let deadline = f.last_ack_time + f.rto();
                if !f.inflight.is_empty() && self.now >= deadline {
                    self.flows[flow].on_timeout(self.now);
                    // Treat the timeout as an implicit "ack activity" marker
                    // so the next RTO counts from now.
                    self.flows[flow].last_ack_time = self.now;
                }
                self.arm_timeout(flow);
                self.try_send(flow);
            }
        }
    }

    /// Send as much as window + pacing allow for `flow`.
    fn try_send(&mut self, flow: usize) {
        loop {
            let mss = self.cfg.mss;
            let f = &self.flows[flow];
            if !f.started || !f.can_send(mss) {
                return;
            }
            if f.cc.pacing_rate_bps().is_some() && f.next_send_time > self.now {
                let wake_at = f.next_send_time;
                if !f.wake_scheduled {
                    self.flows[flow].wake_scheduled = true;
                    self.events.schedule(wake_at, Event::SenderWake { flow });
                }
                return;
            }

            let f = &mut self.flows[flow];
            let seq = f.next_seq;
            f.next_seq += 1;
            f.on_send(seq, mss, self.now);
            self.sent += 1;
            if let Some(rate) = f.cc.pacing_rate_bps() {
                let gap = serialization_time(mss, rate);
                f.next_send_time = f.next_send_time.max(self.now) + gap;
            }

            // Random (non-congestive) path loss.
            if self.rng.gen::<f64>() < self.cfg.condition.loss_rate {
                self.link_losses += 1;
                continue; // vanishes; the gap/RTO machinery will notice
            }
            let start = self.link_free_at.max(self.now);
            if self.queue.enqueue(self.now, start, mss) {
                self.link_free_at = start + self.ser;
                self.events.schedule_in_order(
                    self.link_free_at + self.prop_half + self.prop_half,
                    Event::AckArrival {
                        flow,
                        seq,
                        sent_at: self.now,
                        bytes: mss,
                    },
                );
            }
        }
    }

    /// Whether `at` falls in the measurement window `[warmup, duration]`.
    fn in_window(&self, at: SimTime) -> bool {
        at >= SimTime::ZERO + self.cfg.warmup && at <= SimTime::ZERO + self.cfg.duration
    }

    /// (Re)arm the flow's RTO timer. The timer is always strictly in the
    /// future (≥ now + RTO/4) — scheduling at `now` would let an idle flow
    /// re-fire the same instant forever.
    ///
    /// Arming reserves the next event seq, so the logical timer `(due,
    /// seq)` fires exactly where a fresh event per arm would. A new event
    /// is queued only when the flow's queued one would pop later than
    /// that; otherwise the queued one re-queues itself at `(due, seq)`
    /// when it pops (see `dispatch`).
    fn arm_timeout(&mut self, flow: usize) {
        let f = &mut self.flows[flow];
        let due = (f.last_ack_time + f.rto()).max(self.now + f.rto().mul_f64(0.25));
        f.timer = (due, self.events.reserve());
        if f.queued_timer.is_none_or(|live| live > f.timer) {
            queue_timer(&mut self.events, f);
        }
    }

    fn finish(mut self) -> SimOutcome {
        let measure_secs = (self.cfg.duration - self.cfg.warmup).as_secs_f64();
        let mut flows = Vec::with_capacity(self.flows.len());
        let mut all_delays: Vec<f64> = Vec::new();
        let mut total_tp = 0.0;
        for f in &mut self.flows {
            let tp = f.measured_bytes as f64 * 8.0 / measure_secs / 1e6;
            total_tp += tp;
            // Pool the samples in arrival order before `delay_stats`
            // reorders them: the pooled mean sums in this order.
            all_delays.extend_from_slice(&f.delay_samples);
            let (mean_d, p95_d) = delay_stats(&mut f.delay_samples);
            let mean_rtt = if f.rtt_samples.is_empty() {
                f64::INFINITY
            } else {
                f.rtt_samples.iter().sum::<f64>() / f.rtt_samples.len() as f64 * 1e3
            };
            flows.push(FlowStats {
                throughput_mbps: tp,
                mean_delay_ms: mean_d,
                p95_delay_ms: p95_d,
                mean_rtt_ms: mean_rtt,
                lost_packets: f.lost_packets,
                delivered_packets: f.delay_samples.len(),
            });
        }
        let (mean_delay_ms, p95_delay_ms) = delay_stats(&mut all_delays);
        SimOutcome {
            flows,
            total_throughput_mbps: total_tp,
            mean_delay_ms,
            p95_delay_ms,
            queue_drops: self.queue.drops(),
        }
    }
}

/// Queue `f`'s logical timer under its reserved seq as the flow's live
/// queued timer. There is at most one: a new one only ever supersedes a
/// live one that would pop later.
fn queue_timer(events: &mut EventQueue, f: &mut Flow) {
    debug_assert!(
        f.queued_timer.is_none_or(|live| live > f.timer),
        "flow {} already has a live queued timer",
        f.id
    );
    let (due, seq) = f.timer;
    events.schedule_reserved(due, seq, Event::Timeout { flow: f.id, seq });
    f.queued_timer = Some(f.timer);
}

/// `(mean, p95)` of delay samples in milliseconds; infinities when empty.
/// The p95 is the element at index `round((n - 1) · 0.95)` of the sorted
/// samples, found by selection; `samples` is left reordered.
fn delay_stats(samples: &mut [f64]) -> (f64, f64) {
    if samples.is_empty() {
        return (f64::INFINITY, f64::INFINITY);
    }
    let mean = samples.iter().sum::<f64>() / samples.len() as f64 * 1e3;
    let idx = ((samples.len() as f64 - 1.0) * 0.95).round() as usize;
    let (_, p95, _) =
        samples.select_nth_unstable_by(idx, |a, b| a.partial_cmp(b).expect("delays are finite"));
    (mean, *p95 * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cond(mbps: f64, rtt_ms: f64, loss: f64, flows: usize) -> NetworkCondition {
        NetworkCondition {
            link_rate_mbps: mbps,
            rtt_ms,
            loss_rate: loss,
            n_flows: flows,
        }
    }

    fn run(kind: CcKind, c: NetworkCondition, seed: u64) -> SimOutcome {
        Simulation::new(SimConfig::for_condition(c, kind, seed))
            .unwrap()
            .run()
            .unwrap()
    }

    #[test]
    fn cubic_saturates_a_clean_link() {
        let out = run(CcKind::Cubic, cond(10.0, 40.0, 0.0, 1), 1);
        assert!(
            out.total_throughput_mbps > 8.0,
            "cubic on clean 10 Mbps reached only {} Mbps",
            out.total_throughput_mbps
        );
        assert!(out.mean_delay_ms.is_finite());
    }

    #[test]
    fn throughput_cannot_exceed_link_rate() {
        for kind in CcKind::ALL {
            let out = run(kind, cond(8.0, 30.0, 0.0, 2), 2);
            assert!(
                out.total_throughput_mbps <= 8.5,
                "{} exceeded link rate: {}",
                kind.name(),
                out.total_throughput_mbps
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(CcKind::Reno, cond(12.0, 50.0, 0.01, 2), 7);
        let b = run(CcKind::Reno, cond(12.0, 50.0, 0.01, 2), 7);
        assert_eq!(a, b);
    }

    #[test]
    fn seed_matters_with_random_loss() {
        let a = run(CcKind::Reno, cond(12.0, 50.0, 0.02, 1), 7);
        let b = run(CcKind::Reno, cond(12.0, 50.0, 0.02, 1), 8);
        assert_ne!(a, b);
    }

    #[test]
    fn delay_includes_propagation_floor() {
        // One-way delay ≥ propagation half-RTT.
        let out = run(CcKind::Vegas, cond(10.0, 80.0, 0.0, 1), 3);
        assert!(
            out.mean_delay_ms >= 40.0,
            "mean delay {}",
            out.mean_delay_ms
        );
    }

    #[test]
    fn cubic_builds_more_queue_than_scream() {
        // Deep buffer (2 BDP): the loss-based protocol fills it, the
        // delay-targeting one does not — the core "Scream wins on latency"
        // mechanism of the running example.
        let c = cond(20.0, 60.0, 0.0, 1);
        let mut cfg_cubic = SimConfig::for_condition(c, CcKind::Cubic, 4);
        cfg_cubic.queue_bdp_mult = 2.0;
        let cubic = Simulation::new(cfg_cubic).unwrap().run().unwrap();
        let mut cfg_scream = SimConfig::for_condition(c, CcKind::Scream, 4);
        cfg_scream.queue_bdp_mult = 2.0;
        let scream = Simulation::new(cfg_scream).unwrap().run().unwrap();
        assert!(
            scream.mean_delay_ms < cubic.mean_delay_ms,
            "scream {} ms should beat cubic {} ms in deep buffers",
            scream.mean_delay_ms,
            cubic.mean_delay_ms
        );
    }

    #[test]
    fn scream_collapses_under_heavy_random_loss() {
        // At 5% random loss, halve-on-loss Scream should get much less
        // throughput than loss-blind BBR.
        let c = cond(20.0, 40.0, 0.05, 1);
        let scream = run(CcKind::Scream, c, 5);
        let bbr = run(CcKind::Bbr, c, 5);
        assert!(
            bbr.total_throughput_mbps > 1.5 * scream.total_throughput_mbps,
            "bbr {} vs scream {}",
            bbr.total_throughput_mbps,
            scream.total_throughput_mbps
        );
    }

    #[test]
    fn multiple_flows_share_the_link() {
        let out = run(CcKind::Cubic, cond(12.0, 40.0, 0.0, 3), 6);
        assert_eq!(out.flows.len(), 3);
        // All flows make progress.
        for (i, f) in out.flows.iter().enumerate() {
            assert!(
                f.throughput_mbps > 0.5,
                "flow {i} starved: {} Mbps",
                f.throughput_mbps
            );
        }
        assert!(out.total_throughput_mbps <= 12.5);
    }

    #[test]
    fn random_loss_is_detected_and_counted() {
        let out = run(CcKind::Reno, cond(10.0, 40.0, 0.03, 1), 9);
        let lost: u64 = out.flows.iter().map(|f| f.lost_packets).sum();
        assert!(lost > 0, "3% loss must be observed");
    }

    #[test]
    fn invalid_config_rejected() {
        let c = cond(10.0, 40.0, 0.0, 1);
        let mut cfg = SimConfig::for_condition(c, CcKind::Reno, 0);
        cfg.warmup = cfg.duration;
        assert!(Simulation::new(cfg).is_err());
        let mut cfg2 = SimConfig::for_condition(c, CcKind::Reno, 0);
        cfg2.mss = 10;
        assert!(Simulation::new(cfg2).is_err());
    }

    #[test]
    fn red_queue_runs_and_tames_cubic_delay() {
        // AQM sheds load early, so the loss-based protocol sees shorter
        // standing queues than under drop-tail.
        let c = cond(10.0, 60.0, 0.0, 1);
        let mut droptail = SimConfig::for_condition(c, CcKind::Cubic, 3);
        droptail.queue_bdp_mult = 2.0;
        let dt = Simulation::new(droptail).unwrap().run().unwrap();
        let mut red = SimConfig::for_condition(c, CcKind::Cubic, 3);
        red.queue_bdp_mult = 2.0;
        red.queue_kind = QueueKind::Red;
        let rd = Simulation::new(red).unwrap().run().unwrap();
        assert!(
            rd.mean_delay_ms < dt.mean_delay_ms,
            "RED {} ms should beat drop-tail {} ms for cubic",
            rd.mean_delay_ms,
            dt.mean_delay_ms
        );
        // And it still moves useful traffic.
        assert!(
            rd.total_throughput_mbps > 4.0,
            "{}",
            rd.total_throughput_mbps
        );
    }

    #[test]
    fn one_queued_timer_keeps_timeout_pops_rare() {
        // Re-arming on every new ACK must not cost a queued event per ACK:
        // fewer than 3 timeout pops per 100 ACK pops.
        let cfg = SimConfig::for_condition(cond(10.0, 40.0, 0.0, 1), CcKind::Cubic, 1);
        let mut sim = Simulation::new(cfg).unwrap();
        let events = sim.run_events().unwrap();
        let ack_pops = sim.delivered;
        assert!(ack_pops > 1_000, "{ack_pops} ACK pops of {events} events");
        assert!(
            sim.pops.timeouts * 100 < 3 * ack_pops,
            "{} timeout pops per {ack_pops} ACK pops",
            sim.pops.timeouts
        );
    }

    #[test]
    fn acks_skip_the_heap() {
        // ACKs go through the FIFO lane, so the heap holds only flow
        // starts, pacing wakes and RTO checks: a few per flow, however
        // many ACKs are in flight (up to two BDPs, about 66, per flow here).
        for kind in CcKind::ALL {
            for flows in [1, 4, 16] {
                let c = cond(10.0 * flows as f64, 40.0, 0.0, flows);
                let mut sim = Simulation::new(SimConfig::for_condition(c, kind, 1)).unwrap();
                let events = sim.run_events().unwrap();
                let case = format!("{} x{flows}", kind.name());
                assert!(
                    sim.delivered > 900 * flows as u64,
                    "{case}: {} ACK pops of {events} events",
                    sim.delivered
                );
                assert!(
                    sim.pops.heap_peak <= 8 * flows,
                    "{case}: the heap held {} events",
                    sim.pops.heap_peak
                );
            }
        }
    }

    #[test]
    fn every_sent_packet_is_accounted_for_with_one_event_at_most() {
        // A shallow buffer so both queues drop, with and without random
        // loss, for every protocol.
        let (mut queue_drops, mut link_losses) = (0, 0);
        for kind in CcKind::ALL {
            for queue_kind in [QueueKind::DropTail, QueueKind::Red] {
                for loss in [0.0, 0.02] {
                    let mut cfg = SimConfig::for_condition(cond(10.0, 40.0, loss, 2), kind, 21);
                    cfg.queue_bdp_mult = 0.5;
                    cfg.queue_kind = queue_kind;
                    let mut sim = Simulation::new(cfg).unwrap();
                    let processed = sim.run_events().unwrap();
                    let mut acks_queued = 0;
                    while let Some((_, event)) = sim.events.pop() {
                        acks_queued += matches!(event, Event::AckArrival { .. }) as u64;
                    }
                    let case = format!("{} {queue_kind:?} loss {loss}", kind.name());
                    assert_eq!(
                        sim.sent,
                        sim.delivered + sim.queue.drops() + sim.link_losses + acks_queued,
                        "{case}: sent = acked + queue drops + link losses + ACKs queued"
                    );
                    let p = &sim.pops;
                    assert!(
                        processed <= sim.sent + p.flow_starts + p.timeouts + p.wakes,
                        "{case}: {processed} events for {} packets and {p:?}",
                        sim.sent
                    );
                    assert_eq!(sim.link_losses > 0, loss > 0.0, "{case}");
                    queue_drops += sim.queue.drops();
                    link_losses += sim.link_losses;
                }
            }
        }
        assert!(queue_drops > 0 && link_losses > 0);
    }

    #[test]
    fn delay_stats_p95_is_the_sorted_index_value() {
        // Duplicates around the p95 rank, in scrambled order.
        let samples: Vec<f64> = (0..101u64)
            .map(|i| ((i * 37) % 101 / 4) as f64 * 1e-3 + 0.02)
            .collect();
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let idx = ((sorted.len() as f64 - 1.0) * 0.95).round() as usize;
        assert_eq!(
            sorted[idx],
            sorted[idx - 1],
            "the p95 rank holds a duplicate"
        );
        let mean = samples.iter().sum::<f64>() / samples.len() as f64 * 1e3;
        let (m, p95) = delay_stats(&mut samples.clone());
        assert_eq!(m.to_bits(), mean.to_bits());
        assert_eq!(p95.to_bits(), (sorted[idx] * 1e3).to_bits());
        assert_eq!(delay_stats(&mut []), (f64::INFINITY, f64::INFINITY));
    }

    #[test]
    fn tiny_link_still_terminates() {
        // 1 Mbps, 200 ms RTT, lossy: worst-case slow path must not hang.
        let out = run(CcKind::Vegas, cond(1.0, 200.0, 0.05, 2), 11);
        assert!(out.total_throughput_mbps >= 0.0);
    }
}
