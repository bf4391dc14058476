//! Per-flow sender state: reliability bookkeeping, RTT estimation
//! (RFC 6298), delivery-rate estimation, and pacing state.
//!
//! The flow owns everything a real TCP sender tracks *except* the
//! congestion-control decision, which is delegated to the boxed
//! [`CongestionControl`] so the same machinery drives all six protocols.

use crate::cc::{AckEvent, CongestionControl};
use crate::time::{Duration, SimTime};
use std::collections::VecDeque;

/// Minimum retransmission timeout (sim-scale; real stacks use 200 ms–1 s).
const MIN_RTO: Duration = Duration::from_millis(100);
/// RTO ceiling.
const MAX_RTO: Duration = Duration::from_millis(2_000);

/// One sender flow.
pub struct Flow {
    /// Flow index.
    pub id: usize,
    /// The congestion controller.
    pub cc: Box<dyn CongestionControl>,
    /// Next sequence number to send.
    pub next_seq: u64,
    /// Outstanding packets `(seq, sent_at, size)` in send order. Sends
    /// are strictly increasing in seq and the path is FIFO, so the window
    /// stays sorted and every removal comes off the front.
    pub inflight: VecDeque<(u64, SimTime, u32)>,
    /// Sum of outstanding sizes.
    pub inflight_bytes: u64,
    /// Earliest instant pacing allows the next send.
    pub next_send_time: SimTime,
    /// Whether a SenderWake event is already scheduled (avoids duplicates).
    pub wake_scheduled: bool,
    /// The logical RTO timer `(due, seq)`: when it fires, and the event
    /// sequence number reserved for it when it was armed.
    pub timer: (SimTime, u64),
    /// `(at, seq)` of this flow's one live queued `Timeout` event, never
    /// later than [`timer`](Self::timer).
    pub queued_timer: Option<(SimTime, u64)>,
    /// When the last ACK arrived (or the flow started).
    pub last_ack_time: SimTime,
    /// Whether the flow has started sending.
    pub started: bool,

    // --- RTT estimation (RFC 6298) ---
    srtt: Option<Duration>,
    rttvar: Duration,

    // --- delivery-rate estimation ---
    /// Cumulative bytes acknowledged.
    pub delivered_bytes: u64,
    /// Recent (time, cumulative delivered) checkpoints.
    rate_window: VecDeque<(SimTime, u64)>,

    // --- statistics ---
    /// Packets detected lost (gaps + timeouts).
    pub lost_packets: u64,
    /// One-way delay samples (seconds) of packets delivered after warmup.
    pub delay_samples: Vec<f64>,
    /// RTT samples (seconds) observed after warmup.
    pub rtt_samples: Vec<f64>,
    /// Bytes delivered after warmup (throughput numerator).
    pub measured_bytes: u64,
}

impl Flow {
    /// New idle flow.
    pub fn new(id: usize, cc: Box<dyn CongestionControl>) -> Self {
        Flow {
            id,
            cc,
            next_seq: 0,
            inflight: VecDeque::new(),
            inflight_bytes: 0,
            next_send_time: SimTime::ZERO,
            wake_scheduled: false,
            timer: (SimTime::ZERO, 0),
            queued_timer: None,
            last_ack_time: SimTime::ZERO,
            started: false,
            srtt: None,
            rttvar: Duration::ZERO,
            delivered_bytes: 0,
            rate_window: VecDeque::new(),
            lost_packets: 0,
            delay_samples: Vec::new(),
            rtt_samples: Vec::new(),
            measured_bytes: 0,
        }
    }

    /// Register a sent packet. `seq` must exceed every earlier send's.
    pub fn on_send(&mut self, seq: u64, size: u32, now: SimTime) {
        debug_assert!(
            self.inflight.back().is_none_or(|&(last, _, _)| last < seq),
            "send seq {seq} is not above the window's last"
        );
        self.inflight.push_back((seq, now, size));
        self.inflight_bytes += size as u64;
    }

    /// Process a received ACK for `seq`. Returns the [`AckEvent`] passed to
    /// the congestion controller (also applied internally), or `None` if
    /// the ACK was stale (already-removed sequence — e.g. declared lost).
    pub fn on_ack(
        &mut self,
        seq: u64,
        sent_at: SimTime,
        bytes: u32,
        now: SimTime,
    ) -> Option<AckEvent> {
        // In-order path ⇒ anything older than `seq` still outstanding was
        // dropped. Mark it lost before accounting this ACK.
        let mut had_loss = false;
        while let Some(&(s, _, sz)) = self.inflight.front() {
            if s >= seq {
                break;
            }
            self.inflight.pop_front();
            self.inflight_bytes -= sz as u64;
            self.lost_packets += 1;
            had_loss = true;
        }

        let &(front, sent, _) = self.inflight.front().filter(|p| p.0 == seq)?;
        debug_assert_eq!((front, sent), (seq, sent_at), "ACK echoes its packet");
        self.inflight.pop_front();
        self.inflight_bytes -= bytes as u64;
        self.last_ack_time = now;

        let rtt = now.since(sent_at);
        self.update_rtt(rtt);
        self.delivered_bytes += bytes as u64;
        let rate = self.update_delivery_rate(now);

        let ev = AckEvent {
            now,
            rtt,
            bytes_acked: bytes,
            inflight_bytes: self.inflight_bytes,
            delivery_rate_bps: rate,
        };
        if had_loss {
            self.cc.on_loss(now);
        }
        self.cc.on_ack(&ev);
        Some(ev)
    }

    /// Declare the whole outstanding window lost (timeout). Returns the
    /// number of packets discarded.
    pub fn on_timeout(&mut self, now: SimTime) -> usize {
        let n = self.inflight.len();
        self.lost_packets += n as u64;
        self.inflight.clear();
        self.inflight_bytes = 0;
        self.cc.on_timeout(now);
        // Back off the RTO by inflating rttvar.
        self.rttvar = (self.rttvar.mul_f64(2.0)).min(MAX_RTO);
        n
    }

    fn update_rtt(&mut self, sample: Duration) {
        match self.srtt {
            None => {
                self.srtt = Some(sample);
                self.rttvar = sample.mul_f64(0.5);
            }
            Some(srtt) => {
                let diff = if srtt > sample {
                    srtt - sample
                } else {
                    sample - srtt
                };
                self.rttvar = self.rttvar.mul_f64(0.75) + diff.mul_f64(0.25);
                self.srtt = Some(srtt.mul_f64(0.875) + sample.mul_f64(0.125));
            }
        }
    }

    /// Smoothed RTT (sample default before first measurement).
    pub fn srtt(&self) -> Duration {
        self.srtt.unwrap_or(Duration::from_millis(100))
    }

    /// Current retransmission timeout. Before the first RTT sample the RTO
    /// is maximal (RFC 6298 prescribes a conservative initial RTO —
    /// otherwise long-RTT paths suffer spurious timeouts before their very
    /// first ACK). After convergence, a 1.5× multiplicative margin on the
    /// smoothed RTT guards against `rttvar → 0` turning ordinary queuing
    /// jitter into timeouts.
    pub fn rto(&self) -> Duration {
        let Some(srtt) = self.srtt else {
            return MAX_RTO;
        };
        (srtt.mul_f64(1.5) + self.rttvar.mul_f64(4.0))
            .max(MIN_RTO)
            .min(MAX_RTO)
    }

    /// Delivery-rate estimate over roughly the last smoothed RTT.
    fn update_delivery_rate(&mut self, now: SimTime) -> Option<f64> {
        self.rate_window.push_back((now, self.delivered_bytes));
        let horizon = self.srtt().mul_f64(2.0).max(Duration::from_millis(20));
        while let Some(&(t, _)) = self.rate_window.front() {
            if now.since(t) > horizon && self.rate_window.len() > 2 {
                self.rate_window.pop_front();
            } else {
                break;
            }
        }
        let (t0, b0) = *self.rate_window.front()?;
        let elapsed = now.since(t0).as_secs_f64();
        if elapsed <= 1e-6 || self.rate_window.len() < 3 {
            return None;
        }
        Some((self.delivered_bytes - b0) as f64 * 8.0 / elapsed)
    }

    /// Whether the window has room for another `size`-byte packet.
    pub fn can_send(&self, size: u32) -> bool {
        self.inflight_bytes + size as u64 <= self.cc.cwnd_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::reno::Reno;

    fn flow() -> Flow {
        Flow::new(0, Box::new(Reno::new()))
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + Duration::from_millis(ms)
    }

    #[test]
    fn ack_removes_inflight_and_samples_rtt() {
        let mut f = flow();
        f.on_send(0, 1500, t(0));
        assert_eq!(f.inflight_bytes, 1500);
        let ev = f.on_ack(0, t(0), 1500, t(40)).unwrap();
        assert_eq!(f.inflight_bytes, 0);
        assert_eq!(ev.rtt, Duration::from_millis(40));
        assert_eq!(f.srtt(), Duration::from_millis(40));
        assert_eq!(f.delivered_bytes, 1500);
    }

    #[test]
    fn gap_ack_declares_older_packets_lost() {
        let mut f = flow();
        f.on_send(0, 1500, t(0));
        f.on_send(1, 1500, t(1));
        f.on_send(2, 1500, t(2));
        // Ack of seq 2 with 0 and 1 still outstanding ⇒ both lost.
        let ev = f.on_ack(2, t(2), 1500, t(42)).unwrap();
        assert_eq!(f.lost_packets, 2);
        assert_eq!(f.inflight_bytes, 0);
        assert_eq!(ev.bytes_acked, 1500);
    }

    #[test]
    fn stale_ack_returns_none() {
        let mut f = flow();
        f.on_send(0, 1500, t(0));
        f.on_ack(0, t(0), 1500, t(40)).unwrap();
        assert!(f.on_ack(0, t(0), 1500, t(50)).is_none());
    }

    #[test]
    fn ack_older_than_the_window_is_stale_and_counts_no_loss() {
        let mut f = flow();
        f.on_send(0, 1500, t(0));
        f.on_send(1, 1500, t(1));
        f.on_timeout(t(300));
        assert_eq!(f.lost_packets, 2);
        f.on_send(2, 1500, t(300));
        f.on_send(3, 1500, t(301));
        // The ACK of seq 1 arrives after the timeout resent the window.
        assert!(f.on_ack(1, t(1), 1500, t(320)).is_none());
        assert_eq!(f.lost_packets, 2, "an old ACK declares nothing lost");
        assert_eq!(f.inflight.len(), 2);
        assert_eq!(f.inflight_bytes, 3000);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not above the window's last")]
    fn on_send_rejects_a_non_increasing_seq() {
        let mut f = flow();
        f.on_send(5, 1500, t(0));
        f.on_send(5, 1500, t(1));
    }

    #[test]
    fn timeout_clears_window() {
        let mut f = flow();
        for s in 0..5 {
            f.on_send(s, 1500, t(s));
        }
        let n = f.on_timeout(t(500));
        assert_eq!(n, 5);
        assert_eq!(f.inflight_bytes, 0);
        assert_eq!(f.lost_packets, 5);
    }

    #[test]
    fn rto_bounded() {
        let mut f = flow();
        assert!(f.rto() >= MIN_RTO);
        f.on_send(0, 1500, t(0));
        f.on_ack(0, t(0), 1500, t(1));
        assert!(f.rto() >= MIN_RTO && f.rto() <= MAX_RTO);
    }

    #[test]
    fn rtt_smoothing_converges() {
        let mut f = flow();
        for i in 0..100u64 {
            f.on_send(i, 1500, t(i * 50));
            f.on_ack(i, t(i * 50), 1500, t(i * 50 + 40));
        }
        let srtt_ms = f.srtt().as_millis_f64();
        assert!((srtt_ms - 40.0).abs() < 2.0, "srtt {srtt_ms} ≈ 40ms");
    }

    #[test]
    fn delivery_rate_estimates_sensible_magnitude() {
        let mut f = flow();
        // Deliver 1500B every 1ms → 12 Mbps.
        let mut rate = None;
        for i in 0..200u64 {
            f.on_send(i, 1500, t(i));
            if let Some(ev) = f.on_ack(i, t(i), 1500, t(i + 40)) {
                rate = ev.delivery_rate_bps.or(rate);
            }
        }
        let r = rate.expect("rate should be estimated");
        assert!((r - 12e6).abs() / 12e6 < 0.25, "rate {r} ≈ 12 Mbps");
    }

    #[test]
    fn can_send_respects_cwnd() {
        let mut f = flow();
        let cwnd = f.cc.cwnd_bytes();
        let mut sent = 0u64;
        let mut seq = 0u64;
        while f.can_send(1500) {
            f.on_send(seq, 1500, t(0));
            seq += 1;
            sent += 1500;
            assert!(sent <= cwnd + 1500);
        }
        assert!(f.inflight_bytes <= cwnd);
    }
}
