//! SCReAM-like self-clocked rate adaptation (RFC 8298 spirit, simplified).
//!
//! SCReAM was designed for latency-sensitive multimedia: it regulates the
//! *queuing delay* (RTT − min RTT) around a tight target — here ~1.2 packet
//! serialization times at the current delivery rate, i.e. barely more than
//! one packet standing in the bottleneck queue. That makes it the
//! lowest-latency protocol in the suite (tighter than Vegas's 2–4 packets
//! or Copa's ~2), at the price of classic loss backoff: under random loss
//! its throughput collapses. "Great latency on clean paths, fragile under
//! loss" is exactly the trade-off the paper's "Scream vs rest" problem
//! asks the model to learn.
//!
//! Controller, per ACK:
//!
//! * `qdelay < ½·target` → grow: slow-start ramp until the first congestion
//!   signal, Reno-style `cwnd += bytes_acked · MSS / cwnd` afterwards;
//! * `½·target ≤ qdelay ≤ target` → deadband: hold;
//! * `qdelay > target` → once per propagation RTT, scale by
//!   `clamp(1 − 0.3·(qdelay/target − 1), 0.7, 1)`.

use crate::cc::{AckEvent, CongestionControl, MIN_CWND, MSS};
use crate::time::{Duration, SimTime};

/// Queuing-delay target floor (avoids a zero target on fast links).
const TARGET_FLOOR: Duration = Duration::from_millis(1);
/// Queuing-delay target ceiling (RFC 8298's congestion scaling region).
const TARGET_CEIL: Duration = Duration::from_millis(50);
/// Standing queue target in packet serialization times.
const TARGET_PACKETS: f64 = 1.2;

/// SCReAM state machine.
#[derive(Debug)]
pub struct Scream {
    cwnd: u64,
    min_rtt: Option<Duration>,
    /// Latest queuing-delay target (updated from the delivery rate).
    target: Duration,
    /// Once-per-RTT guard for multiplicative decreases.
    recovery_until: SimTime,
    /// Slow-start-like ramp flag: cleared permanently by the first
    /// congestion signal (overshoot, loss or timeout). Without this a
    /// lossy path lets Scream re-double every RTT between backoffs,
    /// making it implausibly loss-resilient.
    in_ramp: bool,
    srtt: Duration,
}

impl Scream {
    /// Fresh connection.
    pub fn new() -> Self {
        Scream {
            cwnd: 10 * MSS,
            min_rtt: None,
            target: Duration::from_millis(10),
            recovery_until: SimTime::ZERO,
            in_ramp: true,
            srtt: Duration::from_millis(100),
        }
    }

    /// Current queuing-delay target (test hook).
    pub fn target(&self) -> Duration {
        self.target
    }

    fn qdelay(&self, rtt: Duration) -> Duration {
        match self.min_rtt {
            Some(m) => rtt.saturating_sub(m),
            None => Duration::ZERO,
        }
    }
}

impl Default for Scream {
    fn default() -> Self {
        Self::new()
    }
}

impl CongestionControl for Scream {
    fn cwnd_bytes(&self) -> u64 {
        self.cwnd
    }

    fn pacing_rate_bps(&self) -> Option<f64> {
        // Self-clocked: pace one cwnd per smoothed RTT, slightly faster so
        // pacing never becomes the bottleneck below the window limit.
        let rtt = self.srtt.as_secs_f64().max(1e-3);
        Some(1.2 * self.cwnd as f64 * 8.0 / rtt)
    }

    fn on_ack(&mut self, ack: &AckEvent) {
        self.srtt = ack.rtt;
        self.min_rtt = Some(match self.min_rtt {
            Some(m) => m.min(ack.rtt),
            None => ack.rtt,
        });
        // Track the target: ~1.2 packet serialization times at the current
        // per-flow delivery rate.
        if let Some(rate) = ack.delivery_rate_bps {
            if rate > 1e3 {
                let ser = Duration::from_secs_f64(MSS as f64 * 8.0 / rate);
                self.target = ser
                    .mul_f64(TARGET_PACKETS)
                    .max(TARGET_FLOOR)
                    .min(TARGET_CEIL);
            }
        }

        let qdelay = self.qdelay(ack.rtt);
        let target_s = self.target.as_secs_f64().max(1e-6);
        let q_s = qdelay.as_secs_f64();
        if q_s < 0.5 * target_s {
            // Below half target: grow — fast while ramping, Reno-style after.
            if self.in_ramp {
                self.cwnd += ack.bytes_acked as u64;
            } else {
                self.cwnd += ((ack.bytes_acked as u64 * MSS) / self.cwnd).max(1);
            }
        } else if q_s <= target_s {
            // Deadband: the queue is where we want it; hold.
        } else if ack.now >= self.recovery_until {
            // Over target: gentle proportional backoff, at most once per
            // *propagation* RTT (using the inflated sample would lock the
            // controller out exactly when it must act).
            let overshoot = q_s / target_s - 1.0;
            let factor = (1.0 - 0.3 * overshoot).clamp(0.7, 1.0);
            self.cwnd = ((self.cwnd as f64 * factor) as u64).max(MIN_CWND);
            let min_rtt = self.min_rtt.unwrap_or(ack.rtt);
            self.recovery_until = ack.now + min_rtt;
            self.in_ramp = false;
        }
    }

    fn on_loss(&mut self, now: SimTime) {
        self.in_ramp = false;
        if now < self.recovery_until {
            return;
        }
        self.cwnd = (self.cwnd / 2).max(MIN_CWND);
        self.recovery_until = now + self.srtt;
    }

    fn on_timeout(&mut self, now: SimTime) {
        self.in_ramp = false;
        self.cwnd = MIN_CWND;
        self.recovery_until = now + self.srtt;
    }

    fn name(&self) -> &'static str {
        "scream"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ack(now_ms: u64, rtt_ms: u64) -> AckEvent {
        AckEvent {
            now: SimTime::ZERO + Duration::from_millis(now_ms),
            rtt: Duration::from_millis(rtt_ms),
            bytes_acked: MSS as u32,
            inflight_bytes: 0,
            delivery_rate_bps: Some(10e6),
        }
    }

    #[test]
    fn grows_while_delay_under_target() {
        let mut s = Scream::new();
        let before = s.cwnd_bytes();
        for i in 0..20 {
            s.on_ack(&ack(i, 40)); // qdelay 0 after first sample
        }
        assert!(s.cwnd_bytes() > before);
    }

    #[test]
    fn target_tracks_delivery_rate() {
        let mut s = Scream::new();
        // 10 Mbps → serialization 1.2 ms → target 1.44 ms.
        s.on_ack(&ack(1, 40));
        let t = s.target().as_millis_f64();
        assert!((t - 1.44).abs() < 0.05, "target {t} ms");
        // 1 Mbps → 12 ms serialization → 14.4 ms target.
        s.on_ack(&AckEvent {
            delivery_rate_bps: Some(1e6),
            ..ack(2, 40)
        });
        let t2 = s.target().as_millis_f64();
        assert!((t2 - 14.4).abs() < 0.2, "target {t2} ms");
    }

    #[test]
    fn target_is_clamped() {
        let mut s = Scream::new();
        // Absurdly fast link → floor.
        s.on_ack(&AckEvent {
            delivery_rate_bps: Some(100e9),
            ..ack(1, 40)
        });
        assert_eq!(s.target(), Duration::from_millis(1));
        // Absurdly slow link → ceiling.
        s.on_ack(&AckEvent {
            delivery_rate_bps: Some(50e3),
            ..ack(2, 40)
        });
        assert_eq!(s.target(), Duration::from_millis(50));
    }

    #[test]
    fn backs_off_when_delay_exceeds_target() {
        let mut s = Scream::new();
        s.on_ack(&ack(1, 40)); // min_rtt = 40ms, target ≈ 1.44ms
        crate::cc::test_util::feed_acks(&mut s, 20, 40);
        let before = s.cwnd_bytes();
        // 150 ms RTT → 110 ms queuing delay, way over target → max backoff.
        s.on_ack(&ack(10_000, 150));
        assert!(
            (s.cwnd_bytes() as f64) <= 0.71 * before as f64,
            "must back off: {} -> {}",
            before,
            s.cwnd_bytes()
        );
    }

    #[test]
    fn backoff_rate_limited_to_once_per_rtt() {
        let mut s = Scream::new();
        s.on_ack(&ack(1, 40));
        crate::cc::test_util::feed_acks(&mut s, 20, 40);
        s.on_ack(&ack(10_000, 150));
        let after_first = s.cwnd_bytes();
        s.on_ack(&ack(10_001, 150)); // within the same RTT
        assert_eq!(s.cwnd_bytes(), after_first);
    }

    #[test]
    fn growth_is_gentler_near_target() {
        // qdelay at 80% of target grows Reno-style; qdelay 0 ramps.
        let mut s = Scream::new();
        s.on_ack(&AckEvent {
            delivery_rate_bps: Some(1e6),
            ..ack(1, 40)
        }); // target 14.4ms
        let b = s.cwnd_bytes();
        s.on_ack(&AckEvent {
            delivery_rate_bps: Some(1e6),
            ..ack(2, 40)
        }); // qdelay 0 → ramp
        let ramp_step = s.cwnd_bytes() - b;
        let b2 = s.cwnd_bytes();
        s.on_ack(&AckEvent {
            delivery_rate_bps: Some(1e6),
            ..ack(3, 52)
        }); // qdelay 12ms ≈ 0.83·target
        let gentle_step = s.cwnd_bytes() - b2;
        assert!(
            gentle_step < ramp_step,
            "near-target step {gentle_step} must be smaller than ramp step {ramp_step}"
        );
    }

    #[test]
    fn loss_halves_and_timeout_collapses() {
        let mut s = Scream::new();
        crate::cc::test_util::feed_acks(&mut s, 30, 40);
        let grown = s.cwnd_bytes();
        s.on_loss(SimTime::ZERO + Duration::from_millis(8000));
        assert_eq!(s.cwnd_bytes(), (grown / 2).max(MIN_CWND));
        s.on_timeout(SimTime::ZERO + Duration::from_millis(9000));
        assert_eq!(s.cwnd_bytes(), MIN_CWND);
    }

    #[test]
    fn paces_at_window_per_rtt() {
        let mut s = Scream::new();
        s.on_ack(&ack(1, 100));
        let rate = s.pacing_rate_bps().unwrap();
        let expected = 1.2 * s.cwnd_bytes() as f64 * 8.0 / 0.1;
        assert!((rate - expected).abs() / expected < 0.01);
    }
}
