//! RED (Random Early Detection) bottleneck queue — an AQM alternative to
//! [`crate::queue::DropTailQueue`].
//!
//! RED drops arriving packets probabilistically as the EWMA of the queue
//! size climbs between `min_th` and `max_th`, signalling congestion before
//! the buffer fills. Its inclusion serves the paper's *domain
//! customization* vision (§1): the choice of queue discipline is exactly
//! the kind of domain prior an operator would encode, and the ablation
//! benches can check how robust the "use Scream" decision surface is to it.
//!
//! Simplifications vs. the full Floyd/Jacobson algorithm (documented, not
//! hidden): no idle-time decay of the average, and no inter-drop count
//! spacing — drops are i.i.d. Bernoulli at the computed probability.

use crate::queue::Backlog;
use crate::time::SimTime;
use aml_rng::rngs::StdRng;
use aml_rng::{Rng, SeedableRng};

/// EWMA weight for the average queue size.
const W_Q: f64 = 0.05;
/// Drop probability at `max_th`.
const MAX_P: f64 = 0.1;

/// A RED queue with byte-based thresholds.
#[derive(Debug)]
pub struct RedQueue {
    capacity_bytes: u64,
    min_th: f64,
    max_th: f64,
    /// Packets waiting for the link.
    pub backlog: Backlog,
    avg: f64,
    rng: StdRng,
    /// Packets dropped (early + overflow).
    pub drops: u64,
    /// Of which: early (probabilistic) drops.
    pub early_drops: u64,
}

impl RedQueue {
    /// A RED queue holding at most `capacity_bytes`, with thresholds at
    /// 25% / 75% of capacity.
    pub fn new(capacity_bytes: u64, seed: u64) -> Self {
        let cap = capacity_bytes.max(1500);
        RedQueue {
            capacity_bytes: cap,
            min_th: cap as f64 * 0.25,
            max_th: cap as f64 * 0.75,
            backlog: Backlog::default(),
            avg: 0.0,
            rng: StdRng::seed_from_u64(seed),
            drops: 0,
            early_drops: 0,
        }
    }

    /// Offer a `size`-byte packet arriving at `now` that would start
    /// service at `start`; returns `true` if accepted. The average is
    /// updated from the bytes still waiting at `now`, on every arrival.
    pub fn enqueue(&mut self, now: SimTime, start: SimTime, size: u32) -> bool {
        self.backlog.release(now);
        self.avg = (1.0 - W_Q) * self.avg + W_Q * self.backlog.bytes() as f64;

        // Physical overflow always drops.
        if self.backlog.bytes() + size as u64 > self.capacity_bytes {
            self.drops += 1;
            return false;
        }
        // Early-drop band.
        if self.avg > self.max_th {
            self.drops += 1;
            self.early_drops += 1;
            return false;
        }
        if self.avg > self.min_th {
            let p = MAX_P * (self.avg - self.min_th) / (self.max_th - self.min_th);
            if self.rng.gen::<f64>() < p {
                self.drops += 1;
                self.early_drops += 1;
                return false;
            }
        }
        self.backlog.admit(now, start, size);
        true
    }

    /// Current EWMA of the queue size (bytes).
    pub fn avg(&self) -> f64 {
        self.avg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::TestLink;
    use crate::time::Duration;

    /// Offer one MTU packet at `now` to `q` over `link`.
    fn offer(q: &mut RedQueue, link: &mut TestLink, now: SimTime) -> bool {
        link.offer(now, |start| q.enqueue(now, start, 1500))
    }

    #[test]
    fn empty_queue_accepts_everything_early() {
        let mut q = RedQueue::new(150_000, 1);
        let mut link = TestLink::new(1_000);
        for _ in 0..10 {
            assert!(
                offer(&mut q, &mut link, SimTime::ZERO),
                "avg still below min_th"
            );
        }
        assert_eq!(q.drops, 0);
    }

    #[test]
    fn sustained_occupancy_triggers_early_drops() {
        let mut q = RedQueue::new(30_000, 2);
        let mut link = TestLink::new(1_000);
        // Offered load of 2 packets per service slot: the link can't keep
        // up, the EWMA climbs into the early-drop band, and RED sheds load
        // *before* the buffer is full.
        for i in 0..500u64 {
            let now = SimTime::ZERO + Duration::from_millis(i);
            offer(&mut q, &mut link, now);
            offer(&mut q, &mut link, now);
        }
        assert!(
            q.early_drops > 0,
            "early drops {} of {}",
            q.early_drops,
            q.drops
        );
        assert!(
            q.early_drops < q.drops || q.drops == q.early_drops,
            "accounting consistent"
        );
    }

    #[test]
    fn overflow_still_guards_capacity() {
        let mut q = RedQueue::new(3_000, 3);
        let mut link = TestLink::new(1_000);
        let mut accepted = 0;
        for _ in 0..10 {
            if offer(&mut q, &mut link, SimTime::ZERO) {
                accepted += 1;
            }
        }
        assert!(
            accepted <= 3,
            "one in service plus 3000B of waiting MTU packets"
        );
        assert!(q.backlog.bytes() <= 3_000);
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed: u64| -> (u64, u64) {
            let mut q = RedQueue::new(15_000, seed);
            let mut link = TestLink::new(3_000);
            for i in 0..300 {
                offer(&mut q, &mut link, SimTime::ZERO + Duration::from_millis(i));
            }
            (q.drops, q.early_drops)
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn fifo_order_preserved() {
        // Two waiting packets start service in arrival order, one slot
        // apart, behind the one in service.
        let mut q = RedQueue::new(150_000, 5);
        let mut link = TestLink::new(1_000);
        for _ in 0..3 {
            offer(&mut q, &mut link, SimTime::ZERO);
        }
        assert_eq!(q.backlog.len(), 2);
        q.backlog.release(SimTime::ZERO + Duration::from_millis(1));
        assert_eq!(q.backlog.len(), 1);
        q.backlog.release(SimTime::ZERO + Duration::from_millis(2));
        assert!(q.backlog.is_empty());
    }
}
