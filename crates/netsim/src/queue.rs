//! The bottleneck backlog and the DropTail queue.
//!
//! The bottleneck is one FIFO server with a fixed serialization time per
//! packet, so a packet's service start is known the moment it is
//! admitted: `max(arrival, when the link frees)`. A queue therefore never
//! hands packets to the link. Its [`Backlog`] records the `(service start,
//! size)` of each admitted packet that has not started yet, and forgets
//! every entry whose start has come when the next packet arrives. A packet
//! that starts service exactly at the arrival instant counts as in
//! service, not waiting.
//!
//! DropTail is a byte-capacity FIFO: an arriving packet that does not fit
//! beside the bytes still waiting is dropped (the sender learns about it
//! from the resulting sequence gap or a timeout, exactly like a real
//! drop-tail router).

use crate::time::SimTime;
use std::collections::VecDeque;

/// Admitted packets still waiting for the link, as `(service start,
/// size)` in FIFO order (starts strictly increasing).
#[derive(Debug, Default)]
pub struct Backlog {
    waiting: VecDeque<(SimTime, u32)>,
    bytes: u64,
    max_bytes: u64,
}

impl Backlog {
    /// Forget every entry whose service has started by `now`.
    pub fn release(&mut self, now: SimTime) {
        while let Some(&(start, size)) = self.waiting.front() {
            if start > now {
                break;
            }
            self.waiting.pop_front();
            self.bytes -= size as u64;
        }
    }

    /// Record a packet admitted at `now` that starts service at `start`.
    /// A packet starting at `now` goes straight into service and is not
    /// recorded.
    pub fn admit(&mut self, now: SimTime, start: SimTime, size: u32) {
        debug_assert!(start >= now, "service cannot start before arrival");
        if start == now {
            return;
        }
        debug_assert!(
            self.waiting.back().is_none_or(|&(last, _)| last < start),
            "service starts are FIFO"
        );
        self.waiting.push_back((start, size));
        self.bytes += size as u64;
        self.max_bytes = self.max_bytes.max(self.bytes);
    }

    /// Bytes waiting.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// High-water mark of waiting bytes.
    pub fn max_bytes(&self) -> u64 {
        self.max_bytes
    }

    /// Packets waiting.
    pub fn len(&self) -> usize {
        self.waiting.len()
    }

    /// Whether nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.waiting.is_empty()
    }
}

/// A byte-bounded FIFO queue with drop statistics.
#[derive(Debug)]
pub struct DropTailQueue {
    capacity_bytes: u64,
    /// Packets waiting for the link.
    pub backlog: Backlog,
    /// Total packets dropped at enqueue.
    pub drops: u64,
}

impl DropTailQueue {
    /// A queue holding at most `capacity_bytes` (at least one MTU so a
    /// single packet can always transit).
    pub fn new(capacity_bytes: u64) -> Self {
        DropTailQueue {
            capacity_bytes: capacity_bytes.max(1500),
            backlog: Backlog::default(),
            drops: 0,
        }
    }

    /// Offer a `size`-byte packet arriving at `now` that would start
    /// service at `start`; returns `true` if accepted, `false` if dropped.
    pub fn enqueue(&mut self, now: SimTime, start: SimTime, size: u32) -> bool {
        self.backlog.release(now);
        if self.backlog.bytes() + size as u64 > self.capacity_bytes {
            self.drops += 1;
            return false;
        }
        self.backlog.admit(now, start, size);
        true
    }

    /// Configured byte capacity.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }
}

/// A test link: serves one packet per `ser`, starting each at the later of
/// its arrival and the previous departure (what [`crate::sim`] computes).
#[cfg(test)]
pub(crate) struct TestLink {
    pub free_at: SimTime,
    pub ser: crate::time::Duration,
}

#[cfg(test)]
impl TestLink {
    pub fn new(ser_us: u64) -> Self {
        TestLink {
            free_at: SimTime::ZERO,
            ser: crate::time::Duration::from_micros(ser_us),
        }
    }

    /// Offer a packet at `now` through `enqueue`; on acceptance the link
    /// takes it. Returns whether it was accepted.
    pub fn offer(&mut self, now: SimTime, enqueue: impl FnOnce(SimTime) -> bool) -> bool {
        let start = self.free_at.max(now);
        let accepted = enqueue(start);
        if accepted {
            self.free_at = start + self.ser;
        }
        accepted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    fn at_us(us: u64) -> SimTime {
        SimTime::ZERO + Duration::from_micros(us)
    }

    #[test]
    fn fifo_order() {
        // Three packets at t = 0 on a 1 ms link: the first is in service,
        // the others wait and start at 1 ms and 2 ms, in arrival order.
        let mut q = DropTailQueue::new(10_000);
        let mut link = TestLink::new(1_000);
        for _ in 0..3 {
            assert!(link.offer(SimTime::ZERO, |s| q.enqueue(SimTime::ZERO, s, 1500)));
        }
        assert_eq!(q.backlog.len(), 2);
        q.backlog.release(at_us(999));
        assert_eq!(q.backlog.len(), 2);
        q.backlog.release(at_us(1_000));
        assert_eq!(q.backlog.len(), 1, "the second starts exactly at 1 ms");
        q.backlog.release(at_us(2_000));
        assert!(q.backlog.is_empty());
    }

    #[test]
    fn drops_when_full() {
        // One packet in service plus 3000 B waiting fill the queue.
        let mut q = DropTailQueue::new(3_000);
        let mut link = TestLink::new(1_000);
        for _ in 0..3 {
            assert!(link.offer(SimTime::ZERO, |s| q.enqueue(SimTime::ZERO, s, 1500)));
        }
        assert!(
            !link.offer(SimTime::ZERO, |s| q.enqueue(SimTime::ZERO, s, 1500)),
            "a third waiting packet exceeds 3000B capacity"
        );
        assert_eq!(q.drops, 1);
        assert_eq!(q.backlog.len(), 2);
        // Once the head starts service there is room again.
        assert!(link.offer(at_us(1_000), |s| q.enqueue(at_us(1_000), s, 1500)));
    }

    #[test]
    fn byte_accounting_is_conserved() {
        let mut q = DropTailQueue::new(100_000);
        let mut link = TestLink::new(100);
        for _ in 0..11 {
            link.offer(SimTime::ZERO, |s| q.enqueue(SimTime::ZERO, s, 1000));
        }
        assert_eq!(q.backlog.bytes(), 10_000);
        q.backlog.release(at_us(400));
        assert_eq!(q.backlog.bytes(), 6_000);
        assert_eq!(q.backlog.max_bytes(), 10_000);
    }

    #[test]
    fn capacity_floor_is_one_mtu() {
        let mut q = DropTailQueue::new(10);
        assert_eq!(q.capacity_bytes(), 1500);
        let mut link = TestLink::new(1_000);
        assert!(link.offer(SimTime::ZERO, |s| q.enqueue(SimTime::ZERO, s, 1500)));
        assert!(
            link.offer(SimTime::ZERO, |s| q.enqueue(SimTime::ZERO, s, 1500)),
            "a single MTU packet always fits"
        );
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::time::Duration;
    use aml_propcheck::prelude::*;

    proptest! {
        /// Conservation: packets in = packets served + drops + still
        /// waiting, and waiting bytes never exceed capacity.
        #[test]
        fn prop_queue_conservation(
            arrivals in aml_propcheck::collection::vec((100u32..2000, 0u64..400), 1..200),
            capacity in 1500u64..20_000,
        ) {
            let mut q = DropTailQueue::new(capacity);
            let mut link = TestLink::new(250);
            let mut now = SimTime::ZERO;
            let mut accepted = 0u64;
            for &(size, gap_us) in &arrivals {
                now += Duration::from_micros(gap_us);
                if link.offer(now, |s| q.enqueue(now, s, size)) {
                    accepted += 1;
                }
                prop_assert!(q.backlog.bytes() <= q.capacity_bytes());
            }
            let waiting = q.backlog.len() as u64;
            q.backlog.release(link.free_at);
            prop_assert_eq!(q.backlog.bytes(), 0);
            prop_assert!(accepted >= waiting);
            prop_assert_eq!(accepted + q.drops, arrivals.len() as u64);
        }
    }
}
