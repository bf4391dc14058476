//! The discrete-event queue.
//!
//! A binary min-heap of small `(time, sequence, slot)` keys; the events
//! themselves live in a slab (`Vec<Option<Event>>` with a free list) that
//! the slot indexes, so the heap sifts 24-byte keys instead of whole
//! events. The monotonically increasing sequence number breaks time ties —
//! two events scheduled for the same instant always pop in sequence order,
//! which makes the whole simulation deterministic regardless of heap
//! internals. Sequence numbers are unique, so the slot never decides the
//! order and reusing a slot cannot change it.
//!
//! A caller may [`reserve`](EventQueue::reserve) a sequence number now and
//! queue an event under it later with
//! [`schedule_reserved`](EventQueue::schedule_reserved): the event then
//! pops as if it had been scheduled at reservation time. The simulator's
//! RTO timers use this to keep one queued event per flow while firing in
//! exactly the order a fresh event per re-arm would.
//!
//! There are four kinds of [`Event`]: a flow starting, a pacing wake, an
//! RTO check, and an ACK arriving back at its sender. The bottleneck link
//! has no events of its own. It is a FIFO server with a fixed
//! serialization time, so [`crate::sim`] computes each packet's departure
//! when the packet is admitted and schedules its ACK directly. The ACK
//! path is lossless with a fixed delay, so the packet's delivery at the
//! receiver is taken when that ACK pops: half a round trip earlier. A
//! simulated packet therefore costs at most one event.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Everything that can happen in the simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A flow becomes active and starts sending.
    FlowStart {
        /// Flow index.
        flow: usize,
    },
    /// An ACK arrives back at a sender. The data packet it acknowledges
    /// reached the receiver `prop_half` earlier.
    AckArrival {
        /// Flow index the ACK belongs to.
        flow: usize,
        /// Sequence number being acknowledged.
        seq: u64,
        /// When the acknowledged data packet was originally sent.
        sent_at: SimTime,
        /// Bytes acknowledged.
        bytes: u32,
    },
    /// Pacing timer: the flow may be able to send now.
    SenderWake {
        /// Flow index.
        flow: usize,
    },
    /// Retransmission timeout check for a flow. A flow keeps at most one
    /// queued `Timeout`; `seq` is the sequence number it was queued under,
    /// reserved when the timer was armed. The flow's timer state tells
    /// whether this is its live queued timer, whether the logical timer is
    /// due, or whether it must re-queue itself under the later reservation.
    Timeout {
        /// Flow index.
        flow: usize,
        /// The (reserved) sequence number this event was queued under.
        seq: u64,
    },
}

/// Deterministic event queue.
#[derive(Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    slab: Vec<Option<Event>>,
    free: Vec<u32>,
    next_seq: u64,
}

impl EventQueue {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take the next sequence number without queueing anything. An event
    /// later queued under it with [`schedule_reserved`](Self::schedule_reserved)
    /// pops before every same-instant event scheduled after this call.
    pub fn reserve(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedule `event` at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, event: Event) {
        let seq = self.reserve();
        self.schedule_reserved(at, seq, event);
    }

    /// Schedule `event` at `at` under `seq`, a number taken from
    /// [`reserve`](Self::reserve) and not yet queued under.
    pub fn schedule_reserved(&mut self, at: SimTime, seq: u64, event: Event) {
        debug_assert!(seq < self.next_seq, "seq {seq} was never reserved");
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(event);
                slot
            }
            None => {
                self.slab.push(Some(event));
                (self.slab.len() - 1) as u32
            }
        };
        self.heap.push(Reverse((at, seq, slot)));
    }

    /// Pop the earliest event (ties in sequence order).
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        let Reverse((at, _, slot)) = self.heap.pop()?;
        let event = self.slab[slot as usize]
            .take()
            .expect("a queued key names a filled slot");
        self.free.push(slot);
        Some((at, event))
    }

    /// Pop the earliest event if it is due no later than `end`; a later
    /// one stays queued.
    pub fn pop_until(&mut self, end: SimTime) -> Option<(SimTime, Event)> {
        let &Reverse((at, _, _)) = self.heap.peek()?;
        if at > end {
            return None;
        }
        self.pop()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        let t = |ms| SimTime::ZERO + Duration::from_millis(ms);
        q.schedule(t(5), Event::Timeout { flow: 0, seq: 9 });
        q.schedule(t(1), Event::SenderWake { flow: 0 });
        q.schedule(t(3), Event::FlowStart { flow: 1 });
        assert_eq!(q.pop().unwrap().0, t(1));
        assert_eq!(q.pop().unwrap().0, t(3));
        assert_eq!(q.pop().unwrap().0, t(5));
        assert!(q.pop().is_none());
    }

    #[test]
    fn same_time_pops_in_schedule_order() {
        let mut q = EventQueue::new();
        let t = SimTime::ZERO + Duration::from_millis(7);
        for flow in 0..10 {
            q.schedule(t, Event::SenderWake { flow });
        }
        for expect in 0..10 {
            match q.pop().unwrap().1 {
                Event::SenderWake { flow } => assert_eq!(flow, expect),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn reserved_seq_pops_before_later_same_instant_events() {
        let mut q = EventQueue::new();
        let t = SimTime::ZERO + Duration::from_millis(4);
        q.schedule(t, Event::SenderWake { flow: 0 });
        let seq = q.reserve();
        q.schedule(t, Event::SenderWake { flow: 1 });
        q.schedule(t, Event::SenderWake { flow: 2 });
        q.schedule_reserved(t, seq, Event::Timeout { flow: 9, seq });
        let order: Vec<Event> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(
            order,
            vec![
                Event::SenderWake { flow: 0 },
                Event::Timeout { flow: 9, seq },
                Event::SenderWake { flow: 1 },
                Event::SenderWake { flow: 2 },
            ]
        );
    }

    #[test]
    fn slot_reuse_never_changes_pop_order() {
        // Interleave pops and pushes so later events land in recycled
        // slots with low indices; the order must still be (time, seq).
        let t = |ms| SimTime::ZERO + Duration::from_millis(ms);
        let mut q = EventQueue::new();
        let mut expected = Vec::new();
        for flow in 0..8 {
            q.schedule(t(10), Event::SenderWake { flow });
        }
        for flow in 0..4 {
            assert_eq!(q.pop().unwrap().1, Event::SenderWake { flow });
        }
        expected.extend((4..8).map(|flow| (t(10), flow)));
        // Eight new events reuse the four freed slots first.
        for flow in 8..16 {
            let at = if flow % 2 == 0 { t(10) } else { t(5) };
            q.schedule(at, Event::SenderWake { flow });
        }
        expected.extend((8..16).map(|flow| (if flow % 2 == 0 { t(10) } else { t(5) }, flow)));
        // Stable sort by time keeps sequence (scheduling) order on ties.
        expected.sort_by_key(|&(at, _)| at);
        let got: Vec<(SimTime, usize)> = std::iter::from_fn(|| q.pop())
            .map(|(at, e)| match e {
                Event::SenderWake { flow } => (at, flow),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(got, expected);
        assert!(q.slab.len() <= 12, "freed slots are reused");
    }

    #[test]
    fn pop_until_leaves_later_events_queued() {
        let t = |ms| SimTime::ZERO + Duration::from_millis(ms);
        let mut q = EventQueue::new();
        q.schedule(t(2), Event::SenderWake { flow: 0 });
        q.schedule(t(3), Event::SenderWake { flow: 1 });
        assert_eq!(q.pop_until(t(2)).unwrap().0, t(2), "due at the end");
        assert!(q.pop_until(t(2)).is_none());
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_until(t(3)).unwrap().1, Event::SenderWake { flow: 1 });
        assert!(q.pop_until(t(9)).is_none());
    }

    #[test]
    fn len_tracks_content() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::ZERO, Event::SenderWake { flow: 0 });
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }
}
