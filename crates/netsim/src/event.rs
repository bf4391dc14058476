//! The discrete-event queue.
//!
//! Two lanes share one sequence counter:
//!
//! * a binary min-heap of small `(time, sequence, slot)` keys; the events
//!   themselves live in a slab (`Vec<Option<Event>>` with a free list)
//!   that the slot indexes, so the heap sifts 24-byte keys instead of
//!   whole events;
//! * a FIFO lane ([`schedule_in_order`](EventQueue::schedule_in_order))
//!   for events the caller schedules in time order: each one is pushed at
//!   the back and taken from the front, with no sift at all.
//!
//! The monotonically increasing sequence number breaks time ties — two
//! events scheduled for the same instant always pop in sequence order,
//! whichever lane holds them. A pop takes the lane head with the smaller
//! `(time, sequence)`, so the order is exactly the one a single heap of
//! every event would give, regardless of heap internals. Sequence numbers
//! are unique, so neither the slot nor the lane ever decides the order and
//! reusing a slot cannot change it.
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
//! simulated packet therefore costs at most one event, and since
//! departures never go back in time, that ACK goes through the FIFO lane;
//! the heap holds only flow starts, pacing wakes and RTO checks, a few per
//! flow.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

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
    /// The FIFO lane: `(time, seq, event)`, times non-decreasing.
    in_order: VecDeque<(SimTime, u64, Event)>,
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

    /// Schedule `event` at `at` in the FIFO lane. `at` must be no earlier
    /// than the lane's last entry; the event pops exactly where
    /// [`schedule`](Self::schedule) would have put it.
    pub fn schedule_in_order(&mut self, at: SimTime, event: Event) {
        debug_assert!(
            self.in_order.back().is_none_or(|&(last, _, _)| last <= at),
            "in-order event at {at:?} is earlier than the lane's last entry"
        );
        let seq = self.reserve();
        self.in_order.push_back((at, seq, event));
    }

    /// The time of the earliest pending event, and whether it heads the
    /// FIFO lane (else the heap).
    fn next(&self) -> Option<(SimTime, bool)> {
        match (self.in_order.front(), self.heap.peek()) {
            (Some(&(at, seq, _)), Some(&Reverse((heap_at, heap_seq, _)))) => {
                Some(if (at, seq) < (heap_at, heap_seq) {
                    (at, true)
                } else {
                    (heap_at, false)
                })
            }
            (Some(&(at, _, _)), None) => Some((at, true)),
            (None, Some(&Reverse((at, _, _)))) => Some((at, false)),
            (None, None) => None,
        }
    }

    /// Take the head of the lane [`next`](Self::next) named.
    fn take(&mut self, in_order: bool) -> (SimTime, Event) {
        if in_order {
            let (at, _, event) = self.in_order.pop_front().expect("the lane has a head");
            return (at, event);
        }
        let Reverse((at, _, slot)) = self.heap.pop().expect("the heap has a head");
        let event = self.slab[slot as usize]
            .take()
            .expect("a queued key names a filled slot");
        self.free.push(slot);
        (at, event)
    }

    /// Pop the earliest event (ties in sequence order).
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        let (_, in_order) = self.next()?;
        Some(self.take(in_order))
    }

    /// Pop the earliest event if it is due no later than `end`; a later
    /// one stays queued.
    pub fn pop_until(&mut self, end: SimTime) -> Option<(SimTime, Event)> {
        let (at, in_order) = self.next()?;
        (at <= end).then(|| self.take(in_order))
    }

    /// Number of pending events, both lanes.
    pub fn len(&self) -> usize {
        self.heap.len() + self.in_order.len()
    }

    /// Whether no events are pending in either lane.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.in_order.is_empty()
    }

    /// Number of events pending in the heap lane.
    #[cfg(test)]
    pub(crate) fn heap_len(&self) -> usize {
        self.heap.len()
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

    /// The flow number of a `SenderWake` or `FlowStart`, to name events
    /// in order assertions.
    fn flow_of(event: Event) -> usize {
        match event {
            Event::SenderWake { flow } | Event::FlowStart { flow } => flow,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn same_instant_ties_across_lanes_pop_in_seq_order() {
        let t = |ms| SimTime::ZERO + Duration::from_millis(ms);
        let mut q = EventQueue::new();
        // Flows 0..12 switch lanes after runs of one or two, all at one
        // instant, with an earlier and a later event around them.
        q.schedule_in_order(t(1), Event::FlowStart { flow: 100 });
        for flow in 0..12 {
            if flow % 3 == 0 || flow % 5 == 0 {
                q.schedule(t(4), Event::SenderWake { flow });
            } else {
                q.schedule_in_order(t(4), Event::SenderWake { flow });
            }
        }
        q.schedule(t(9), Event::FlowStart { flow: 200 });
        q.schedule(t(0), Event::FlowStart { flow: 300 });
        let order: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| flow_of(e))).collect();
        let mut expected = vec![300, 100];
        expected.extend(0..12);
        expected.push(200);
        assert_eq!(order, expected);
    }

    #[test]
    fn reserved_seq_pops_before_a_later_in_order_event() {
        let t = SimTime::ZERO + Duration::from_millis(4);
        let mut q = EventQueue::new();
        let seq = q.reserve();
        q.schedule_in_order(t, Event::SenderWake { flow: 1 });
        q.schedule_in_order(t, Event::SenderWake { flow: 2 });
        q.schedule_reserved(t, seq, Event::Timeout { flow: 9, seq });
        let order: Vec<Event> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(
            order,
            vec![
                Event::Timeout { flow: 9, seq },
                Event::SenderWake { flow: 1 },
                Event::SenderWake { flow: 2 },
            ]
        );
    }

    #[test]
    fn pop_until_stops_whichever_lane_holds_the_earliest_event() {
        let t = |ms| SimTime::ZERO + Duration::from_millis(ms);
        for lane_first in [true, false] {
            let mut q = EventQueue::new();
            let (early, late) = (Event::SenderWake { flow: 0 }, Event::SenderWake { flow: 1 });
            if lane_first {
                q.schedule_in_order(t(2), early.clone());
                q.schedule(t(5), late.clone());
            } else {
                q.schedule(t(2), early.clone());
                q.schedule_in_order(t(5), late.clone());
            }
            assert!(q.pop_until(t(1)).is_none(), "lane first: {lane_first}");
            assert_eq!(q.pop_until(t(2)), Some((t(2), early)));
            assert!(q.pop_until(t(4)).is_none(), "lane first: {lane_first}");
            assert_eq!(q.len(), 1);
            assert_eq!(q.pop_until(t(5)), Some((t(5), late)));
            assert!(q.pop_until(t(9)).is_none());
        }
    }

    #[test]
    fn interleaved_lanes_pop_as_one_heap_would() {
        // A reference: every event scheduled, in (time, schedule order).
        // In-order times only grow; heap times land anywhere, often on an
        // in-order time, and pops come in between.
        let mut q = EventQueue::new();
        let mut reference: Vec<(u64, usize)> = Vec::new();
        let mut got = Vec::new();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut in_order_at = 0;
        for flow in 0..2_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let roll = state % 10;
            if roll < 6 {
                in_order_at += state / 10 % 3;
                q.schedule_in_order(
                    SimTime::ZERO + Duration::from_millis(in_order_at),
                    Event::SenderWake { flow },
                );
                reference.push((in_order_at, flow));
            } else {
                let at = in_order_at + state / 10 % 8;
                q.schedule(
                    SimTime::ZERO + Duration::from_millis(at),
                    Event::SenderWake { flow },
                );
                reference.push((at, flow));
            }
            if roll.is_multiple_of(3) {
                got.extend(q.pop_until(SimTime::ZERO + Duration::from_millis(in_order_at)));
            }
        }
        got.extend(std::iter::from_fn(|| q.pop()));
        assert!(q.is_empty());
        // Stable sort by time keeps schedule order on ties.
        reference.sort_by_key(|&(at, _)| at);
        let got: Vec<(u64, usize)> = got
            .into_iter()
            .map(|(at, e)| (at.as_nanos() / 1_000_000, flow_of(e)))
            .collect();
        // Every pop_until above stops at a time no later than any event
        // scheduled after it, so the pops follow the reference too.
        assert_eq!(got, reference);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "earlier than the lane's last entry")]
    fn in_order_lane_rejects_a_time_going_back() {
        let mut q = EventQueue::new();
        q.schedule_in_order(
            SimTime::ZERO + Duration::from_millis(3),
            Event::SenderWake { flow: 0 },
        );
        q.schedule_in_order(
            SimTime::ZERO + Duration::from_millis(2),
            Event::SenderWake { flow: 1 },
        );
    }

    #[test]
    fn len_counts_both_lanes() {
        let t = SimTime::ZERO + Duration::from_millis(1);
        let mut q = EventQueue::new();
        q.schedule_in_order(t, Event::SenderWake { flow: 0 });
        assert_eq!((q.len(), q.is_empty()), (1, false));
        q.schedule(t, Event::SenderWake { flow: 1 });
        q.schedule_in_order(t, Event::SenderWake { flow: 2 });
        assert_eq!(q.len(), 3);
        q.pop();
        q.pop();
        assert_eq!(
            (q.len(), q.is_empty()),
            (1, false),
            "only the lane holds one"
        );
        q.pop();
        assert!(q.is_empty());
        q.schedule(t, Event::SenderWake { flow: 3 });
        assert_eq!(
            (q.len(), q.is_empty()),
            (1, false),
            "only the heap holds one"
        );
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
