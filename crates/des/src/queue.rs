//! The pending-event set.
//!
//! A binary-heap priority queue keyed on `(SimTime, sequence)`. The
//! monotonically increasing sequence number gives **deterministic FIFO
//! ordering among simultaneous events** — two events scheduled for the same
//! instant are delivered in scheduling order, on every run. That property is
//! what makes whole simulation runs reproducible from a seed.
//!
//! Cancellation is **lazy**: [`EventQueue::cancel`] marks a handle dead and
//! the event is silently discarded when it surfaces. This is the standard
//! DES technique for invalidating a scheduled hand-off when its connection
//! terminates first (paper §5: a connection's exponential lifetime may expire
//! before its next cell-boundary crossing).

use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashSet};
use std::hash::BuildHasherDefault;

use crate::time::SimTime;

/// Live-event count at which the first high-water telemetry mark fires.
const OBS_FIRST_MARK: usize = 64;

/// A handle to a scheduled event, usable to cancel it before it fires.
///
/// Handles are unique per queue for the lifetime of the queue (a `u64`
/// sequence number; overflow is unreachable in practice).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventHandle(u64);

struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first. Sequence breaks ties FIFO.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The pending-event set of a simulation.
///
/// Generic over the event payload `E`; the cellular simulator instantiates
/// it with its own event enum.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Fixed hash keys rather than per-process random ones: when the set
    /// rehashes, and so when it allocates, then depends on the run alone.
    cancelled: HashSet<u64, BuildHasherDefault<DefaultHasher>>,
    next_seq: u64,
    scheduled_total: u64,
    cancelled_total: u64,
    live_high_water: usize,
    /// Next live-event count at which a `QueueHighWater` telemetry event
    /// fires (doubles each time, so a run emits O(log n) marks).
    obs_next_mark: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            cancelled: HashSet::default(),
            next_seq: 0,
            scheduled_total: 0,
            cancelled_total: 0,
            live_high_water: 0,
            obs_next_mark: OBS_FIRST_MARK,
        }
    }

    /// Creates an empty queue with pre-allocated capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            ..Self::new()
        }
    }

    /// Schedules `event` to fire at `at`, returning a cancellation handle.
    ///
    /// Scheduling an event in the past is permitted (it fires immediately on
    /// the next pop); the simulation loop asserts clock monotonicity, so a
    /// handler scheduling before *now* is a programming error surfaced there.
    pub fn schedule(&mut self, at: SimTime, event: E) -> EventHandle {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        self.heap.push(Entry { at, seq, event });
        let live = self.live_len();
        if live > self.live_high_water {
            self.live_high_water = live;
            if qres_obs::enabled() && live >= self.obs_next_mark {
                while self.obs_next_mark <= live {
                    self.obs_next_mark *= 2;
                }
                qres_obs::metrics::QUEUE_HIGH_WATER.observe(live as u64);
                qres_obs::record(qres_obs::ObsEvent::QueueHighWater {
                    t: qres_obs::sim_time(),
                    live: live as u64,
                });
            }
        }
        EventHandle(seq)
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the handle was live (not yet fired or cancelled).
    /// Cancelling an already-fired handle is a no-op returning `false`.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        if handle.0 >= self.next_seq {
            return false;
        }
        let fresh = self.cancelled.insert(handle.0);
        if fresh {
            self.cancelled_total += 1;
        }
        fresh
    }

    /// Removes and returns the earliest live event, skipping cancelled ones.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(entry) = self.heap.pop() {
            if self.cancelled.remove(&entry.seq) {
                continue;
            }
            return Some((entry.at, entry.event));
        }
        None
    }

    /// The timestamp of the earliest live event, if any, without removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        // Drain cancelled entries off the top so the peek is accurate.
        while let Some(entry) = self.heap.peek() {
            if self.cancelled.contains(&entry.seq) {
                let seq = entry.seq;
                self.heap.pop();
                self.cancelled.remove(&seq);
            } else {
                return Some(entry.at);
            }
        }
        None
    }

    /// Number of scheduled-and-not-yet-popped entries, including entries
    /// that are cancelled but not yet drained (an upper bound on live events).
    pub fn len_upper_bound(&self) -> usize {
        self.heap.len()
    }

    /// Exact number of live (non-cancelled) pending events.
    pub fn live_len(&self) -> usize {
        self.heap.len() - self.cancelled.len()
    }

    /// True when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live_len() == 0
    }

    /// Total events ever scheduled on this queue.
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Total events ever cancelled on this queue.
    pub fn cancelled_total(&self) -> u64 {
        self.cancelled_total
    }

    /// High-water mark of live (non-cancelled) pending events.
    pub fn live_high_water(&self) -> usize {
        self.live_high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(3.0), "c");
        q.schedule(t(1.0), "a");
        q.schedule(t(2.0), "b");
        assert_eq!(q.pop(), Some((t(1.0), "a")));
        assert_eq!(q.pop(), Some((t(2.0), "b")));
        assert_eq!(q.pop(), Some((t(3.0), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5.0), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5.0), i)));
        }
    }

    #[test]
    fn cancellation_skips_events() {
        let mut q = EventQueue::new();
        let _a = q.schedule(t(1.0), "a");
        let b = q.schedule(t(2.0), "b");
        let _c = q.schedule(t(3.0), "c");
        assert!(q.cancel(b));
        assert_eq!(q.pop(), Some((t(1.0), "a")));
        assert_eq!(q.pop(), Some((t(3.0), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn double_cancel_is_noop() {
        let mut q = EventQueue::new();
        let h = q.schedule(t(1.0), ());
        assert!(q.cancel(h));
        assert!(!q.cancel(h));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cancel_unknown_handle_is_noop() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventHandle(42)));
        assert!(q.is_empty());
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1.0), "a");
        q.schedule(t(2.0), "b");
        assert_eq!(q.peek_time(), Some(t(1.0)));
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(t(2.0)));
        assert_eq!(q.pop(), Some((t(2.0), "b")));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn live_len_tracks_cancellations() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1.0), ());
        q.schedule(t(2.0), ());
        assert_eq!(q.live_len(), 2);
        q.cancel(a);
        assert_eq!(q.live_len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.scheduled_total(), 2);
        assert_eq!(q.cancelled_total(), 1);
    }

    #[test]
    fn high_water_tracks_peak_live_count() {
        let mut q = EventQueue::new();
        for i in 0..5 {
            q.schedule(t(f64::from(i)), i);
        }
        q.pop();
        q.pop();
        q.schedule(t(9.0), 9);
        assert_eq!(q.live_high_water(), 5);
    }

    #[test]
    fn negative_and_equal_times() {
        let mut q = EventQueue::new();
        q.schedule(t(0.0), 1u8);
        q.schedule(t(-5.0), 0u8);
        assert_eq!(q.pop().unwrap().1, 0);
        assert_eq!(q.pop().unwrap().1, 1);
    }
}
