//! The pending-event set.
//!
//! A binary heap of small `(key, seq, slot)` entries over a slot table that
//! holds the payloads. Nothing on the schedule/pop/cancel path hashes.
//!
//! * **Ordering.** `key` maps the event time onto a `u64` whose unsigned
//!   order is [`SimTime`]'s order (`-0.0` folds onto `+0.0`, which
//!   `SimTime` compares equal), so the heap compares integers only. The
//!   monotonically increasing sequence number `seq` breaks ties: **two
//!   events scheduled for the same instant are delivered FIFO**, in
//!   scheduling order, on every run. That property is what makes whole
//!   simulation runs reproducible from a seed. The key decodes back to the
//!   scheduled time's bits (the entry remembers a negative zero), so every
//!   pop returns exactly the `at` it was scheduled with.
//! * **Cancellation by slot.** An [`EventHandle`] is `(seq, slot)`.
//!   [`EventQueue::cancel`] is one index and one compare: if the slot still
//!   holds that `seq`, the payload is dropped and the slot freed at once.
//!   The heap entry is left behind and discarded when it surfaces, because
//!   its slot no longer holds its `seq`. This is the standard lazy DES
//!   technique for invalidating a scheduled event (the cellular engine
//!   needs none). A handle that already fired or was cancelled fails the
//!   compare, so cancelling it is a no-op.
//! * **Slot table.** Freed slots are chained in place into a free list and
//!   reused last-in first-out; the table grows only when the list is
//!   empty, so it never holds more slots than the peak live-event count.
//! * **Large queues.** The heap is hand-written (see `Heap`) so that a pop
//!   can load the next levels before it compares, and each pop starts
//!   loading the next top's slot while the handler runs. On `metro_ac3`,
//!   whose heap and slot table outgrow the L2 cache, the cache misses then
//!   overlap instead of running one after another.

use crate::time::SimTime;

/// End of the free-slot chain.
const NIL: u32 = u32::MAX;

const SIGN: u64 = 1 << 63;

/// A handle to a scheduled event, usable to cancel it before it fires.
///
/// The event's sequence number (unique per queue for the lifetime of the
/// queue; overflow is unreachable in practice) and the slot holding its
/// payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventHandle {
    seq: u64,
    slot: u32,
}

/// `secs` as a `u64` whose unsigned order is the `f64` order, with `-0.0`
/// folded onto `+0.0`: non-negative values get the sign bit set, negative
/// ones have every bit flipped.
#[inline]
fn time_key(secs: f64) -> u64 {
    let bits = if secs == 0.0 { 0 } else { secs.to_bits() };
    if bits & SIGN == 0 {
        bits | SIGN
    } else {
        !bits
    }
}

/// The inverse of [`time_key`] (a folded `-0.0` comes back as `+0.0`).
#[inline]
fn key_secs(key: u64) -> f64 {
    f64::from_bits(if key & SIGN != 0 { key & !SIGN } else { !key })
}

/// One heap entry: 24 bytes, ordered by `(key, seq)` alone.
#[derive(Clone, Copy)]
struct Entry {
    key: u64,
    seq: u64,
    slot: u32,
    /// The event was scheduled at `-0.0`, which `key` cannot tell from
    /// `+0.0`.
    neg_zero: bool,
}

impl Entry {
    /// `(key, seq)` as one integer, so each comparison in a sift is one
    /// branch-free 128-bit compare. `seq` is unique, so no two ranks tie.
    #[inline]
    fn rank(&self) -> u128 {
        (u128::from(self.key) << 64) | u128::from(self.seq)
    }

    #[inline]
    fn at(self) -> SimTime {
        SimTime::from_secs(if self.neg_zero {
            -0.0
        } else {
            key_secs(self.key)
        })
    }
}

/// A binary min-heap of entries by [`Entry::rank`].
///
/// Not `std::collections::BinaryHeap`: its sift picks a child with the same
/// branch-free compare, so the address of each level's load depends on the
/// previous level's, and on a heap larger than the L2 cache (`metro_ac3`
/// peaks near 90k live events) the cache misses of one pop run one after
/// another. [`Heap::pop`] loads both children's children before it
/// compares, so the next level's miss overlaps this level's.
struct Heap(Vec<Entry>);

impl Heap {
    #[inline]
    fn peek(&self) -> Option<&Entry> {
        self.0.first()
    }

    #[inline]
    fn push(&mut self, entry: Entry) {
        self.0.push(entry);
        let pos = self.0.len() - 1;
        sift_up(&mut self.0, pos, entry);
    }

    /// Removes the least entry. Like `BinaryHeap::pop`, it moves the hole
    /// left by the root down to a leaf, then sifts the last entry up from
    /// there (the last entry usually belongs near the bottom).
    #[inline]
    fn pop(&mut self) -> Option<Entry> {
        let last = self.0.pop()?;
        let Some(&top) = self.0.first() else {
            return Some(last);
        };
        let v = &mut self.0[..];
        let (mut pos, mut child) = (0, 1);
        let mut ahead = 0;
        while child + 1 < v.len() {
            let grand = 2 * child + 1;
            if grand + 3 < v.len() {
                ahead ^= v[grand].seq ^ v[grand + 3].seq;
            }
            child += usize::from(v[child + 1].rank() < v[child].rank());
            v[pos] = v[child];
            pos = child;
            child = 2 * pos + 1;
        }
        if child + 1 == v.len() {
            v[pos] = v[child];
            pos = child;
        }
        // Keeps the early loads, whose values nothing else reads.
        std::hint::black_box(ahead);
        sift_up(v, pos, last);
        Some(top)
    }
}

/// Places `entry` at the hole `pos` or above it.
#[inline]
fn sift_up(v: &mut [Entry], mut pos: usize, entry: Entry) {
    let rank = entry.rank();
    while pos > 0 {
        let parent = (pos - 1) / 2;
        if v[parent].rank() < rank {
            break;
        }
        v[pos] = v[parent];
        pos = parent;
    }
    v[pos] = entry;
}

/// One slot of the payload table.
enum Slot<E> {
    /// Holds the payload of pending event `seq`.
    Live { seq: u64, event: E },
    /// Unused; `next` is the next free slot, or [`NIL`].
    Free { next: u32 },
}

/// The pending-event set of a simulation.
///
/// Generic over the event payload `E`; the cellular simulator instantiates
/// it with its own event enum.
pub struct EventQueue<E> {
    heap: Heap,
    slots: Vec<Slot<E>>,
    /// Head of the free-slot chain threaded through `slots`.
    free: u32,
    live: usize,
    next_seq: u64,
    live_high_water: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue whose heap and slot table each have room for
    /// `capacity` entries before they reallocate.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: Heap(Vec::with_capacity(capacity)),
            slots: Vec::with_capacity(capacity),
            free: NIL,
            live: 0,
            next_seq: 0,
            live_high_water: 0,
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
        let slot = if self.free == NIL {
            let slot = self.slots.len();
            assert!(slot < NIL as usize, "slot table full");
            self.slots.push(Slot::Live { seq, event });
            slot as u32
        } else {
            let slot = self.free;
            let held = std::mem::replace(&mut self.slots[slot as usize], Slot::Live { seq, event });
            let Slot::Free { next } = held else {
                unreachable!("the free chain holds only free slots")
            };
            self.free = next;
            slot
        };
        let secs = at.as_secs();
        self.heap.push(Entry {
            key: time_key(secs),
            seq,
            slot,
            neg_zero: secs == 0.0 && secs.is_sign_negative(),
        });
        self.live += 1;
        let live = self.live;
        if live > self.live_high_water {
            // A new peak: at most one per live event a run ever holds.
            self.live_high_water = live;
            if qres_obs::enabled() {
                qres_obs::metrics::QUEUE_HIGH_WATER.observe(live as u64);
            }
        }
        EventHandle { seq, slot }
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the handle was live (not yet fired or cancelled).
    /// Cancelling an already-fired or already-cancelled handle is a no-op
    /// returning `false`.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        let held = self.holds(handle.seq, handle.slot);
        if held {
            self.release(handle.slot);
        }
        held
    }

    /// Removes and returns the earliest live event, skipping cancelled ones.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.top()?;
        Some(self.pop_top())
    }

    /// Removes and returns the earliest live event if it lies strictly
    /// before `horizon`; otherwise leaves it pending and returns `None`
    /// (also when no live event remains — [`is_empty`](Self::is_empty)
    /// tells the two apart). One look at the top of the heap per event,
    /// where [`peek_time`](Self::peek_time) then [`pop`](Self::pop) takes
    /// two.
    pub fn pop_before(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        if self.top()?.key >= time_key(horizon.as_secs()) {
            return None;
        }
        Some(self.pop_top())
    }

    /// The timestamp of the earliest live event, if any, without removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.top().map(Entry::at)
    }

    /// Drains cancelled entries off the top of the heap and returns the
    /// earliest live one.
    #[inline]
    fn top(&mut self) -> Option<Entry> {
        while let Some(&top) = self.heap.peek() {
            if self.holds(top.seq, top.slot) {
                return Some(top);
            }
            self.heap.pop();
        }
        None
    }

    /// Whether `slot` still holds pending event `seq`.
    #[inline]
    fn holds(&self, seq: u64, slot: u32) -> bool {
        matches!(
            self.slots.get(slot as usize),
            Some(Slot::Live { seq: held, .. }) if *held == seq
        )
    }

    /// Pops the heap's top entry, which [`top`](Self::top) found live.
    #[inline]
    fn pop_top(&mut self) -> (SimTime, E) {
        let entry = self.heap.pop().expect("top found a live entry");
        let popped = (entry.at(), self.release(entry.slot));
        // Load the next top's slot now, while the handler runs, rather than
        // miss on it at the next pop.
        if let Some(&next) = self.heap.peek() {
            std::hint::black_box(self.holds(next.seq, next.slot));
        }
        popped
    }

    /// Frees a live slot onto the free chain and returns its payload.
    #[inline]
    fn release(&mut self, slot: u32) -> E {
        let held = std::mem::replace(
            &mut self.slots[slot as usize],
            Slot::Free { next: self.free },
        );
        let Slot::Live { event, .. } = held else {
            unreachable!("only a live slot is released")
        };
        self.free = slot;
        self.live -= 1;
        event
    }

    /// Exact number of live (non-cancelled) pending events.
    pub fn live_len(&self) -> usize {
        self.live
    }

    /// True when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total events ever scheduled on this queue.
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
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
        assert!(!q.cancel(EventHandle { seq: 42, slot: 0 }));
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
    fn high_water_gauge_reports_the_peak() {
        qres_obs::set_level(qres_obs::Level::Info);
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(f64::from(i)), i);
        }
        q.pop();
        q.schedule(t(200.0), 200);
        assert_eq!(qres_obs::metrics::QUEUE_HIGH_WATER.get(), 100);
        assert_eq!(q.live_high_water(), 100);
    }

    #[test]
    fn time_key_orders_like_simtime_and_round_trips() {
        let xs = [
            f64::NEG_INFINITY,
            f64::MIN,
            -1.5,
            -f64::MIN_POSITIVE,
            -5e-324,
            -0.0,
            0.0,
            5e-324,
            f64::MIN_POSITIVE,
            1.5,
            f64::MAX,
            f64::INFINITY,
        ];
        for &a in &xs {
            for &b in &xs {
                assert_eq!(time_key(a).cmp(&time_key(b)), t(a).cmp(&t(b)), "{a} vs {b}");
            }
            let back = key_secs(time_key(a));
            assert_eq!(back.to_bits(), if a == 0.0 { 0 } else { a.to_bits() });
        }
    }

    #[test]
    fn slots_are_reused() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            let h = q.schedule(t(f64::from(i)), i);
            if i % 2 == 0 {
                q.cancel(h);
            } else {
                q.pop();
            }
        }
        assert_eq!(q.slots.len(), 1);
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
