//! Randomized tests of the event queue's ordering contract — the foundation
//! of run determinism. (Seeded-RNG loops stand in for proptest, which is
//! unavailable offline.)

use qres_des::{EventHandle, EventQueue, SimTime, StreamRng};

/// Pops come out sorted by time, FIFO within equal times, regardless of the
/// schedule order.
#[test]
fn pops_sorted_and_fifo() {
    let mut rng = StreamRng::seed_from_u64(0xDE50_0001);
    for _ in 0..300 {
        let n = rng.gen_range(1usize..200);
        let times: Vec<u32> = (0..n).map(|_| rng.gen_range(0u32..50)).collect();
        let mut q = EventQueue::new();
        for (seq, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_secs(f64::from(t)), seq);
        }
        let mut last: Option<(SimTime, usize)> = None;
        let mut popped = 0;
        while let Some((t, seq)) = q.pop() {
            popped += 1;
            if let Some((lt, lseq)) = last {
                assert!(t >= lt, "time went backwards");
                if t == lt {
                    assert!(seq > lseq, "FIFO violated among ties");
                }
            }
            last = Some((t, seq));
        }
        assert_eq!(popped, times.len());
    }
}

/// Cancellation removes exactly the cancelled events, whatever the
/// interleaving of schedules and cancels.
#[test]
fn cancellation_is_exact() {
    let mut rng = StreamRng::seed_from_u64(0xDE50_0002);
    for _ in 0..300 {
        let n = rng.gen_range(1usize..100);
        let times: Vec<u32> = (0..n).map(|_| rng.gen_range(0u32..50)).collect();
        let m = rng.gen_range(1usize..100);
        let cancel_mask: Vec<bool> = (0..m).map(|_| rng.gen_bool(0.5)).collect();
        let mut q = EventQueue::new();
        let handles: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (i, q.schedule(SimTime::from_secs(f64::from(t)), i)))
            .collect();
        let mut expected: Vec<usize> = Vec::new();
        for (i, handle) in handles {
            let cancel = cancel_mask.get(i).copied().unwrap_or(false);
            if cancel {
                assert!(q.cancel(handle));
            } else {
                expected.push(i);
            }
        }
        let mut seen: Vec<usize> = Vec::new();
        while let Some((_, v)) = q.pop() {
            seen.push(v);
        }
        seen.sort_unstable();
        expected.sort_unstable();
        assert_eq!(seen, expected);
    }
}

/// live_len always equals the number of events that will still pop.
#[test]
fn live_len_is_exact() {
    let mut rng = StreamRng::seed_from_u64(0xDE50_0003);
    for _ in 0..300 {
        let n = rng.gen_range(1usize..100);
        let ops: Vec<(u32, bool)> = (0..n)
            .map(|_| (rng.gen_range(0u32..50), rng.gen_bool(0.5)))
            .collect();
        let mut q = EventQueue::new();
        let mut live = 0usize;
        let mut handles = Vec::new();
        for &(t, cancel_one) in &ops {
            handles.push(q.schedule(SimTime::from_secs(f64::from(t)), ()));
            live += 1;
            if cancel_one && live > 0 {
                // Cancel the newest still-live handle.
                if let Some(h) = handles.pop() {
                    if q.cancel(h) {
                        live -= 1;
                    }
                }
            }
            assert_eq!(q.live_len(), live);
        }
        let mut popped = 0;
        while q.pop().is_some() {
            popped += 1;
        }
        assert_eq!(popped, live);
    }
}

/// Cancelling a handle whose event already fired is a no-op: it returns
/// `false` and leaves the live count alone.
#[test]
fn cancel_after_fire_is_noop() {
    let mut q = EventQueue::new();
    let h = q.schedule(SimTime::from_secs(1.0), ());
    assert_eq!(q.pop(), Some((SimTime::from_secs(1.0), ())));
    assert!(!q.cancel(h));
    assert_eq!(q.live_len(), 0);
}

/// The naive reference: pending events in a `Vec`, the earliest found by
/// a linear scan in `(SimTime, seq)` order.
#[derive(Default)]
struct Model {
    /// `(at, seq, payload)` of every pending event.
    pending: Vec<(SimTime, u64, u32)>,
    scheduled_total: u64,
    live_high_water: usize,
}

impl Model {
    fn schedule(&mut self, at: SimTime, payload: u32) -> u64 {
        let seq = self.scheduled_total;
        self.scheduled_total += 1;
        self.pending.push((at, seq, payload));
        self.live_high_water = self.live_high_water.max(self.pending.len());
        seq
    }

    fn cancel(&mut self, seq: u64) -> bool {
        let Some(i) = self.pending.iter().position(|e| e.1 == seq) else {
            return false;
        };
        self.pending.remove(i);
        true
    }

    fn earliest(&self) -> Option<usize> {
        (0..self.pending.len()).min_by(|&a, &b| {
            let (ea, eb) = (self.pending[a], self.pending[b]);
            ea.0.cmp(&eb.0).then(ea.1.cmp(&eb.1))
        })
    }

    fn pop_before(&mut self, horizon: Option<SimTime>) -> Option<(u64, u32)> {
        let i = self.earliest()?;
        if horizon.is_some_and(|h| self.pending[i].0 >= h) {
            return None;
        }
        let (at, _, payload) = self.pending.remove(i);
        Some((at.as_secs().to_bits(), payload))
    }

    fn peek_bits(&self) -> Option<u64> {
        self.earliest()
            .map(|i| self.pending[i].0.as_secs().to_bits())
    }
}

/// Handles no queue below ever issues: their sequence numbers lie past
/// anything those queues reach, their slots inside the slot tables.
fn never_issued_handles() -> Vec<EventHandle> {
    let mut q = EventQueue::new();
    for _ in 0..100_000 {
        q.schedule(SimTime::ZERO, ());
        q.pop();
    }
    (0..8).map(|_| q.schedule(SimTime::ZERO, ())).collect()
}

/// Seeded random interleavings of every queue operation agree with the
/// reference model after each step: the popped `(time bits, payload)`
/// sequence, the peeked times and every counter.
#[test]
fn matches_reference_model() {
    let times = [
        f64::NEG_INFINITY,
        -7.5,
        -1.0,
        -0.0,
        0.0,
        0.25,
        1.0,
        1.0 + f64::EPSILON,
        3.0,
        1e300,
        f64::INFINITY,
    ];
    let foreign = never_issued_handles();
    let mut rng = StreamRng::seed_from_u64(0xDE50_0004);
    for case in 0..200 {
        let mut q = EventQueue::with_capacity(rng.gen_index(16));
        let mut model = Model::default();
        let mut handles: Vec<(EventHandle, u64)> = Vec::new();
        let mut next_payload = 0u32;
        let pick_time = |rng: &mut StreamRng| {
            if rng.gen_bool(0.8) {
                times[rng.gen_index(times.len())]
            } else {
                rng.gen_range_f64(-10.0, 10.0)
            }
        };
        for step in 0..rng.gen_range(1usize..400) {
            let ctx = format!("case {case} step {step}");
            match rng.gen_index(10) {
                0..=3 => {
                    let at = SimTime::from_secs(pick_time(&mut rng));
                    let h = q.schedule(at, next_payload);
                    handles.push((h, model.schedule(at, next_payload)));
                    next_payload += 1;
                }
                4 | 5 if !handles.is_empty() => {
                    // Live, cancelled and fired handles alike.
                    let (h, seq) = handles[rng.gen_index(handles.len())];
                    assert_eq!(q.cancel(h), model.cancel(seq), "{ctx}: cancel");
                }
                4..=6 => {
                    let h = foreign[rng.gen_index(foreign.len())];
                    assert!(!q.cancel(h), "{ctx}: never-issued handle");
                }
                7 => {
                    let got = q.pop().map(|(at, v)| (at.as_secs().to_bits(), v));
                    assert_eq!(got, model.pop_before(None), "{ctx}: pop");
                }
                8 => {
                    let got = q.peek_time().map(|at| at.as_secs().to_bits());
                    assert_eq!(got, model.peek_bits(), "{ctx}: peek_time");
                }
                _ => {
                    let horizon = SimTime::from_secs(pick_time(&mut rng));
                    let got = q
                        .pop_before(horizon)
                        .map(|(at, v)| (at.as_secs().to_bits(), v));
                    assert_eq!(got, model.pop_before(Some(horizon)), "{ctx}: pop_before");
                }
            }
            assert_eq!(q.live_len(), model.pending.len(), "{ctx}: live_len");
            assert_eq!(q.is_empty(), model.pending.is_empty(), "{ctx}: is_empty");
            assert_eq!(q.scheduled_total(), model.scheduled_total, "{ctx}");
            assert_eq!(q.live_high_water(), model.live_high_water, "{ctx}");
        }
        while let Some((at, v)) = q.pop() {
            assert_eq!(Some((at.as_secs().to_bits(), v)), model.pop_before(None));
        }
        assert_eq!(model.pending.len(), 0, "case {case}: drained together");
    }
}
