//! The recorder: level gate, sim-time mirror, and the fixed-capacity
//! event ring buffer.
//!
//! The level, the sampling state and the ring are fields of the calling
//! thread's [`crate::Obs`], so instrumentation sites in any crate reach
//! them without plumbing handles through constructors. The disabled path
//! is one thread-local read of the handle, a relaxed load of its level
//! and a branch ([`enabled`]); nothing else runs until telemetry is
//! switched on.

use std::fs::File;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;

use crate::event::{events_to_jsonl, ObsEvent};
use crate::metrics::{
    Counter, EVENTS_DROPPED_TOTAL, EVENTS_RECORDED_TOTAL, EVENTS_SAMPLED_OUT_TOTAL,
};

/// Recorder verbosity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Telemetry off — the instrumented code paths reduce to one
    /// thread-local read and a branch.
    Off = 0,
    /// Decision-grade events only (admission, `T_est`, queue high-water).
    Info = 1,
    /// Everything, including per-`B_r`-computation and per-message events.
    Debug = 2,
}

/// Default event ring capacity.
pub const DEFAULT_CAPACITY: usize = 65_536;

/// The recorder part of an [`crate::Obs`].
pub(crate) struct Recorder {
    level: AtomicU8,
    /// 1-in-N sampling divisor for the high-frequency debug-tier events
    /// (`BrCompute`, `BackboneSend`); 1 = keep everything.
    sample_every: AtomicU64,
    /// Deterministic per-family sampling sequence counters (counter-based
    /// sampling, no RNG: the k-th event of a family is kept iff
    /// `k % N == 0`).
    br_sample_seq: AtomicU64,
    backbone_sample_seq: AtomicU64,
    ring: Mutex<Ring>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            level: AtomicU8::new(Level::Off as u8),
            sample_every: AtomicU64::new(1),
            br_sample_seq: AtomicU64::new(0),
            backbone_sample_seq: AtomicU64::new(0),
            ring: Mutex::new(Ring {
                buf: Vec::new(),
                start: 0,
                dropped: 0,
                cap: DEFAULT_CAPACITY,
                spill: None,
            }),
        }
    }
}

impl Recorder {
    /// True when the level is above [`Level::Off`].
    #[inline(always)]
    pub(crate) fn enabled(&self) -> bool {
        self.level.load(Ordering::Relaxed) != 0
    }
}

struct Ring {
    buf: Vec<ObsEvent>,
    /// Index of the oldest event once the buffer has wrapped.
    start: usize,
    dropped: u64,
    cap: usize,
    /// When set, a full ring spills to this JSONL file instead of
    /// overwriting its oldest events — guaranteeing a complete stream.
    spill: Option<File>,
}

fn with_ring<R>(f: impl FnOnce(&mut Ring) -> R) -> R {
    crate::with(|o| f(&mut crate::lock(&o.recorder.ring)))
}

/// Sets the recorder level. `Level::Off` disables all instrumentation.
pub fn set_level(level: Level) {
    crate::with(|o| o.recorder.level.store(level as u8, Ordering::Relaxed));
}

/// The current recorder level.
pub fn level() -> Level {
    match crate::with(|o| o.recorder.level.load(Ordering::Relaxed)) {
        0 => Level::Off,
        1 => Level::Info,
        _ => Level::Debug,
    }
}

/// True when telemetry is on at any level. This is the hot-path gate: one
/// thread-local read, a relaxed load and a branch.
#[inline(always)]
pub fn enabled() -> bool {
    crate::with(|o| o.recorder.enabled())
}

/// True when events at `at` would be recorded.
#[inline]
pub fn enabled_at(at: Level) -> bool {
    crate::with(|o| o.recorder.level.load(Ordering::Relaxed) >= at as u8)
}

/// Publishes this thread's simulation clock (seconds) for time-less
/// record sites. The mirror is per thread, not per [`crate::Obs`]: sweep
/// workers that share a handle each stamp events with their own run's
/// clock.
#[inline]
pub fn set_sim_time(secs: f64) {
    crate::HANDLE.with(|h| h.sim_time.set(secs));
}

/// The last simulation time (seconds) this thread published.
#[inline]
pub fn sim_time() -> f64 {
    crate::HANDLE.with(|h| h.sim_time.get())
}

/// Sets the 1-in-N sampling divisor for the high-frequency debug-tier
/// events (`BrCompute`, `BackboneSend`). `n <= 1` keeps every event. At
/// debug level under extreme loads the ring churns; sampling keeps the
/// stream bounded while `qres_obs_sample_rate` in the exposition lets
/// scraped rates be rescaled (each kept event represents `N`). Sampling
/// never touches histograms or counters — only the event stream.
pub fn set_sample_every(n: u64) {
    crate::with(|o| {
        let r = &o.recorder;
        r.sample_every.store(n.max(1), Ordering::Relaxed);
        r.br_sample_seq.store(0, Ordering::Relaxed);
        r.backbone_sample_seq.store(0, Ordering::Relaxed);
    });
}

/// The current debug-tier sampling divisor (1 = no sampling).
pub fn sample_every() -> u64 {
    crate::with(|o| o.recorder.sample_every.load(Ordering::Relaxed))
}

/// True when sampling admits this event: non-sampled families always
/// pass; `BrCompute`/`BackboneSend` pass for every N-th event of their
/// family (deterministic counter, no RNG).
fn sampled_in(r: &Recorder, event: &ObsEvent) -> bool {
    let n = r.sample_every.load(Ordering::Relaxed);
    if n <= 1 {
        return true;
    }
    let seq = match event {
        ObsEvent::BrCompute { .. } => &r.br_sample_seq,
        ObsEvent::BackboneSend { .. } => &r.backbone_sample_seq,
        _ => return true,
    };
    seq.fetch_add(1, Ordering::Relaxed) % n == 0
}

/// Records an event if the current level admits it.
///
/// When the ring is full: with a spill file configured the buffered events
/// are flushed to it as JSONL and the ring cleared; otherwise the oldest
/// event is overwritten and the dropped counter bumped.
pub fn record(event: ObsEvent) {
    crate::with(|o| {
        let r = &o.recorder;
        if r.level.load(Ordering::Relaxed) < event.level() as u8 {
            return;
        }
        let bump = |c: &Counter| c.cell(o).fetch_add(1, Ordering::Relaxed);
        if !sampled_in(r, &event) {
            bump(&EVENTS_SAMPLED_OUT_TOTAL);
            return;
        }
        bump(&EVENTS_RECORDED_TOTAL);
        let mut ring = crate::lock(&r.ring);
        if ring.buf.len() >= ring.cap {
            if ring.spill.is_some() {
                spill_locked(&mut ring);
            } else {
                let at = ring.start;
                ring.buf[at] = event;
                ring.start = (ring.start + 1) % ring.cap;
                ring.dropped += 1;
                bump(&EVENTS_DROPPED_TOTAL);
                return;
            }
        }
        ring.buf.push(event);
    });
}

fn spill_locked(ring: &mut Ring) {
    let events = take_ordered(ring);
    if let Some(file) = ring.spill.as_mut() {
        let _ = file.write_all(events_to_jsonl(&events).as_bytes());
    }
}

fn take_ordered(ring: &mut Ring) -> Vec<ObsEvent> {
    let mut events = std::mem::take(&mut ring.buf);
    let pivot = ring.start.min(events.len());
    events.rotate_left(pivot);
    ring.start = 0;
    events
}

/// Removes and returns all buffered events, oldest first, together with
/// the count of events lost to ring overwrites since the last [`reset`].
pub fn drain_events() -> (Vec<ObsEvent>, u64) {
    with_ring(|ring| {
        let events = take_ordered(ring);
        (events, ring.dropped)
    })
}

/// Sets the event ring capacity (existing buffered events are kept up to
/// the new capacity's worth, oldest dropped first).
pub fn set_capacity(cap: usize) {
    assert!(cap > 0, "ring capacity must be positive");
    with_ring(|ring| {
        let mut events = take_ordered(ring);
        if events.len() > cap {
            events.drain(..events.len() - cap);
        }
        ring.buf = events;
        ring.cap = cap;
    });
}

/// Routes ring overflow to a JSONL spill file (created/truncated now).
/// Call [`flush_spill`] at end of run to write the tail of the stream.
pub fn set_spill_path(path: &Path) -> std::io::Result<()> {
    let file = File::create(path)?;
    with_ring(|ring| ring.spill = Some(file));
    Ok(())
}

/// Writes any buffered events to the spill file (no-op without one) and
/// returns how many were written.
pub fn flush_spill() -> usize {
    with_ring(|ring| {
        if ring.spill.is_none() {
            return 0;
        }
        let n = ring.buf.len();
        spill_locked(ring);
        n
    })
}

/// Detaches the spill file (flushing it first).
pub fn clear_spill() {
    with_ring(|ring| {
        if ring.spill.is_some() {
            spill_locked(ring);
        }
        ring.spill = None;
    });
}

/// Clears all buffered events, the dropped counter, and the spill file
/// handle. Does not touch the level or the metrics registry.
pub fn reset() {
    with_ring(|ring| {
        ring.buf.clear();
        ring.start = 0;
        ring.dropped = 0;
        ring.spill = None;
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_keeps_one_in_n() {
        set_level(Level::Debug);
        set_sample_every(4);
        for i in 0..16u32 {
            record(ObsEvent::BrCompute {
                t: f64::from(i),
                cell: 0,
                req: u64::from(i),
                memo_hits: 0,
                recomputed: 1,
                br: 0.0,
                dur_ns: 0,
            });
            // Info-tier events are never sampled out.
            record(ObsEvent::QueueHighWater {
                t: f64::from(i),
                live: 1,
            });
        }
        let (events, _) = drain_events();
        let br = events
            .iter()
            .filter(|e| matches!(e, ObsEvent::BrCompute { .. }))
            .count();
        let info = events
            .iter()
            .filter(|e| matches!(e, ObsEvent::QueueHighWater { .. }))
            .count();
        assert_eq!(br, 4, "1-in-4 sampling must keep every 4th BrCompute");
        assert_eq!(info, 16, "info-tier events bypass sampling");
        assert_eq!(sample_every(), 4);
    }

    #[test]
    fn lifecycle() {
        assert!(!enabled(), "a fresh handle starts off");
        record(ObsEvent::QueueHighWater { t: 0.0, live: 1 });
        assert!(drain_events().0.is_empty(), "off level must record nothing");

        set_level(Level::Info);
        assert!(enabled());
        assert!(enabled_at(Level::Info));
        assert!(!enabled_at(Level::Debug));
        record(ObsEvent::QueueHighWater { t: 1.0, live: 2 });
        record(ObsEvent::BrCompute {
            t: 1.0,
            cell: 0,
            req: 1,
            memo_hits: 0,
            recomputed: 1,
            br: 0.0,
            dur_ns: 0,
        });
        let (events, dropped) = drain_events();
        assert_eq!(events.len(), 1, "debug event must be filtered at info");
        assert_eq!(dropped, 0);

        set_level(Level::Debug);
        set_capacity(4);
        for i in 0..6u32 {
            record(ObsEvent::QueueHighWater {
                t: f64::from(i),
                live: u64::from(i),
            });
        }
        let (events, dropped) = drain_events();
        assert_eq!(events.len(), 4);
        assert_eq!(dropped, 2);
        // Oldest-first order after wrap.
        assert_eq!(events[0].time(), 2.0);
        assert_eq!(events[3].time(), 5.0);

        set_sim_time(12.5);
        assert_eq!(sim_time(), 12.5);
    }

    #[test]
    fn spill_file_keeps_complete_stream() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("qres_obs_spill_{}.jsonl", std::process::id()));
        set_level(Level::Debug);
        set_capacity(3);
        set_spill_path(&path).unwrap();
        for i in 0..8 {
            record(ObsEvent::QueueHighWater {
                t: f64::from(i),
                live: 1,
            });
        }
        assert!(flush_spill() > 0);
        clear_spill();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 8, "no events may be lost via spill");
        let _ = std::fs::remove_file(&path);
    }

    /// A new thread starts on a fresh handle; installing another thread's
    /// handle shares its state but not its sim-time mirror.
    #[test]
    fn threads_share_a_handle_only_once_installed() {
        set_level(Level::Info);
        set_sim_time(7.0);
        let mine = crate::current();
        std::thread::spawn(move || {
            assert!(!enabled());
            crate::install(mine);
            assert!(enabled());
            assert_eq!(sim_time(), 0.0);
            record(ObsEvent::QueueHighWater { t: 8.0, live: 2 });
        })
        .join()
        .unwrap();
        assert_eq!(drain_events().0.len(), 1);
        assert_eq!(sim_time(), 7.0);
    }
}
