//! # qres-obs — observability for the hand-off reservation stack
//!
//! A zero-dependency (beyond `qres-json`) telemetry layer threaded through
//! every crate in the workspace:
//!
//! * [`metrics`] — a registry of counters, max-gauges, and log-linear
//!   timing histograms over the hot paths:
//!   admission tests, `B_i,0` Eq.-4 passes, `compute_br` calls, event
//!   dispatch, sweep points.
//! * [`export`] — the JSON snapshot and the end-of-run writer
//!   [`write_obs_json`].
//! * [`qos`] — QoS-conformance tracking: per-cell sliding-window
//!   `P_HD`/`P_CB` estimators with Wilson intervals, violation-seconds
//!   clocks against the paper's target, and reservation-efficiency
//!   integrals (`B_r` reserved vs. hand-off bandwidth consumed).
//! * [`calib`] — Eq.-4 prediction calibration: every per-connection `p_h`
//!   forecast scored against its own `T_est` window, aggregated into
//!   reliability-diagram bins, a Brier score and its skill over
//!   climatology (`qres obs calib`).
//! * [`diff`] — cross-run diff of two `obs.json` snapshots
//!   (`qres obs diff`).
//! * [`alert`] — the flight-capture trigger: every 60 sim-s, a cell whose
//!   `P_HD` burns its budget in both a fast 300-s window and the [`qos`]
//!   window starts firing and captures its flight window once; plus the
//!   `qres obs alerts` report, read from the `qos` and `flight` sections.
//! * [`flight`] — the decision-provenance flight recorder: a bounded ring
//!   of complete admission decision records (inputs, per-neighbor Eq.-4
//!   terms, feasibility checks, verdict) keyed by `admission_req_seq`,
//!   frozen to `obs_flight_<cell>_<ts>.json` when a cell's `P_HD` burn
//!   fires, rendered by `qres obs explain` and re-executed by `qres obs
//!   replay`.
//! * [`staging`] — one admission's telemetry, staged in its caller's
//!   buffer while the timed test runs and published to the stores after.
//! * [`loglin`] — the log-linear bucket layout of the timing histograms
//!   (16 sub-buckets per octave, ≤ 6.25% relative error), also used by
//!   `qres_stats::LogLinearHistogram`.
//!
//! ## One handle per thread
//!
//! All of this state is one [`Obs`]. Each thread reaches its own through
//! a thread-local handle that starts as a fresh default, and every free
//! function here acts on the calling thread's handle, so a run owns its
//! telemetry. Sweep workers (`qres_sim::par_map`) adopt their caller's
//! with [`current`] and [`install`]. The sim-time mirror stays per
//! thread; what an admission stages stays in its caller's [`Staging`].
//!
//! ## Run artifacts
//!
//! A run with telemetry on writes one document. At the end,
//! [`write_obs_json`] finishes the run's telemetry and writes
//! [`OBS_JSON_PATH`]: the [`snapshot_json`] document (`counters`,
//! `gauges`, `histograms`, `qos`, `flight`) with the flight tape's
//! `records`. Every `qres obs` view reads its sections of it. The only
//! other files are the flight captures the trigger writes.
//!
//! ## Overhead contract
//!
//! Telemetry is off by default. Every instrumentation site is gated on
//! [`enabled`] (a thread-local read of the handle, a relaxed load of its
//! switch and a branch) or on the switch a [`Staging`] read when its
//! admission began, and takes no wall-clock timestamps, allocates
//! nothing (past the handle a thread creates on first use), and touches
//! no locks until switched on with [`set_level`]. The `obs_overhead`
//! benchmark in `qres-bench` holds the disabled end-to-end cost under 2%.
//!
//! ## Determinism contract
//!
//! Telemetry is strictly passive: wall-clock readings feed histograms
//! only, and nothing recorded feeds back into simulation state, so
//! enabling telemetry cannot change `P_CB`/`P_HD`/`N_calc`
//! (`tests/determinism.rs` asserts this).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod alert;
pub mod calib;
pub mod diff;
pub mod export;
pub mod flight;
pub mod loglin;
pub mod metrics;
pub mod qos;
pub mod staging;

pub use alert::{render_alerts, reset_alerts, watchdog_tick};
pub use calib::{
    calib_json, calib_summary, observe_attempt, render_calib_report, reset_calib, sweep_expired,
};
pub use diff::{diff_snapshots, FailOn};
pub use export::{snapshot_json, write_obs_json, OBS_JSON_PATH};
pub use flight::{
    denial_cause, flight_enabled, flight_json, records_from_doc, render_explain, reset_flight,
    set_flight_capacity, set_flight_capture_dir, set_flight_enabled, FlightCheck, FlightRecord,
    FlightTerm,
};
pub use metrics::{reset_metrics, AtomicHistogram, Counter, HistogramSnapshot, MaxGauge};
pub use qos::{
    qos_json, qos_snapshot, qos_target_p_hd, reset_qos, set_qos_target_p_hd, set_qos_window_secs,
    wilson_interval, CellQosSnapshot,
};
pub use staging::Staging;

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// One run's telemetry state: the on/off switch, the metric values, the
/// QoS tracker, the calibration store, the capture trigger, and the
/// flight plane with its own switch. Threads sharing a handle (see [`install`])
/// update it through atomics and mutexes.
#[derive(Default)]
pub struct Obs {
    pub(crate) on: AtomicBool,
    pub(crate) metrics: metrics::Registry,
    pub(crate) qos: Mutex<qos::QosState>,
    pub(crate) calib: Mutex<calib::CalibState>,
    pub(crate) trigger: Mutex<alert::Trigger>,
    pub(crate) flight_off: AtomicBool,
    pub(crate) flight: Mutex<flight::FlightPlane>,
}

/// A thread's handle and its own sim-clock mirror ([`set_sim_time`]).
pub(crate) struct Handle {
    obs: RefCell<Option<Arc<Obs>>>,
    pub(crate) sim_time: Cell<f64>,
}

thread_local! {
    pub(crate) static HANDLE: Handle = const {
        Handle {
            obs: RefCell::new(None),
            sim_time: Cell::new(0.0),
        }
    };
}

/// Runs `f` on this thread's [`Obs`], creating a fresh one first if the
/// thread has none yet.
#[inline(always)]
pub(crate) fn with<R>(f: impl FnOnce(&Obs) -> R) -> R {
    HANDLE.with(|h| {
        if let Some(obs) = h.obs.borrow().as_deref() {
            return f(obs);
        }
        f(&current())
    })
}

/// Locks one of an [`Obs`]'s mutexes.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock()
        .expect("a thread sharing this telemetry handle panicked mid-update")
}

/// This thread's telemetry handle (a fresh default one if the thread had
/// none yet).
pub fn current() -> Arc<Obs> {
    if let Some(obs) = HANDLE.with(|h| h.obs.borrow().clone()) {
        return obs;
    }
    let obs = Arc::default();
    install(Arc::clone(&obs));
    obs
}

/// Makes `obs` this thread's telemetry handle. A worker installs its
/// caller's [`current`] handle to write into the caller's run;
/// installing `Arc::default()` starts a fresh one.
pub fn install(obs: Arc<Obs>) {
    HANDLE.with(|h| *h.obs.borrow_mut() = Some(obs));
}

/// Telemetry level: off, or on with every subsystem at its defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Telemetry off — the instrumented code paths reduce to one
    /// thread-local read and a branch.
    Off,
    /// Telemetry on.
    Info,
}

/// Switches this thread's telemetry on ([`Level::Info`]) or off.
pub fn set_level(level: Level) {
    with(|o| o.on.store(level == Level::Info, Ordering::Relaxed));
}

/// True when telemetry is on. This is the hot-path gate: one
/// thread-local read, a relaxed load and a branch.
#[inline(always)]
pub fn enabled() -> bool {
    with(|o| o.on.load(Ordering::Relaxed))
}

/// Publishes this thread's simulation clock (seconds), which
/// [`write_obs_json`] finalizes the run at. The mirror is per thread, not
/// per [`Obs`]: sweep workers that share a handle each keep their own
/// run's clock.
#[inline]
pub fn set_sim_time(secs: f64) {
    HANDLE.with(|h| h.sim_time.set(secs));
}

/// The last simulation time (seconds) this thread published.
#[inline]
pub fn sim_time() -> f64 {
    HANDLE.with(|h| h.sim_time.get())
}

/// Returns `(0, wall_ns - barrier_ns)`, saturating. Exists only for
/// `qres-perf`'s traced replay, and goes with that call in the next change
/// to the benchmark.
pub fn record_epoch(wall_ns: u64, barrier_ns: u64) -> (u64, u64) {
    (0, wall_ns.saturating_sub(barrier_ns))
}

/// Does nothing. Exists only for `qres-perf`'s traced replay, and goes
/// with that call in the next change to the benchmark.
pub fn reset_workers() {}

/// The one event `qres-perf`'s traced replay still builds. Nothing stores
/// it: [`record`] drops it. Goes with that call in the next change to the
/// benchmark.
#[derive(Debug)]
pub enum ObsEvent {
    /// An epoch barrier of the traced replay.
    EpochBarrier {
        /// Sim-time of the barrier (seconds).
        t: f64,
        /// The epoch that just completed.
        epoch: u64,
        /// Wall clock since the previous barrier completed (ns).
        wall_ns: u64,
        /// Wall clock of the barrier itself (ns).
        barrier_ns: u64,
        /// Driver time blocked on other threads (ns).
        blocked_ns: u64,
        /// Residual single-threaded driver time (ns).
        serial_ns: u64,
    },
}

/// Does nothing. Exists only for `qres-perf`'s traced replay, and goes
/// with that call in the next change to the benchmark.
pub fn record(_: ObsEvent) {}

/// Does nothing. Exists only for `qres-perf`'s `reset_obs`, and goes with
/// that call in the next change to the benchmark.
pub fn reset() {}

/// Does nothing: the capture trigger keeps no store of its own (it reads
/// the [`qos`] windows), and [`reset_alerts`] restarts its evaluation grid.
/// Exists only for `qres-perf`'s `reset_obs`, and goes with that call in
/// the next change to the benchmark.
pub fn reset_tsdb() {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_switches_telemetry() {
        assert!(!enabled(), "a fresh handle starts off");
        set_level(Level::Info);
        assert!(enabled());
        set_level(Level::Off);
        assert!(!enabled());
        set_sim_time(12.5);
        assert_eq!(sim_time(), 12.5);
    }

    /// A new thread starts on a fresh handle; installing another thread's
    /// handle shares its state but not its sim-time mirror.
    #[test]
    fn threads_share_a_handle_only_once_installed() {
        set_level(Level::Info);
        set_sim_time(7.0);
        let mine = current();
        std::thread::spawn(move || {
            assert!(!enabled());
            install(mine);
            assert!(enabled());
            assert_eq!(sim_time(), 0.0);
            metrics::BACKBONE_MSGS_TOTAL.add(1);
        })
        .join()
        .unwrap();
        assert_eq!(metrics::BACKBONE_MSGS_TOTAL.get(), 1);
        assert_eq!(sim_time(), 7.0);
    }
}
