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
//! All of this state is one `Obs`, a thread-local that starts fresh on
//! each thread, and every free function here acts on the calling thread's,
//! so a run owns its telemetry. Nothing in it is shared: a thread that
//! did not switch telemetry on sees it off, with its own metrics, stores
//! and sim-time mirror. A sweep with telemetry on therefore runs its
//! points in order on the calling thread (`qres_sim::sweep_offered_load`).
//! What an admission stages stays in its caller's [`Staging`].
//!
//! ## Run artifacts
//!
//! A run with telemetry on writes one document. Each engine run settles
//! its calibration when it ends ([`calib::settle`]); then
//! [`write_obs_json`] writes [`OBS_JSON_PATH`]: the [`snapshot_json`] document (`counters`,
//! `gauges`, `histograms`, `qos`, `flight`) with the flight tape's
//! `records`. Every `qres obs` view reads its sections of it. The only
//! other files are the flight captures the trigger writes.
//!
//! ## Overhead contract
//!
//! Telemetry is off by default. Every instrumentation site is gated on
//! [`enabled`] (a thread-local read of a plain `bool` and a branch) or on
//! the switch a [`Staging`] read when its admission began, and takes no
//! wall-clock timestamps and allocates nothing until switched on with
//! [`set_level`]. No atomic and no lock is taken, on or off: the state is
//! one thread's. Nothing asserts a bound: the `obs_overhead` benchmark in
//! `qres-bench` times an AC3 run with telemetry off, on without the
//! flight recorder, and fully on, side by side, and `calib_flush` times
//! the calibration store alone.
//! With telemetry on, an admission borrows the stores once to publish
//! what it staged, and a hand-off borrows them once for
//! [`observe_handoff`].
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
    calib_json, calib_summary, observe_attempt, prev_code, render_calib_report, reset_calib,
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
    qos_json, qos_snapshot, reset_qos, set_qos_target_p_hd, set_qos_window_secs, wilson_interval,
    CellQosSnapshot,
};
pub use staging::Staging;

use std::cell::{Cell, RefCell};

/// One thread's telemetry state: the on/off switch, the metric values, the
/// flight recorder's own switch, the stores, and the sim-clock mirror
/// ([`set_sim_time`]). Nothing in it is shared with another thread.
#[derive(Default)]
pub(crate) struct Obs {
    pub(crate) on: Cell<bool>,
    /// Boxed, so its ~40 KB of histogram cells live on the heap, not in
    /// every thread's thread-local block.
    pub(crate) metrics: Box<metrics::Registry>,
    pub(crate) flight_off: Cell<bool>,
    pub(crate) stores: RefCell<Stores>,
    sim_time: Cell<f64>,
}

/// The stores of an [`Obs`]: the QoS tracker, the calibration store, the
/// capture trigger and the flight ring. An event that updates several (a
/// published admission, a hand-off attempt) borrows them once.
#[derive(Default)]
pub(crate) struct Stores {
    pub(crate) qos: qos::QosState,
    pub(crate) calib: calib::CalibState,
    pub(crate) trigger: alert::Trigger,
    pub(crate) flight: flight::FlightPlane,
}

thread_local! {
    static OBS: Obs = Obs::default();
}

/// Runs `f` on this thread's [`Obs`].
#[inline(always)]
pub(crate) fn with<R>(f: impl FnOnce(&Obs) -> R) -> R {
    OBS.with(f)
}

/// Runs `f` on this thread's [`Stores`].
pub(crate) fn with_stores<R>(f: impl FnOnce(&mut Stores) -> R) -> R {
    with(|o| f(&mut o.stores.borrow_mut()))
}

/// One hand-off attempt of a connection, as telemetry records it.
#[derive(Debug, Clone, Copy)]
pub struct HandoffAttempt {
    /// The connection.
    pub conn: u64,
    /// The cell it leaves.
    pub from: u32,
    /// The cell it tries to enter.
    pub to: u32,
    /// Sim-time of the attempt (seconds).
    pub t: f64,
    /// When it entered `from`.
    pub entered: f64,
    /// The cell it entered `from` from; `None` if it started there.
    pub prev: Option<u32>,
    /// The next cell it declared on entering `from`, if any.
    pub declared: Option<u32>,
    /// Its bandwidth (BUs).
    pub bw: f64,
    /// Whether the attempt was dropped.
    pub dropped: bool,
}

/// Records a hand-off attempt in one borrow of the stores: scores the
/// Eq.-4 forecasts it makes hits ([`observe_attempt`]), adds its bandwidth
/// to `to`'s admitted or dropped ledger, and moves it in the hand-in
/// occupancy integrals (out of `from` if it arrived there by hand-off,
/// into `to` if admitted).
pub fn observe_handoff(a: &HandoffAttempt) {
    with_stores(|s| {
        if a.declared.is_none_or(|d| d == a.to) {
            s.calib
                .observe_attempt(a.conn, a.from, a.to, a.t, a.entered, a.prev);
        }
        s.qos.record_handoff_attempt(a);
    });
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
    with(|o| o.on.set(level == Level::Info));
}

/// True when telemetry is on. This is the hot-path gate: one
/// thread-local read and a branch.
#[inline(always)]
pub fn enabled() -> bool {
    with(|o| o.on.get())
}

/// Publishes this thread's simulation clock (seconds), which a run's
/// calibration is settled at when it ends ([`calib::settle`]).
#[inline]
pub fn set_sim_time(secs: f64) {
    with(|o| o.sim_time.set(secs));
}

/// The last simulation time (seconds) this thread published.
#[inline]
pub fn sim_time() -> f64 {
    with(|o| o.sim_time.get())
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
        assert!(!enabled(), "a fresh thread starts off");
        set_level(Level::Info);
        assert!(enabled());
        set_level(Level::Off);
        assert!(!enabled());
        set_sim_time(12.5);
        assert_eq!(sim_time(), 12.5);
    }

    /// A new thread starts with telemetry off, its own sim clock and its
    /// own metrics, whatever the spawning thread set.
    #[test]
    fn a_new_thread_starts_on_its_own_telemetry() {
        set_level(Level::Info);
        set_sim_time(7.0);
        metrics::BACKBONE_MSGS_TOTAL.add(1);
        std::thread::spawn(|| {
            assert!(!enabled());
            assert_eq!(sim_time(), 0.0);
            assert_eq!(metrics::BACKBONE_MSGS_TOTAL.get(), 0);
            metrics::BACKBONE_MSGS_TOTAL.add(5);
        })
        .join()
        .unwrap();
        assert!(enabled());
        assert_eq!(metrics::BACKBONE_MSGS_TOTAL.get(), 1);
        assert_eq!(sim_time(), 7.0);
    }
}
