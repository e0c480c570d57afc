//! # qres-obs — observability for the hand-off reservation stack
//!
//! A zero-dependency (beyond `qres-json`) telemetry layer threaded through
//! every crate in the workspace:
//!
//! * [`event`] / [`recorder`] — a level-filtered, fixed-capacity ring
//!   buffer of typed structured events ([`ObsEvent`]): admission
//!   decisions, `B_r` recompute-vs-memo accounting, `T_est` window moves,
//!   HOE quadruplet insert/evict, DES queue high-water marks, and
//!   backbone message sends — each carrying sim-time and cell id, and
//!   drainable to JSONL.
//! * [`metrics`] — a registry of `const`-constructible atomic counters,
//!   max-gauges, and log-linear timing histograms over the hot paths:
//!   admission tests, `B_i,0` Eq.-4 passes, `compute_br` memo hits vs.
//!   misses, event dispatch, sweep points.
//! * [`export`] — Prometheus text exposition, a JSON snapshot merged into
//!   `qres-sim` run reports, and an in-repo exposition lint the tests run.
//! * [`serve`] — a hand-rolled `std::net` HTTP scrape endpoint
//!   (`/metrics`, `/metrics.json`, `/qos`, `/alerts`, `/explain`,
//!   `/healthz`) so Prometheus/Grafana can watch a long sweep live instead
//!   of waiting for the final snapshot.
//! * [`qos`] — live QoS-conformance tracking: per-cell sliding-window
//!   `P_HD`/`P_CB` estimators with Wilson intervals, violation-seconds
//!   clocks against the paper's target, and reservation-efficiency
//!   integrals (`B_r` reserved vs. hand-off bandwidth consumed).
//! * [`calib`] — Eq.-4 prediction calibration: per-connection `p_h`
//!   forecasts matched against realized hand-offs, aggregated into
//!   reliability-diagram bins and a Brier score (`qres obs calib`).
//! * [`diff`] — cross-run diff of two `/metrics.json` snapshots
//!   (`qres obs diff`).
//! * [`alert`] — the SLO watchdog: burn-rate rules read straight off the
//!   [`qos`] windows every 60 sim-s (a fast 300-s window and the `qos`
//!   window against `P_HD,target`), a pending→firing→resolved state
//!   machine on sim-timestamps, served at `GET /alerts` and replayed
//!   offline by `qres obs alerts`.
//! * [`flight`] — the decision-provenance flight recorder: a bounded ring
//!   of complete admission decision records (inputs, per-neighbor Eq.-4
//!   terms, feasibility checks, verdict) keyed by `admission_req_seq`,
//!   served at `GET /explain`, frozen to `obs_flight_<cell>_<ts>.json`
//!   when `p_hd_burn` fires, and re-executed by `qres obs replay`.
//! * [`loglin`] — the log-linear bucket layout of the timing histograms
//!   (16 sub-buckets per octave, ≤ 6.25% relative error), also used by
//!   `qres_stats::LogLinearHistogram`.
//!
//! ## Overhead contract
//!
//! Telemetry is off by default. Every instrumentation site is gated on
//! [`enabled`] — a single relaxed atomic load plus a branch — and takes no
//! wall-clock timestamps, allocates nothing, and touches no locks until
//! switched on with [`set_level`]. The `obs_overhead` benchmark in
//! `qres-bench` holds the disabled end-to-end cost under 2%.
//!
//! ## Determinism contract
//!
//! The recorder is strictly passive: wall-clock readings feed histograms
//! only, and event recording never feeds back into simulation state, so
//! enabling telemetry cannot change `P_CB`/`P_HD`/`N_calc`
//! (`tests/determinism.rs` asserts this).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod alert;
pub mod calib;
pub mod diff;
pub mod event;
pub mod export;
pub mod flight;
pub mod loglin;
pub mod metrics;
pub mod qos;
pub mod recorder;
pub mod serve;

pub use alert::{
    alert_config, alerts_json, alerts_snapshot, evaluate as evaluate_alerts,
    finalize as finalize_alerts, firing_alerts, render_watch, reset_alerts, set_alert_config,
    watchdog_tick, AlertConfig, AlertSnapshot, AlertState,
};
pub use calib::{
    calib_json, calib_summary, flush_staged, observe_attempt, observe_end, render_calib_report,
    reset_calib, stage_prediction, sweep_expired,
};
pub use diff::{check_fail_on, diff_snapshots};
pub use event::{events_to_jsonl, ObsEvent};
pub use export::{prometheus_text, snapshot_json, validate_prometheus_text};
pub use flight::{
    denial_cause, explain_json, flight_enabled, flight_json, flight_summary_json, records_from_doc,
    render_explain, reset_flight, set_flight_capacity, set_flight_capture_dir, set_flight_enabled,
    FlightCheck, FlightRecord, FlightTerm,
};
pub use metrics::{reset_metrics, AtomicHistogram, Counter, HistogramSnapshot, MaxGauge};
pub use qos::{
    qos_json, qos_snapshot, qos_target_p_hd, reset_qos, set_qos_target_p_hd, set_qos_window_secs,
    wilson_interval, CellQosSnapshot,
};
pub use recorder::{
    clear_spill, drain_events, enabled, enabled_at, flush_spill, level, record, reset,
    sample_every, set_capacity, set_level, set_sample_every, set_sim_time, set_spill_path,
    sim_time, Level,
};
pub use serve::ObsServer;

/// Returns `(0, wall_ns - barrier_ns)`, saturating. Exists only for
/// `qres-perf`'s traced replay, and goes with that call in the next change
/// to the benchmark.
pub fn record_epoch(wall_ns: u64, barrier_ns: u64) -> (u64, u64) {
    (0, wall_ns.saturating_sub(barrier_ns))
}

/// Does nothing. Exists only for `qres-perf`'s traced replay, and goes
/// with that call in the next change to the benchmark.
pub fn reset_workers() {}

/// Does nothing: the SLO watchdog keeps no store of its own (it reads the
/// [`qos`] windows), and [`reset_alerts`] restarts its evaluation grid.
/// Exists only for `qres-perf`'s `reset_obs`, and goes with that call in
/// the next change to the benchmark.
pub fn reset_tsdb() {}

/// Serializes the crate's unit tests that drive the process-global QoS
/// tracker (directly, or through the alert rules that read it).
#[cfg(test)]
pub(crate) fn qos_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
