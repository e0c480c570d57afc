//! Live QoS-conformance tracking: per-cell sliding-window `P_HD` / `P_CB`
//! estimators with Wilson-score confidence intervals, a violation-seconds
//! accumulator against the paper's `P_HD,target`, and reservation-efficiency
//! accounting (time-weighted `B_r` reserved vs. hand-off bandwidth actually
//! consumed).
//!
//! The end-of-run report answers "did the run meet the QoS goal?"; this
//! module answers it per cell, over a configurable trailing window, so
//! the flight-capture trigger ([`crate::alert`]) and the `qos` section of
//! `obs.json` show when a cell drifted into violation mid-run.
//!
//! Everything here is passive observation behind the level gate: the
//! simulation feeds observations through `record_*` calls that the callers
//! guard with [`crate::enabled`], state lives behind one mutex
//! in the calling thread's [`crate::Obs`], and nothing flows back into
//! admission decisions — the determinism contract of the recorder extends
//! to this module.

use std::collections::BTreeMap;
use std::collections::VecDeque;

use qres_json::Value;

/// Wilson-score confidence interval for a binomial proportion.
///
/// Returns `(low, high)` bounds for the true success probability given
/// `hits` successes out of `trials`, at the confidence implied by the
/// normal quantile `z` (1.96 for 95%). Unlike the naive normal
/// approximation, the Wilson interval stays inside `[0, 1]` and remains
/// informative at small `n`: at `n = 1` it spans roughly 60% of the unit
/// interval instead of collapsing to a point. With zero trials there is
/// no information: the interval is the whole unit interval `(0.0, 1.0)`.
///
/// Lives here (rather than `qres-stats`) for the same reason as
/// [`crate::loglin`]: `qres-stats` depends on this crate, and both need
/// it — `qres_stats::wilson_interval` re-exports this function.
pub fn wilson_interval(hits: u64, trials: u64, z: f64) -> (f64, f64) {
    if trials == 0 {
        return (0.0, 1.0);
    }
    let n = trials as f64;
    let p = hits as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt() / denom;
    ((center - half).max(0.0), (center + half).min(1.0))
}

/// Default trailing-window width (simulated seconds) for the live
/// estimators: one simulated hour, matching the paper's hourly load cycle.
pub const DEFAULT_QOS_WINDOW_SECS: f64 = 3600.0;

/// Default `P_HD` target the violation clock measures against
/// (`P_HD,target = 0.01`, Section 5 of the paper).
pub const DEFAULT_QOS_TARGET_P_HD: f64 = 0.01;

/// Normal quantile for the exported Wilson intervals (95% confidence).
const WILSON_Z: f64 = 1.96;

/// A trailing-window event-ratio estimator: `(sim-time, hit)` pairs with
/// observations older than the window pruned on every insert.
#[derive(Debug, Default)]
struct WindowRatio {
    events: VecDeque<(f64, bool)>,
    hits: u64,
}

impl WindowRatio {
    fn record(&mut self, t: f64, hit: bool, window: f64) {
        self.events.push_back((t, hit));
        if hit {
            self.hits += 1;
        }
        while let Some(&(t0, h0)) = self.events.front() {
            if t0 >= t - window {
                break;
            }
            self.events.pop_front();
            if h0 {
                self.hits -= 1;
            }
        }
    }

    fn trials(&self) -> u64 {
        self.events.len() as u64
    }

    fn ratio(&self) -> Option<f64> {
        (!self.events.is_empty()).then(|| self.hits as f64 / self.events.len() as f64)
    }

    /// The hit ratio of the retained observations at or after `since`
    /// (newest first, so the cost is the count inside the sub-window);
    /// `None` with no observation there.
    fn ratio_since(&self, since: f64) -> Option<f64> {
        let (mut trials, mut hits) = (0u64, 0u64);
        for &(_, hit) in self.events.iter().rev().take_while(|&&(t, _)| t >= since) {
            trials += 1;
            hits += u64::from(hit);
        }
        (trials > 0).then(|| hits as f64 / trials as f64)
    }
}

/// A piecewise-constant signal integrated over sim-time (the obs-side twin
/// of `qres_stats::TimeWeighted`, kept here so the tracker owns its state).
#[derive(Debug, Default)]
struct TimeIntegral {
    current: f64,
    start_t: Option<f64>,
    last_t: f64,
    integral: f64,
}

impl TimeIntegral {
    fn advance(&mut self, t: f64) {
        match self.start_t {
            None => {
                self.start_t = Some(t);
                self.last_t = t;
            }
            Some(_) => {
                if t > self.last_t {
                    self.integral += self.current * (t - self.last_t);
                    self.last_t = t;
                }
            }
        }
    }

    fn set(&mut self, t: f64, v: f64) {
        self.advance(t);
        self.current = v;
    }

    fn add(&mut self, t: f64, dv: f64) {
        self.advance(t);
        self.current += dv;
    }

    /// Time-weighted mean over the observed span; `None` before two
    /// distinct observation times.
    fn mean(&self) -> Option<f64> {
        let start = self.start_t?;
        let span = self.last_t - start;
        (span > 0.0).then(|| self.integral / span)
    }
}

/// Per-cell QoS + efficiency state.
#[derive(Debug, Default)]
struct CellQos {
    handoffs: WindowRatio,
    admissions: WindowRatio,
    /// Sim-seconds spent with the windowed `P_HD` estimate above target.
    violation_secs: f64,
    /// Whether the estimate exceeded the target as of the last hand-off
    /// observation (the violation clock integrates this flag).
    in_violation: bool,
    last_handoff_t: Option<f64>,
    /// Time-weighted `B_r` reservation target.
    br: TimeIntegral,
    /// Time-weighted bandwidth occupied by handed-in connections.
    handin: TimeIntegral,
    /// Total bandwidth admitted via hand-off (BU, cumulative).
    handoff_bu_admitted: f64,
    /// Total bandwidth dropped at hand-off (BU, cumulative).
    handoff_bu_dropped: f64,
}

/// The QoS tracker of an [`crate::Obs`].
#[derive(Debug)]
pub(crate) struct QosState {
    window_secs: f64,
    target_p_hd: f64,
    cells: BTreeMap<u32, CellQos>,
}

impl Default for QosState {
    fn default() -> Self {
        QosState {
            window_secs: DEFAULT_QOS_WINDOW_SECS,
            target_p_hd: DEFAULT_QOS_TARGET_P_HD,
            cells: BTreeMap::new(),
        }
    }
}

fn with_state<R>(f: impl FnOnce(&mut QosState) -> R) -> R {
    crate::with(|o| f(&mut crate::lock(&o.qos)))
}

/// Sets the trailing-window width (simulated seconds) of the live
/// estimators. Takes effect on subsequent observations.
pub fn set_qos_window_secs(secs: f64) {
    with_state(|s| s.window_secs = secs.max(0.0));
}

/// Current trailing-window width (simulated seconds).
pub fn qos_window_secs() -> f64 {
    with_state(|s| s.window_secs)
}

/// Sets the `P_HD` target the violation clock measures against.
pub fn set_qos_target_p_hd(target: f64) {
    with_state(|s| s.target_p_hd = target);
}

/// The `P_HD` target currently in force (also the capture trigger's
/// burn-rate denominator).
pub fn qos_target_p_hd() -> f64 {
    with_state(|s| s.target_p_hd)
}

/// Records one hand-off attempt into `cell` at sim-time `t`
/// (`dropped = true` when the attempt was rejected) — the `P_HD` trial
/// stream. Also advances the per-cell violation clock: the interval since
/// the previous hand-off observation is charged to the violation counter
/// if the windowed estimate was above target throughout it.
pub fn record_handoff_outcome(t: f64, cell: u32, dropped: bool) {
    with_state(|s| {
        let window = s.window_secs;
        let target = s.target_p_hd;
        let c = s.cells.entry(cell).or_default();
        if let Some(prev_t) = c.last_handoff_t {
            if c.in_violation && t > prev_t {
                c.violation_secs += t - prev_t;
            }
        }
        c.handoffs.record(t, dropped, window);
        c.in_violation = c.handoffs.ratio().map(|p| p > target).unwrap_or(false);
        c.last_handoff_t = Some(t);
    });
}

/// One cell's inputs to the capture trigger ([`crate::alert`]).
#[derive(Debug)]
pub(crate) struct BurnInputs {
    pub cell: u32,
    /// Hand-off drop ratio over the attempts at or after the fast-window
    /// edge; `None` with no attempt there.
    pub fast_p_hd: Option<f64>,
    /// The windowed `P_HD` estimate (the `qos` window).
    pub slow_p_hd: Option<f64>,
}

/// The trigger inputs of every cell at fast-window edge `fast_since`,
/// ascending by cell id.
pub(crate) fn burn_inputs(fast_since: f64) -> Vec<BurnInputs> {
    with_state(|s| {
        s.cells
            .iter()
            .map(|(&cell, c)| BurnInputs {
                cell,
                fast_p_hd: c.handoffs.ratio_since(fast_since),
                slow_p_hd: c.handoffs.ratio(),
            })
            .collect()
    })
}

/// Records one new-connection request at `cell` at sim-time `t`
/// (`blocked = true` when admission refused it) — the `P_CB` trial stream.
pub fn record_admission_outcome(t: f64, cell: u32, blocked: bool) {
    with_state(|s| {
        let window = s.window_secs;
        s.cells
            .entry(cell)
            .or_default()
            .admissions
            .record(t, blocked, window);
    });
}

/// Records a change of `cell`'s reservation target `B_r` (BUs) at
/// sim-time `t`, extending the time-weighted reservation integral.
pub fn record_br_update(t: f64, cell: u32, br: f64) {
    with_state(|s| s.cells.entry(cell).or_default().br.set(t, br));
}

thread_local! {
    static STAGED_BR: std::cell::RefCell<Vec<(u32, f64)>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Stages a `B_r` update without touching the tracker's mutex — a plain
/// thread-local push, safe inside the timed admission/`B_r` windows.
/// Published by [`flush_br_updates`]; same staging discipline as the
/// calibration forecasts ([`crate::calib::stage_evaluation`]).
#[inline]
pub fn stage_br_update(cell: u32, br: f64) {
    STAGED_BR.with(|s| s.borrow_mut().push((cell, br)));
}

/// Publishes every staged `B_r` update at sim-time `t` (one mutex
/// acquisition). Call after the hot-path timing records.
pub fn flush_br_updates(t: f64) {
    STAGED_BR.with(|staged| {
        let mut staged = staged.borrow_mut();
        if staged.is_empty() {
            return;
        }
        with_state(|s| {
            for &(cell, br) in staged.iter() {
                s.cells.entry(cell).or_default().br.set(t, br);
            }
        });
        staged.clear();
    });
}

/// Records `bw` BUs of hand-off bandwidth entering `cell` at sim-time `t`
/// (a completed hand-off): the handed-in occupancy integral rises.
pub fn record_handin_add(t: f64, cell: u32, bw: f64) {
    with_state(|s| s.cells.entry(cell).or_default().handin.add(t, bw));
}

/// Records `bw` BUs of previously handed-in bandwidth leaving `cell` at
/// sim-time `t` (the connection handed off again, completed, or dropped).
pub fn record_handin_remove(t: f64, cell: u32, bw: f64) {
    with_state(|s| s.cells.entry(cell).or_default().handin.add(t, -bw));
}

/// Records the admitted/dropped bandwidth of one hand-off attempt into
/// `cell` (cumulative BU counters for the efficiency view).
pub fn record_handoff_bw(cell: u32, bw: f64, dropped: bool) {
    with_state(|s| {
        let c = s.cells.entry(cell).or_default();
        if dropped {
            c.handoff_bu_dropped += bw;
        } else {
            c.handoff_bu_admitted += bw;
        }
    });
}

/// Clears all QoS/efficiency state (between runs), including this
/// thread's staged `B_r` updates. Window and target settings are
/// preserved — they are configuration, not data.
pub fn reset_qos() {
    STAGED_BR.with(|s| s.borrow_mut().clear());
    with_state(|s| s.cells.clear());
}

/// A point-in-time copy of one cell's QoS/efficiency state.
#[derive(Debug, Clone)]
pub struct CellQosSnapshot {
    /// Cell id.
    pub cell: u32,
    /// Hand-off attempts inside the trailing window.
    pub hd_trials: u64,
    /// Dropped hand-offs inside the trailing window.
    pub hd_hits: u64,
    /// Windowed `P_HD` estimate (`None` with no hand-offs in window).
    pub p_hd: Option<f64>,
    /// 95% Wilson interval around the `P_HD` estimate.
    pub p_hd_wilson: (f64, f64),
    /// New-connection requests inside the trailing window.
    pub cb_trials: u64,
    /// Blocked requests inside the trailing window.
    pub cb_hits: u64,
    /// Windowed `P_CB` estimate (`None` with no requests in window).
    pub p_cb: Option<f64>,
    /// 95% Wilson interval around the `P_CB` estimate.
    pub p_cb_wilson: (f64, f64),
    /// Sim-seconds spent above the `P_HD` target.
    pub violation_secs: f64,
    /// Time-weighted mean reservation target `B_r` (BUs).
    pub br_reserved_bu: Option<f64>,
    /// Time-weighted mean bandwidth occupied by handed-in connections.
    pub handin_used_bu: Option<f64>,
    /// Cumulative bandwidth admitted via hand-off (BUs).
    pub handoff_bu_admitted: f64,
    /// Cumulative bandwidth dropped at hand-off (BUs).
    pub handoff_bu_dropped: f64,
}

impl CellQosSnapshot {
    /// Mean reserved-minus-used bandwidth: positive = over-reservation
    /// (capacity idled for hand-offs that never came), negative =
    /// under-reservation. `None` until both integrals have a span.
    pub fn over_reservation_bu(&self) -> Option<f64> {
        Some(self.br_reserved_bu? - self.handin_used_bu?)
    }
}

/// Snapshots every cell with any QoS or efficiency observations,
/// ascending by cell id.
pub fn qos_snapshot() -> Vec<CellQosSnapshot> {
    with_state(|s| {
        s.cells
            .iter()
            .map(|(&cell, c)| CellQosSnapshot {
                cell,
                hd_trials: c.handoffs.trials(),
                hd_hits: c.handoffs.hits,
                p_hd: c.handoffs.ratio(),
                p_hd_wilson: wilson_interval(c.handoffs.hits, c.handoffs.trials(), WILSON_Z),
                cb_trials: c.admissions.trials(),
                cb_hits: c.admissions.hits,
                p_cb: c.admissions.ratio(),
                p_cb_wilson: wilson_interval(c.admissions.hits, c.admissions.trials(), WILSON_Z),
                violation_secs: c.violation_secs,
                br_reserved_bu: c.br.mean(),
                handin_used_bu: c.handin.mean(),
                handoff_bu_admitted: c.handoff_bu_admitted,
                handoff_bu_dropped: c.handoff_bu_dropped,
            })
            .collect()
    })
}

fn opt_num(v: Option<f64>) -> Value {
    v.map(Value::Float).unwrap_or(Value::Null)
}

/// The `"qos"` section of [`crate::export::snapshot_json`]: window
/// configuration, per-cell estimators with Wilson bounds and violation
/// clocks, and the efficiency integrals.
pub fn qos_json() -> Value {
    let (window, target) = with_state(|s| (s.window_secs, s.target_p_hd));
    let cells: Vec<(String, Value)> = qos_snapshot()
        .into_iter()
        .map(|c| {
            (
                c.cell.to_string(),
                Value::Object(vec![
                    ("hd_trials".into(), Value::UInt(c.hd_trials)),
                    ("hd_drops".into(), Value::UInt(c.hd_hits)),
                    ("p_hd".into(), opt_num(c.p_hd)),
                    ("p_hd_wilson_low".into(), Value::Float(c.p_hd_wilson.0)),
                    ("p_hd_wilson_high".into(), Value::Float(c.p_hd_wilson.1)),
                    ("cb_trials".into(), Value::UInt(c.cb_trials)),
                    ("cb_blocked".into(), Value::UInt(c.cb_hits)),
                    ("p_cb".into(), opt_num(c.p_cb)),
                    ("p_cb_wilson_low".into(), Value::Float(c.p_cb_wilson.0)),
                    ("p_cb_wilson_high".into(), Value::Float(c.p_cb_wilson.1)),
                    ("violation_secs".into(), Value::Float(c.violation_secs)),
                    ("br_reserved_bu".into(), opt_num(c.br_reserved_bu)),
                    ("handin_used_bu".into(), opt_num(c.handin_used_bu)),
                    (
                        "over_reservation_bu".into(),
                        opt_num(c.over_reservation_bu()),
                    ),
                    (
                        "handoff_bu_admitted".into(),
                        Value::Float(c.handoff_bu_admitted),
                    ),
                    (
                        "handoff_bu_dropped".into(),
                        Value::Float(c.handoff_bu_dropped),
                    ),
                ]),
            )
        })
        .collect();
    Value::Object(vec![
        ("window_secs".into(), Value::Float(window)),
        ("target_p_hd".into(), Value::Float(target)),
        ("cells".into(), Value::Object(cells)),
        ("calib".into(), crate::calib::calib_json()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    const CELL_A: u32 = 9_001;
    const CELL_B: u32 = 9_002;

    #[test]
    fn window_prunes_old_observations() {
        set_qos_window_secs(10.0);
        for t in 0..20 {
            record_handoff_outcome(t as f64, CELL_A, t < 10);
        }
        let snap = qos_snapshot();
        let c = snap.iter().find(|c| c.cell == CELL_A).unwrap();
        // At t = 19 with a 10 s window, only t in [9, 19] survive: 11
        // trials, exactly one of them (t = 9) a drop.
        assert_eq!(c.hd_trials, 11);
        assert_eq!(c.hd_hits, 1);
        let p = c.p_hd.unwrap();
        assert!(c.p_hd_wilson.0 <= p && p <= c.p_hd_wilson.1);
    }

    #[test]
    fn violation_clock_integrates_above_target_intervals() {
        set_qos_window_secs(1e9);
        // Two drops in two attempts: estimate 1.0 > 0.01 from t = 1.
        record_handoff_outcome(0.0, CELL_A, true);
        record_handoff_outcome(1.0, CELL_A, true);
        // 9 seconds later, still in violation: the interval is charged.
        record_handoff_outcome(10.0, CELL_A, false);
        let snap = qos_snapshot();
        let c = snap.iter().find(|c| c.cell == CELL_A).unwrap();
        assert!(
            (c.violation_secs - 10.0).abs() < 1e-9,
            "{}",
            c.violation_secs
        );
    }

    #[test]
    fn eviction_boundary_keeps_events_exactly_at_now_minus_window() {
        set_qos_window_secs(10.0);
        // A drop exactly at the future window edge (t = now - window when
        // now = 10): half-open pruning keeps it, so P_HD counts it.
        record_handoff_outcome(0.0, CELL_A, true);
        record_handoff_outcome(10.0, CELL_A, false);
        let snap = qos_snapshot();
        let c = snap.iter().find(|c| c.cell == CELL_A).unwrap();
        assert_eq!(c.hd_trials, 2, "edge event must not be evicted early");
        assert_eq!(c.hd_hits, 1);
        // One tick past the edge it ages out — and the hit count follows
        // the trial count (no under-count leaving a phantom hit behind).
        record_handoff_outcome(10.1, CELL_A, false);
        let snap = qos_snapshot();
        let c = snap.iter().find(|c| c.cell == CELL_A).unwrap();
        assert_eq!(c.hd_trials, 2);
        assert_eq!(c.hd_hits, 0, "evicted drop must release its hit");
        assert_eq!(c.p_hd, Some(0.0));
    }

    #[test]
    fn duplicate_timestamps_count_once_each_in_both_streams() {
        set_qos_window_secs(10.0);
        // Batched arrivals land with identical sim-timestamps: every
        // observation is one trial, neither merged nor double-counted.
        record_handoff_outcome(5.0, CELL_A, true);
        record_handoff_outcome(5.0, CELL_A, true);
        record_handoff_outcome(5.0, CELL_A, false);
        record_admission_outcome(5.0, CELL_A, true);
        record_admission_outcome(5.0, CELL_A, false);
        let snap = qos_snapshot();
        let c = snap.iter().find(|c| c.cell == CELL_A).unwrap();
        assert_eq!((c.hd_trials, c.hd_hits), (3, 2));
        assert_eq!((c.cb_trials, c.cb_hits), (2, 1));
        assert!((c.p_hd.unwrap() - 2.0 / 3.0).abs() < 1e-12);
        assert!((c.p_cb.unwrap() - 0.5).abs() < 1e-12);
        // The duplicates sit exactly on the window edge at t = 15 and are
        // all kept; all evicted together one tick later.
        record_handoff_outcome(15.0, CELL_A, false);
        let c_trials = qos_snapshot()
            .iter()
            .find(|c| c.cell == CELL_A)
            .unwrap()
            .hd_trials;
        assert_eq!(c_trials, 4, "edge duplicates all survive");
        record_handoff_outcome(15.1, CELL_A, false);
        let snap = qos_snapshot();
        let c = snap.iter().find(|c| c.cell == CELL_A).unwrap();
        assert_eq!(c.hd_trials, 2, "edge duplicates all evict together");
        assert_eq!(c.hd_hits, 0);
    }

    #[test]
    fn efficiency_integrals_track_reserved_vs_used() {
        // B_r: 4 BU over [0, 10), 2 BU over [10, 20) -> mean 3.
        record_br_update(0.0, CELL_B, 4.0);
        record_br_update(10.0, CELL_B, 2.0);
        record_br_update(20.0, CELL_B, 2.0);
        // Hand-ins: 1 BU occupied over [5, 20) of the same span.
        record_handin_add(5.0, CELL_B, 1.0);
        record_handin_remove(20.0, CELL_B, 1.0);
        record_handoff_bw(CELL_B, 1.0, false);
        record_handoff_bw(CELL_B, 2.0, true);
        let snap = qos_snapshot();
        let c = snap.iter().find(|c| c.cell == CELL_B).unwrap();
        assert!((c.br_reserved_bu.unwrap() - 3.0).abs() < 1e-9);
        assert!((c.handin_used_bu.unwrap() - 1.0).abs() < 1e-9);
        assert!((c.over_reservation_bu().unwrap() - 2.0).abs() < 1e-9);
        assert_eq!(c.handoff_bu_admitted, 1.0);
        assert_eq!(c.handoff_bu_dropped, 2.0);
    }

    #[test]
    fn json_renders_cells() {
        record_handoff_outcome(1.0, CELL_A, false);
        record_admission_outcome(1.0, CELL_A, true);
        let json = qos_json().to_compact_string();
        assert!(json.contains("\"window_secs\""));
        assert!(json.contains(&format!("\"{CELL_A}\"")));
        assert!(json.contains("\"calib\""));
    }

    /// A `B_r` update staged while telemetry was on but never flushed
    /// (the level went off mid-admission) does not outlive a reset.
    #[test]
    fn reset_drops_staged_br_updates() {
        stage_br_update(CELL_B, 4.0);
        reset_qos();
        flush_br_updates(1.0);
        assert!(qos_snapshot().is_empty(), "{:?}", qos_snapshot());
    }
}
