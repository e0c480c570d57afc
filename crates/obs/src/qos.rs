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
//! guard with [`crate::enabled`] (an admission's `B_r` updates arrive
//! staged in its [`crate::Staging`] buffer, and a hand-off attempt's
//! updates in one [`crate::observe_handoff`] call), state lives in the
//! calling thread's telemetry stores, and nothing flows
//! back into admission decisions — the determinism contract of the
//! recorder extends to this module.

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
    /// Indexed by cell id (dense); `None` for a cell with no observation.
    cells: Vec<Option<CellQos>>,
}

impl Default for QosState {
    fn default() -> Self {
        QosState {
            window_secs: DEFAULT_QOS_WINDOW_SECS,
            target_p_hd: DEFAULT_QOS_TARGET_P_HD,
            cells: Vec::new(),
        }
    }
}

impl QosState {
    /// `cell`'s state, created on its first observation.
    fn cell(&mut self, cell: u32) -> &mut CellQos {
        let i = cell as usize;
        if self.cells.len() <= i {
            self.cells.resize_with(i + 1, || None);
        }
        self.cells[i].get_or_insert_with(CellQos::default)
    }

    /// The cells with any observation, ascending by id.
    fn observed(&self) -> impl Iterator<Item = (u32, &CellQos)> {
        let cells = self.cells.iter().enumerate();
        cells.filter_map(|(i, c)| Some((i as u32, c.as_ref()?)))
    }

    /// The `P_HD` target in force (also the capture trigger's burn-rate
    /// denominator).
    pub(crate) fn target_p_hd(&self) -> f64 {
        self.target_p_hd
    }

    /// The trailing-window width (simulated seconds).
    pub(crate) fn window_secs(&self) -> f64 {
        self.window_secs
    }

    /// Records new reservation targets `(cell, B_r)` (BUs) at sim-time
    /// `t`, in order, extending each cell's time-weighted reservation
    /// integral.
    pub(crate) fn record_br_updates(&mut self, t: f64, updates: &[(u32, f64)]) {
        for &(cell, br) in updates {
            self.cell(cell).br.set(t, br);
        }
    }

    /// The efficiency updates of one hand-off attempt: the attempted
    /// bandwidth lands in `to`'s admitted or dropped ledger; the
    /// connection stops counting as hand-in load in `from` if it arrived
    /// there by hand-off, and starts counting in `to` if admitted.
    pub(crate) fn record_handoff_attempt(&mut self, a: &crate::HandoffAttempt) {
        let to = self.cell(a.to);
        if a.dropped {
            to.handoff_bu_dropped += a.bw;
        } else {
            to.handoff_bu_admitted += a.bw;
        }
        if a.prev.is_some() {
            self.cell(a.from).handin.add(a.t, -a.bw);
        }
        if !a.dropped {
            self.cell(a.to).handin.add(a.t, a.bw);
        }
    }

    /// The trigger inputs of every cell at fast-window edge `fast_since`,
    /// ascending by cell id.
    pub(crate) fn burn_inputs(&self, fast_since: f64) -> Vec<BurnInputs> {
        self.observed()
            .map(|(cell, c)| BurnInputs {
                cell,
                fast_p_hd: c.handoffs.ratio_since(fast_since),
                slow_p_hd: c.handoffs.ratio(),
            })
            .collect()
    }
}

fn with_state<R>(f: impl FnOnce(&mut QosState) -> R) -> R {
    crate::with_stores(|s| f(&mut s.qos))
}

/// Sets the trailing-window width (simulated seconds) of the live
/// estimators. Takes effect on subsequent observations.
pub fn set_qos_window_secs(secs: f64) {
    with_state(|s| s.window_secs = secs.max(0.0));
}

/// Sets the `P_HD` target the violation clock measures against.
pub fn set_qos_target_p_hd(target: f64) {
    with_state(|s| s.target_p_hd = target);
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
        let c = s.cell(cell);
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

/// Records one new-connection request at `cell` at sim-time `t`
/// (`blocked = true` when admission refused it) — the `P_CB` trial stream.
pub fn record_admission_outcome(t: f64, cell: u32, blocked: bool) {
    with_state(|s| {
        let window = s.window_secs;
        s.cell(cell).admissions.record(t, blocked, window);
    });
}

/// Records `bw` BUs of previously handed-in bandwidth leaving `cell` at
/// sim-time `t` when its connection ends there (a hand-off attempt out of
/// `cell` records its own, through [`crate::observe_handoff`]).
pub fn record_handin_remove(t: f64, cell: u32, bw: f64) {
    with_state(|s| s.cell(cell).handin.add(t, -bw));
}

/// Clears all QoS/efficiency state (between runs). Window and target
/// settings are preserved — they are configuration, not data.
pub fn reset_qos() {
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
        s.observed()
            .map(|(cell, c)| CellQosSnapshot {
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
        with_state(|s| {
            s.record_br_updates(0.0, &[(CELL_B, 4.0)]);
            s.record_br_updates(10.0, &[(CELL_B, 2.0)]);
            s.record_br_updates(20.0, &[(CELL_B, 2.0)]);
        });
        // Hand-ins: 1 BU admitted at 5 and occupied over [5, 20) of the
        // same span; a 2-BU attempt dropped.
        let attempt = |t: f64, bw: f64, dropped: bool| {
            crate::observe_handoff(&crate::HandoffAttempt {
                conn: 1,
                from: CELL_A,
                to: CELL_B,
                t,
                entered: 0.0,
                prev: None,
                declared: None,
                bw,
                dropped,
            })
        };
        attempt(5.0, 1.0, false);
        record_handin_remove(20.0, CELL_B, 1.0);
        attempt(20.0, 2.0, true);
        let snap = qos_snapshot();
        let c = snap.iter().find(|c| c.cell == CELL_B).unwrap();
        assert!((c.br_reserved_bu.unwrap() - 3.0).abs() < 1e-9);
        assert!((c.handin_used_bu.unwrap() - 1.0).abs() < 1e-9);
        assert!((c.over_reservation_bu().unwrap() - 2.0).abs() < 1e-9);
        assert_eq!(c.handoff_bu_admitted, 1.0);
        assert_eq!(c.handoff_bu_dropped, 2.0);
    }

    /// The dense table lists the cells with an observation, ascending by
    /// id whatever order they were first seen in, and only those.
    #[test]
    fn cells_are_listed_ascending_and_only_once_observed() {
        record_admission_outcome(1.0, 1000, false);
        record_handoff_outcome(2.0, 3, true);
        with_state(|s| s.record_br_updates(3.0, &[(7, 1.5)]));
        let cells: Vec<u32> = qos_snapshot().iter().map(|c| c.cell).collect();
        assert_eq!(cells, [3, 7, 1000]);
        let json = qos_json();
        let Some(Value::Object(listed)) = json.get("cells") else {
            panic!("no cells section");
        };
        let keys: Vec<&str> = listed.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["3", "7", "1000"]);
        reset_qos();
        assert!(qos_snapshot().is_empty());
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
}
