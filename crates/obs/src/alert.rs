//! SLO watchdog: burn-rate alert rules evaluated on the live QoS windows
//! ([`crate::qos`]) every [`EVAL_SECS`] simulated seconds.
//!
//! The rules are derived from the paper's QoS contract,
//! `P_HD ≤ P_HD,target`, per cell:
//!
//! * `p_hd_burn` — the hand-off drop ratio divided by `P_HD,target` (the
//!   *burn rate*: 1.0 = consuming the error budget exactly at target,
//!   above 1 = on track to violate). The fast signal is the ratio of the
//!   attempts in the last [`FAST_WINDOW_SECS`] (5 sim-min); the slow
//!   signal is the `qos` window estimate (1 sim-h by default);
//! * `violation_clock` — the `qos` violation clock advanced within the
//!   window (the cell sat above target): burn 1.0 if it did, 0.0 if not.
//!
//! Both signals read the hand-off deque the `qos` tracker already keeps,
//! so the fast window can reach no further back than the `qos` window: a
//! shorter `qos` window caps it. The state machine per `(rule, cell)`:
//!
//! ```text
//! (none) --fast bad--> pending --fast+slow bad--> firing --fast ok--> resolved
//!    ^                    |                                              |
//!    '---- fast ok -------'  (silent retract)        fast bad again -----'
//! ```
//!
//! Evaluation runs on a fixed sim-time grid, so the alert timeline is
//! bit-identical across reruns.
//! Alerts are derived state only — nothing here feeds back into the
//! simulation. Sim-side consumers (the planned AC4 controller) read
//! [`alerts_snapshot`] directly.
//!
//! Written under `"alerts"` in `obs.json` and rendered from it by
//! `qres obs alerts` ([`render_watch`]).

use std::collections::BTreeMap;

use qres_json::Value;

/// Evaluation cadence (simulated seconds): the rules are evaluated at the
/// first watchdog tick on or after each multiple of it.
pub const EVAL_SECS: f64 = 60.0;

/// Fast burn-rate window (simulated seconds): 5 sim-minutes, capped by
/// the `qos` window.
pub const FAST_WINDOW_SECS: f64 = 300.0;

/// Default burn threshold for `p_hd_burn`: windowed `P_HD` over target,
/// >1 means the error budget burns faster than it accrues.
pub const DEFAULT_BURN_THRESHOLD: f64 = 1.0;

/// Rule name: per-cell `P_HD` burn rate against `P_HD,target`.
pub const RULE_P_HD_BURN: &str = "p_hd_burn";
/// Rule name: per-cell violation clock advanced inside the window.
pub const RULE_VIOLATION_CLOCK: &str = "violation_clock";

/// The default rule set, in evaluation order.
pub const RULE_NAMES: [&str; 2] = [RULE_P_HD_BURN, RULE_VIOLATION_CLOCK];

/// Alert lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// The fast window went bad; waiting for the slow window to confirm.
    Pending,
    /// Both windows bad: the SLO is burning. Counted in `fired_total`.
    Firing,
    /// Was firing; the fast window recovered. Retained for inspection.
    Resolved,
}

impl AlertState {
    /// The wire label (`pending` / `firing` / `resolved`).
    pub fn label(self) -> &'static str {
        match self {
            AlertState::Pending => "pending",
            AlertState::Firing => "firing",
            AlertState::Resolved => "resolved",
        }
    }
}

/// Watchdog configuration. `target_p_hd == None` falls back to the live
/// QoS tracker target ([`crate::qos`]).
#[derive(Debug, Clone, Copy)]
pub struct AlertConfig {
    /// Burn threshold for `p_hd_burn` (windowed `P_HD` / target).
    pub burn_threshold: f64,
    /// Override for `P_HD,target`; `None` uses the QoS tracker's target.
    pub target_p_hd: Option<f64>,
}

impl Default for AlertConfig {
    fn default() -> Self {
        AlertConfig {
            burn_threshold: DEFAULT_BURN_THRESHOLD,
            target_p_hd: None,
        }
    }
}

/// One alert as seen by sim-side consumers and the JSON surfaces.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertSnapshot {
    /// Rule name (one of [`RULE_NAMES`]).
    pub rule: &'static str,
    /// Cell id; `None` is reserved for global rules (the default rule set
    /// has none).
    pub cell: Option<u32>,
    /// Current lifecycle state.
    pub state: AlertState,
    /// Sim-time the current pending→… episode started.
    pub since: f64,
    /// Sim-time the alert last transitioned to firing, if it did.
    pub fired_at: Option<f64>,
    /// Sim-time the alert resolved, if it did.
    pub resolved_at: Option<f64>,
    /// Burn rate over the fast window at the last evaluation.
    pub fast_burn: f64,
    /// Burn rate over the slow window at the last evaluation.
    pub slow_burn: f64,
}

#[derive(Debug, Clone)]
struct Entry {
    state: AlertState,
    since: f64,
    fired_at: Option<f64>,
    resolved_at: Option<f64>,
    fast_burn: f64,
    slow_burn: f64,
}

/// The alert plane of an [`crate::Obs`].
#[derive(Debug)]
pub(crate) struct AlertPlane {
    config: AlertConfig,
    entries: BTreeMap<(&'static str, u32), Entry>,
    fired_total: BTreeMap<&'static str, u64>,
    /// `(t, rule, cell, state-label)`, oldest first: every transition of
    /// the run.
    transitions: Vec<(f64, &'static str, u32, &'static str)>,
    /// The next [`EVAL_SECS`] grid boundary at which the rules are due.
    next_eval: f64,
}

impl Default for AlertPlane {
    fn default() -> Self {
        AlertPlane {
            config: AlertConfig::default(),
            entries: BTreeMap::new(),
            fired_total: BTreeMap::new(),
            transitions: Vec::new(),
            next_eval: EVAL_SECS,
        }
    }
}

impl AlertPlane {
    fn transition(&mut self, t: f64, rule: &'static str, cell: u32, state: &'static str) {
        self.transitions.push((t, rule, cell, state));
    }
}

fn with_plane<R>(f: impl FnOnce(&mut AlertPlane) -> R) -> R {
    crate::with(|o| f(&mut crate::lock(&o.alerts)))
}

/// Replaces the watchdog configuration (CLI `--slo-*` flags).
pub fn set_alert_config(config: AlertConfig) {
    with_plane(|p| p.config = config);
}

/// The current watchdog configuration.
pub fn alert_config() -> AlertConfig {
    with_plane(|p| p.config)
}

/// Clears all alert state, the transition log, and fired counters, and
/// restarts the evaluation grid; the configuration reverts to
/// [`AlertConfig::default`].
pub fn reset_alerts() {
    with_plane(|p| *p = AlertPlane::default());
}

/// Whether a burn value breaches the rule's contract.
fn is_bad(rule: &str, burn: f64, threshold: f64) -> bool {
    match rule {
        RULE_P_HD_BURN => burn > threshold,
        // The violation clock: any advance inside the window is bad.
        _ => burn > 0.0,
    }
}

/// The `(fast, slow)` windows in force, in simulated seconds: the slow
/// window is the `qos` window, which also caps the fast one.
fn windows() -> (f64, f64) {
    let slow = crate::qos::qos_window_secs();
    (FAST_WINDOW_SECS.min(slow), slow)
}

/// The SLO watchdog tick, called by the DES driver every 10 sim-seconds
/// with telemetry on. Evaluates the rules at the first tick of each
/// [`EVAL_SECS`] grid interval, on the sim clock, so the alert timeline is
/// deterministic across reruns.
pub fn watchdog_tick(now: f64) {
    if eval_due(now) {
        evaluate(now);
    }
}

/// Whether `now` has crossed the next grid boundary (and if so, advances
/// it). A sim clock that restarted (a new run in the same process) re-arms
/// the grid instead of waiting for the old run's next boundary.
fn eval_due(now: f64) -> bool {
    with_plane(|p| {
        if now + EVAL_SECS < p.next_eval {
            p.next_eval = 0.0;
        }
        if now < p.next_eval {
            return false;
        }
        p.next_eval = ((now / EVAL_SECS).floor() + 1.0) * EVAL_SECS;
        true
    })
}

/// Evaluates every rule on the `qos` windows at sim-time `now` and
/// advances the state machine. Called by [`watchdog_tick`]; public so
/// tests and sim-side controllers can drive it directly.
pub fn evaluate(now: f64) {
    let config = alert_config();
    let target = config
        .target_p_hd
        .unwrap_or_else(crate::qos::qos_target_p_hd)
        .max(f64::MIN_POSITIVE);
    let (fast_secs, slow_secs) = windows();
    let burn = |p: Option<f64>| p.unwrap_or(0.0) / target;
    let advanced_within = |last: Option<f64>, secs: f64| match last {
        Some(t) if t >= now - secs => 1.0,
        _ => 0.0,
    };

    let mut signals: BTreeMap<(&'static str, u32), (f64, f64)> = BTreeMap::new();
    for c in crate::qos::burn_inputs(now - fast_secs) {
        signals.insert(
            (RULE_P_HD_BURN, c.cell),
            (burn(c.fast_p_hd), burn(c.slow_p_hd)),
        );
        signals.insert(
            (RULE_VIOLATION_CLOCK, c.cell),
            (
                advanced_within(c.last_violation_t, fast_secs),
                advanced_within(c.last_violation_t, slow_secs),
            ),
        );
    }

    with_plane(|p| {
        let threshold = p.config.burn_threshold;
        // Entries with no signal this pass (the cell's state was reset)
        // still step the machine, with a clean signal.
        for &key in p.entries.keys() {
            signals.entry(key).or_insert((0.0, 0.0));
        }
        for ((rule, cell), (fast_burn, slow_burn)) in signals {
            let fast_bad = is_bad(rule, fast_burn, threshold);
            let slow_bad = is_bad(rule, slow_burn, threshold);
            step(p, now, rule, cell, fast_burn, slow_burn, fast_bad, slow_bad);
        }
    });
}

/// Advances one `(rule, cell)` through the state machine.
#[allow(clippy::too_many_arguments)]
fn step(
    p: &mut AlertPlane,
    now: f64,
    rule: &'static str,
    cell: u32,
    fast_burn: f64,
    slow_burn: f64,
    fast_bad: bool,
    slow_bad: bool,
) {
    let key = (rule, cell);
    match p.entries.get_mut(&key) {
        None => {
            if fast_bad {
                p.entries.insert(
                    key,
                    Entry {
                        state: AlertState::Pending,
                        since: now,
                        fired_at: None,
                        resolved_at: None,
                        fast_burn,
                        slow_burn,
                    },
                );
                p.transition(now, rule, cell, "pending");
                if slow_bad {
                    fire(p, now, rule, cell);
                }
            }
        }
        Some(entry) => {
            entry.fast_burn = fast_burn;
            entry.slow_burn = slow_burn;
            match entry.state {
                AlertState::Pending => {
                    if !fast_bad {
                        // A blip the slow window never confirmed:
                        // retract silently, no transition recorded.
                        p.entries.remove(&key);
                    } else if slow_bad {
                        fire(p, now, rule, cell);
                    }
                }
                AlertState::Firing => {
                    if !fast_bad {
                        entry.state = AlertState::Resolved;
                        entry.resolved_at = Some(now);
                        p.transition(now, rule, cell, "resolved");
                    }
                }
                AlertState::Resolved => {
                    if fast_bad {
                        entry.state = AlertState::Pending;
                        entry.since = now;
                        entry.fired_at = None;
                        entry.resolved_at = None;
                        p.transition(now, rule, cell, "pending");
                        if slow_bad {
                            fire(p, now, rule, cell);
                        }
                    }
                }
            }
        }
    }
}

fn fire(p: &mut AlertPlane, now: f64, rule: &'static str, cell: u32) {
    if let Some(entry) = p.entries.get_mut(&(rule, cell)) {
        entry.state = AlertState::Firing;
        entry.fired_at = Some(now);
    }
    *p.fired_total.entry(rule).or_insert(0) += 1;
    p.transition(now, rule, cell, "firing");
    // A cell burning its P_HD budget freezes its flight-recorder window
    // to disk, so the decisions behind the burn survive the ring. The
    // flight plane never locks the alert plane, so ordering is safe; the
    // capture is a no-op unless a capture directory was configured.
    if rule == RULE_P_HD_BURN {
        crate::flight::capture_for_cell(cell, now, rule);
    }
}

/// End-of-run sweep: resolves every firing alert at sim-time `now` (so a
/// run artifact never ends on a dangling `firing`) and retracts pendings.
pub fn finalize(now: f64) {
    with_plane(|p| {
        let keys: Vec<(&'static str, u32)> = p.entries.keys().copied().collect();
        for key in keys {
            match p.entries.get(&key).map(|e| e.state) {
                Some(AlertState::Firing) => {
                    if let Some(entry) = p.entries.get_mut(&key) {
                        entry.state = AlertState::Resolved;
                        entry.resolved_at = Some(now);
                    }
                    p.transition(now, key.0, key.1, "resolved");
                }
                Some(AlertState::Pending) => {
                    p.entries.remove(&key);
                }
                _ => {}
            }
        }
    });
}

/// All alerts (pending, firing, and retained resolved), for sim-side
/// consumers like the planned AC4 controller.
pub fn alerts_snapshot() -> Vec<AlertSnapshot> {
    with_plane(|p| {
        p.entries
            .iter()
            .map(|(&(rule, cell), e)| AlertSnapshot {
                rule,
                cell: Some(cell),
                state: e.state,
                since: e.since,
                fired_at: e.fired_at,
                resolved_at: e.resolved_at,
                fast_burn: e.fast_burn,
                slow_burn: e.slow_burn,
            })
            .collect()
    })
}

fn cell_value(cell: Option<u32>) -> Value {
    match cell {
        Some(c) => Value::Str(c.to_string()),
        None => Value::Null,
    }
}

fn opt_float(v: Option<f64>) -> Value {
    match v {
        Some(f) => Value::Float(f),
        None => Value::Null,
    }
}

/// The `"alerts"` section of `obs.json`: configuration, per-rule fired
/// totals, the alert table, and the transition log.
pub fn alerts_json() -> Value {
    let snapshot = alerts_snapshot();
    let (fast_secs, slow_secs) = windows();
    with_plane(|p| {
        let config = Value::Object(vec![
            ("fast_window_secs".to_string(), Value::Float(fast_secs)),
            ("slow_window_secs".to_string(), Value::Float(slow_secs)),
            (
                "burn_threshold".to_string(),
                Value::Float(p.config.burn_threshold),
            ),
            (
                "target_p_hd".to_string(),
                Value::Float(
                    p.config
                        .target_p_hd
                        .unwrap_or_else(crate::qos::qos_target_p_hd),
                ),
            ),
        ]);
        let fired = Value::Object(
            RULE_NAMES
                .iter()
                .map(|&rule| {
                    (
                        rule.to_string(),
                        Value::UInt(p.fired_total.get(rule).copied().unwrap_or(0)),
                    )
                })
                .collect(),
        );
        let alerts = Value::Array(
            snapshot
                .iter()
                .map(|a| {
                    Value::Object(vec![
                        ("rule".to_string(), Value::Str(a.rule.to_string())),
                        ("cell".to_string(), cell_value(a.cell)),
                        ("state".to_string(), Value::Str(a.state.label().to_string())),
                        ("since".to_string(), Value::Float(a.since)),
                        ("fired_at".to_string(), opt_float(a.fired_at)),
                        ("resolved_at".to_string(), opt_float(a.resolved_at)),
                        ("fast_burn".to_string(), Value::Float(a.fast_burn)),
                        ("slow_burn".to_string(), Value::Float(a.slow_burn)),
                    ])
                })
                .collect(),
        );
        let transitions = Value::Array(
            p.transitions
                .iter()
                .map(|&(t, rule, cell, state)| {
                    Value::Object(vec![
                        ("t".to_string(), Value::Float(t)),
                        ("rule".to_string(), Value::Str(rule.to_string())),
                        ("cell".to_string(), cell_value(Some(cell))),
                        ("state".to_string(), Value::Str(state.to_string())),
                    ])
                })
                .collect(),
        );
        Value::Object(vec![
            ("config".to_string(), config),
            ("fired_total".to_string(), fired),
            ("alerts".to_string(), alerts),
            ("transitions".to_string(), transitions),
        ])
    })
}

fn num(v: Option<&Value>) -> f64 {
    match v {
        Some(Value::Int(n)) => *n as f64,
        Some(Value::UInt(n)) => *n as f64,
        Some(Value::Float(f)) => *f,
        _ => 0.0,
    }
}

fn str_of(v: Option<&Value>) -> String {
    match v {
        Some(Value::Str(s)) => s.clone(),
        Some(Value::Null) | None => "-".to_string(),
        Some(v) => num(Some(v)).to_string(),
    }
}

/// A sim timestamp that may be null (never fired / never resolved).
fn stamp_of(v: Option<&Value>) -> String {
    match v {
        Some(Value::Null) | None => "-".to_string(),
        Some(v) => format!("{:.1}", num(Some(v))),
    }
}

/// Renders the `qres obs alerts` report from the `alerts` section of an
/// `obs.json`: the alert table, the fired totals and the transition log.
pub fn render_watch(doc: &Value) -> Result<String, String> {
    let alerts = doc.get("alerts").ok_or("no `alerts` section")?;
    let mut out = String::from("alerts:\n");
    let rows = match alerts.get("alerts") {
        Some(Value::Array(rows)) => rows.as_slice(),
        _ => &[],
    };
    if rows.is_empty() {
        out.push_str("  (none)\n");
    }
    for a in rows {
        out.push_str(&format!(
            "  {:<17} cell {:<7} {:<9} since={:.1} fired_at={} resolved_at={}\n",
            str_of(a.get("rule")),
            str_of(a.get("cell")),
            str_of(a.get("state")),
            num(a.get("since")),
            stamp_of(a.get("fired_at")),
            stamp_of(a.get("resolved_at")),
        ));
    }
    if let Some(Value::Object(fields)) = alerts.get("fired_total") {
        out.push_str("fired_total:\n");
        for (rule, n) in fields {
            out.push_str(&format!("  {:<17} {}\n", rule, num(Some(n)) as u64));
        }
    }
    if let Some(Value::Array(transitions)) = alerts.get("transitions") {
        out.push_str(&format!("transitions ({}):\n", transitions.len()));
        for tr in transitions {
            out.push_str(&format!(
                "  t={:<10.1} {:<17} cell {:<7} -> {}\n",
                num(tr.get("t")),
                str_of(tr.get("rule")),
                str_of(tr.get("cell")),
                str_of(tr.get("state")),
            ));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qos::{record_handoff_outcome, set_qos_window_secs};

    const CELL: u32 = 9_201;

    /// Drives `n` sim-seconds from `t0` the way the DES driver does: one
    /// hand-off attempt into [`CELL`] per second (the first `drops` of
    /// them dropped), and a watchdog tick at every multiple of 10 s, which
    /// sees the attempts before it.
    fn run(t0: f64, n: u32, drops: u32) {
        for i in 0..n {
            let t = t0 + f64::from(i);
            record_handoff_outcome(t, CELL, i < drops);
            if (t + 1.0) % 10.0 == 0.0 {
                watchdog_tick(t + 1.0);
            }
        }
    }

    fn state(rule: &str) -> Option<AlertState> {
        alerts_snapshot()
            .into_iter()
            .find(|a| a.rule == rule && a.cell == Some(CELL))
            .map(|a| a.state)
    }

    fn fired(rule: &str) -> Option<Value> {
        alerts_json().get("fired_total")?.get(rule).cloned()
    }

    /// One `p_hd_burn` episode and one `violation_clock` episode, driven
    /// through the QoS tracker and the watchdog tick, with the state
    /// asserted at each step. Returns the final `alerts_json`.
    fn episode() -> String {
        // 20 clean minutes: no rule has anything to say.
        run(0.0, 1200, 0);
        assert!(alerts_snapshot().is_empty());

        // 6 drops in the next minute: 6 of the 300 attempts in the fast
        // window (burn 2.0), 6 of the 1260 in the slow one (burn 0.48).
        run(1200.0, 60, 6);
        assert_eq!(state(RULE_P_HD_BURN), Some(AlertState::Pending));
        let a = &alerts_snapshot()[0];
        assert!((a.fast_burn - 2.0).abs() < 1e-9, "{a:?}");
        assert!((a.slow_burn - 6.0 / 1260.0 / 0.01).abs() < 1e-9, "{a:?}");
        assert_eq!(state(RULE_VIOLATION_CLOCK), None, "P_HD never above target");
        assert_eq!(fired(RULE_P_HD_BURN), Some(Value::UInt(0)));

        // A minute of drops only: the slow window confirms, and the
        // hour-window estimate crosses the target, so the violation
        // clock starts to run.
        run(1260.0, 60, 60);
        assert_eq!(state(RULE_P_HD_BURN), Some(AlertState::Firing));
        assert_eq!(state(RULE_VIOLATION_CLOCK), Some(AlertState::Firing));

        // Clean traffic again: the fast window is clean once the last
        // drop (t = 1319) falls out of it, while the slow window is still
        // above target.
        run(1320.0, 240, 0);
        assert_eq!(state(RULE_P_HD_BURN), Some(AlertState::Firing));
        run(1560.0, 60, 0);
        assert_eq!(state(RULE_P_HD_BURN), Some(AlertState::Resolved));
        assert!(alerts_snapshot()[0].slow_burn > 1.0);

        // The hour-window estimate stays above target, so the violation
        // clock advances with every hand-off up to the last (t = 1699),
        // and fires until that advance is more than 300 s old.
        run(1620.0, 80, 0);
        for t in (1740..=1980).step_by(60) {
            watchdog_tick(f64::from(t));
        }
        assert_eq!(state(RULE_VIOLATION_CLOCK), Some(AlertState::Firing));
        watchdog_tick(2040.0);
        assert_eq!(state(RULE_VIOLATION_CLOCK), Some(AlertState::Resolved));
        assert_eq!(fired(RULE_P_HD_BURN), Some(Value::UInt(1)));
        assert_eq!(fired(RULE_VIOLATION_CLOCK), Some(Value::UInt(1)));
        alerts_json().to_compact_string()
    }

    #[test]
    fn rules_read_the_qos_windows_and_replay_identically() {
        // Each episode runs on its own thread, so on a fresh handle.
        let replay = || std::thread::spawn(episode).join().unwrap();
        assert_eq!(replay(), replay(), "same records, same timeline");
    }

    #[test]
    fn qos_window_shorter_than_the_fast_window_caps_it() {
        set_qos_window_secs(120.0);
        let doc = alerts_json();
        let config = doc.get("config").unwrap();
        assert_eq!(config.get("fast_window_secs"), Some(&Value::Float(120.0)));
        assert_eq!(config.get("slow_window_secs"), Some(&Value::Float(120.0)));

        run(0.0, 60, 60);
        assert_eq!(state(RULE_P_HD_BURN), Some(AlertState::Firing));
        assert_eq!(state(RULE_VIOLATION_CLOCK), Some(AlertState::Firing));
        // Clean from t = 60: the last drop (t = 59) leaves the 120-s fast
        // window by t = 180.
        run(60.0, 60, 0);
        assert_eq!(state(RULE_P_HD_BURN), Some(AlertState::Firing));
        run(120.0, 60, 0);
        assert_eq!(state(RULE_P_HD_BURN), Some(AlertState::Resolved));
        // The violation clock last advances at t = 179, when the window
        // still held two drops; 120 s later the rule resolves.
        run(180.0, 60, 0);
        assert_eq!(state(RULE_VIOLATION_CLOCK), Some(AlertState::Firing));
        run(240.0, 60, 0);
        assert_eq!(state(RULE_VIOLATION_CLOCK), Some(AlertState::Resolved));
    }

    #[test]
    fn evaluation_grid_rearms_when_the_clock_restarts() {
        assert!(!eval_due(10.0), "before the first boundary");
        assert!(eval_due(61.0), "crossed t = 60");
        assert!(!eval_due(70.0), "inside the interval");
        assert!(eval_due(125.0), "crossed t = 120");
        assert!(!eval_due(130.0));
        assert!(eval_due(2.0), "clock went backwards: re-armed");
        assert!(!eval_due(10.0));
        assert!(eval_due(60.0));
    }

    #[test]
    fn finalize_resolves_firing_and_retracts_pending() {
        run(0.0, 60, 60);
        assert!(alerts_snapshot()
            .iter()
            .any(|a| a.state == AlertState::Firing));
        finalize(600.0);
        let alerts = alerts_snapshot();
        assert!(alerts
            .iter()
            .all(|a| a.state == AlertState::Resolved && a.resolved_at == Some(600.0)));
    }

    /// The transition log keeps every transition of a run, oldest first:
    /// a metro drill makes thousands.
    #[test]
    fn transition_log_keeps_every_transition_in_order() {
        const CELLS: u32 = 300;
        for cell in 0..CELLS {
            record_handoff_outcome(30.0, cell, true);
        }
        evaluate(60.0);
        finalize(120.0);
        let fired = (0..CELLS).flat_map(|c| [(60.0, c, "pending"), (60.0, c, "firing")]);
        let resolved = (0..CELLS).map(|c| (120.0, c, "resolved"));
        let expected: Vec<(f64, String, String, String)> = (fired.chain(resolved))
            .map(|(t, c, state)| (t, RULE_P_HD_BURN.into(), c.to_string(), state.into()))
            .collect();
        let doc = alerts_json();
        let Some(Value::Array(log)) = doc.get("transitions") else {
            panic!("transitions array expected");
        };
        let got: Vec<(f64, String, String, String)> = (log.iter())
            .map(|tr| {
                let field = |k| str_of(tr.get(k));
                (
                    num(tr.get("t")),
                    field("rule"),
                    field("cell"),
                    field("state"),
                )
            })
            .collect();
        assert_eq!(got.len(), 3 * CELLS as usize);
        assert_eq!(got, expected);
    }

    #[test]
    fn obswatch_renders_the_alerts_section() {
        let doc = Value::parse(
            r#"{"alerts":{"config":{},"fired_total":{"p_hd_burn":2},
            "alerts":[{"rule":"p_hd_burn","cell":"7","state":"resolved",
            "since":60.0,"fired_at":60.0,"resolved_at":120.0,
            "fast_burn":0.0,"slow_burn":0.0}],
            "transitions":[{"t":60.0,"rule":"p_hd_burn","cell":"7","state":"firing"}]}}"#,
        )
        .unwrap();
        let report = render_watch(&doc).expect("snapshot renders");
        assert!(report.contains("resolved"), "{report}");
        assert!(report.contains("fired_total"), "{report}");
        assert!(report.contains("transitions (1)"), "{report}");

        let no_alerts = Value::parse(r#"{"no":"alerts"}"#).unwrap();
        assert!(render_watch(&no_alerts).is_err());
    }
}
