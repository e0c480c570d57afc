//! `P_HD,target` alerts: the flight-capture trigger, evaluated on the live
//! QoS windows ([`crate::qos`]) every [`EVAL_SECS`] simulated seconds, and
//! the `qres obs alerts` report ([`render_alerts`]), read from the `qos`
//! and `flight` sections of `obs.json`.
//!
//! The trigger watches the paper's QoS contract, `P_HD ≤ P_HD,target`, per
//! cell through the `P_HD` *burn rate*: the hand-off drop ratio divided by
//! the `qos` target (1.0 = consuming the error budget exactly at target).
//! The fast signal is the ratio of the attempts in the last
//! [`FAST_WINDOW_SECS`] (5 sim-min); the slow signal is the `qos` window
//! estimate (1 sim-h by default). Both read the hand-off deque the `qos`
//! tracker already keeps, so the fast window can reach no further back
//! than the `qos` window: a shorter `qos` window caps it.
//!
//! Each cell has one firing bit. A cell that is not firing and whose fast
//! and slow burn both exceed 1.0 starts firing, and its flight-recorder
//! window is frozen to disk once ([`crate::flight::capture_for_cell`]).
//! A firing cell clears when its fast burn is back at or below 1.0, or
//! when it has no `qos` state; its next burn captures again.
//!
//! Evaluation runs on a fixed sim-time grid, so the captures are
//! bit-identical across reruns. Nothing here feeds back into the
//! simulation.

use std::collections::BTreeSet;

use qres_json::Value;

/// Evaluation cadence (simulated seconds): the trigger is evaluated at the
/// first watchdog tick on or after each multiple of it.
pub const EVAL_SECS: f64 = 60.0;

/// Fast burn-rate window (simulated seconds): 5 sim-minutes, capped by
/// the `qos` window.
pub const FAST_WINDOW_SECS: f64 = 300.0;

/// The rule a capture file names: per-cell `P_HD` burn rate against
/// `P_HD,target`.
const RULE_P_HD_BURN: &str = "p_hd_burn";

/// The capture trigger of an [`crate::Obs`].
#[derive(Debug)]
pub(crate) struct Trigger {
    /// The cells whose burn fired and has not cleared yet.
    firing: BTreeSet<u32>,
    /// The next [`EVAL_SECS`] grid boundary at which the trigger is due.
    next_eval: f64,
}

impl Default for Trigger {
    fn default() -> Self {
        Trigger {
            firing: BTreeSet::new(),
            next_eval: EVAL_SECS,
        }
    }
}

fn with_trigger<R>(f: impl FnOnce(&mut Trigger) -> R) -> R {
    crate::with_stores(|s| f(&mut s.trigger))
}

/// Clears every firing bit and restarts the evaluation grid.
pub fn reset_alerts() {
    with_trigger(|t| *t = Trigger::default());
}

/// The watchdog tick, called by the DES driver every 10 sim-seconds with
/// telemetry on. Evaluates the trigger at the first tick of each
/// [`EVAL_SECS`] grid interval, on the sim clock, so the captures are
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
    with_trigger(|t| {
        if now + EVAL_SECS < t.next_eval {
            t.next_eval = 0.0;
        }
        if now < t.next_eval {
            return false;
        }
        t.next_eval = ((now / EVAL_SECS).floor() + 1.0) * EVAL_SECS;
        true
    })
}

/// Steps every cell's firing bit on the `qos` windows at sim-time `now`,
/// then captures each cell that started firing, in cell-id order.
fn evaluate(now: f64) {
    let fired: Vec<u32> = crate::with_stores(|s| {
        let target = s.qos.target_p_hd().max(f64::MIN_POSITIVE);
        let fast_secs = FAST_WINDOW_SECS.min(s.qos.window_secs());
        let burns = |p: Option<f64>| p.unwrap_or(0.0) / target > 1.0;
        let t = &mut s.trigger;
        // Rebuilt from the inputs, so a cell without `qos` state clears.
        let was_firing = std::mem::take(&mut t.firing);
        let mut fired = Vec::new();
        let inputs = s.qos.burn_inputs(now - fast_secs);
        for c in inputs.iter().filter(|c| burns(c.fast_p_hd)) {
            let firing = was_firing.contains(&c.cell);
            if firing || burns(c.slow_p_hd) {
                t.firing.insert(c.cell);
                if !firing {
                    fired.push(c.cell);
                }
            }
        }
        fired
    });
    // Freezing a burning cell's decision window keeps the decisions behind
    // the burn beyond the ring; a no-op unless a capture directory is set.
    for cell in fired {
        crate::flight::capture_for_cell(cell, now, RULE_P_HD_BURN);
    }
}

fn num(v: Option<&Value>) -> f64 {
    match v {
        Some(Value::Int(n)) => *n as f64,
        Some(Value::UInt(n)) => *n as f64,
        Some(Value::Float(f)) => *f,
        _ => 0.0,
    }
}

/// Renders the `qres obs alerts` report of an `obs.json`: from its `qos`
/// section, the cells whose violation clock ran (most violating first)
/// with their windowed `P_HD`, Wilson interval and drops/trials, and how
/// many cells sat above `P_HD,target`; from its `flight` section, the
/// captures the trigger wrote. A document without `qos` is an error.
pub fn render_alerts(doc: &Value) -> Result<String, String> {
    use std::fmt::Write as _;
    let qos = doc.get("qos").ok_or("no `qos` section")?;
    let cells = match qos.get("cells") {
        Some(Value::Object(cells)) => cells.as_slice(),
        _ => &[],
    };
    let mut above: Vec<&(String, Value)> = cells
        .iter()
        .filter(|(_, c)| num(c.get("violation_secs")) > 0.0)
        .collect();
    above.sort_by(|(_, a), (_, b)| {
        num(b.get("violation_secs")).total_cmp(&num(a.get("violation_secs")))
    });
    let mut out = String::from("cells with violation_secs > 0 (most violating first):\n");
    if above.is_empty() {
        out.push_str("  (none)\n");
    }
    for (cell, c) in &above {
        let p_hd = match c.get("p_hd") {
            Some(Value::Null) | None => "-".to_string(),
            p => format!("{:.6}", num(p)),
        };
        let _ = writeln!(
            out,
            "  cell {cell:<7} p_hd={p_hd} [{:.6}, {:.6}]  drops {}/{}  violation_secs={:.1}",
            num(c.get("p_hd_wilson_low")),
            num(c.get("p_hd_wilson_high")),
            num(c.get("hd_drops")),
            num(c.get("hd_trials")),
            num(c.get("violation_secs")),
        );
    }
    let _ = writeln!(
        out,
        "{} of {} cells above P_HD,target = {} (window {} s)",
        above.len(),
        cells.len(),
        num(qos.get("target_p_hd")),
        num(qos.get("window_secs")),
    );
    let captures = match doc.get("flight").and_then(|f| f.get("captures")) {
        Some(Value::Array(captures)) => captures.as_slice(),
        _ => &[],
    };
    let _ = writeln!(out, "flight captures ({}):", captures.len());
    for capture in captures {
        if let Value::Str(path) = capture {
            let _ = writeln!(out, "  {path}");
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qos::{record_handoff_outcome, set_qos_window_secs};
    use qres_json::FromJson;

    const CELL: u32 = 9_201;

    /// Points this thread's captures at a fresh per-test directory, and
    /// tapes a decision of [`CELL`] so it has a window to capture.
    fn capture_into(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "qres_trigger_{}_{name}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        crate::flight::set_flight_capture_dir(Some(dir.clone()));
        tape(CELL);
        dir
    }

    /// Tapes one admission decision of `cell`.
    fn tape(cell: u32) {
        let rec = format!(
            r#"{{"req":1,"t":0.0,"cell":{cell},"scheme":"AC3","bu":1.0,"used":0.0,
            "capacity":100.0,"reserve":0.0,"t_est_secs":1.0,"terms":[],"checks":[],
            "admitted":true,"blocked_rank":null}}"#
        );
        let rec = crate::FlightRecord::from_json(&Value::parse(&rec).unwrap()).unwrap();
        crate::flight::record(rec);
    }

    /// The file names of this thread's captures, oldest first.
    fn captures() -> Vec<String> {
        let Some(Value::Array(paths)) = crate::flight::flight_json().get("captures").cloned()
        else {
            panic!("flight section without captures");
        };
        (paths.iter())
            .map(|p| match p {
                Value::Str(p) => p.rsplit('/').next().unwrap().to_string(),
                other => panic!("capture path {other:?}"),
            })
            .collect()
    }

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

    /// Two burn episodes of one cell, driven through the QoS tracker and
    /// the watchdog tick, with the captures asserted at each step. Returns
    /// the capture names and bytes.
    fn episode() -> Vec<(String, String)> {
        let dir = capture_into("episode");
        // 20 clean minutes: nothing burns.
        run(0.0, 1200, 0);
        assert!(captures().is_empty());

        // 6 drops in the next minute: 6 of the 300 attempts in the fast
        // window (burn 2.0), 6 of the 1260 in the slow one (burn 0.48).
        // The slow window does not confirm yet.
        run(1200.0, 60, 6);
        assert!(captures().is_empty());

        // A minute of drops only: the slow window confirms at t = 1320,
        // and the cell captures once.
        run(1260.0, 60, 60);
        assert_eq!(captures(), [format!("obs_flight_{CELL}_1320.json")]);

        // Clean traffic again: the fast window still holds drops until the
        // last one (t = 1319) falls out of it, and the slow window stays
        // above target, so the cell keeps firing without a second capture.
        run(1320.0, 240, 0);
        assert_eq!(captures().len(), 1);
        // At t = 1620 the fast window is clean: the cell clears.
        run(1560.0, 60, 0);
        assert!(with_trigger(|t| t.firing.is_empty()));

        // The next burst fires again (the slow window never recovered):
        // one more capture, for a new episode.
        run(1620.0, 60, 10);
        assert_eq!(
            captures(),
            [
                format!("obs_flight_{CELL}_1320.json"),
                format!("obs_flight_{CELL}_1680.json")
            ]
        );
        let files = captures()
            .into_iter()
            .map(|name| {
                let bytes = std::fs::read_to_string(dir.join(&name)).unwrap();
                (name, bytes)
            })
            .collect();
        std::fs::remove_dir_all(&dir).unwrap();
        files
    }

    #[test]
    fn rules_read_the_qos_windows_and_replay_identically() {
        // Each episode runs on its own thread, so on a fresh handle.
        let replay = || std::thread::spawn(episode).join().unwrap();
        assert_eq!(replay(), replay(), "same records, same captures");
    }

    #[test]
    fn qos_window_shorter_than_the_fast_window_caps_it() {
        let dir = capture_into("cap");
        set_qos_window_secs(120.0);
        run(0.0, 60, 60);
        assert_eq!(captures(), [format!("obs_flight_{CELL}_60.json")]);
        // No traffic after t = 59, so the deque still holds every drop.
        // At t = 120 the 120-s fast window reaches back to t = 0: firing.
        watchdog_tick(120.0);
        // At t = 180 it starts at t = 60 and is empty, so the cell clears;
        // a 300-s window would still see the drops and keep it firing.
        watchdog_tick(180.0);
        assert!(with_trigger(|t| t.firing.is_empty()));
        // So the next burst is a new episode with its own capture.
        run(180.0, 60, 6);
        assert_eq!(
            captures(),
            [
                format!("obs_flight_{CELL}_60.json"),
                format!("obs_flight_{CELL}_240.json")
            ]
        );
        std::fs::remove_dir_all(&dir).unwrap();
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

    /// Cells that start burning in one evaluation capture in cell-id
    /// order; a cell whose `qos` state was reset clears.
    #[test]
    fn burning_cells_capture_in_cell_order_and_clear_on_reset() {
        let dir = capture_into("cells");
        for cell in [CELL, 7, 5] {
            tape(cell);
            record_handoff_outcome(30.0, cell, true);
        }
        evaluate(60.0);
        let names = [5, 7, CELL].map(|cell| format!("obs_flight_{cell}_60.json"));
        assert_eq!(captures(), names);
        crate::qos::reset_qos();
        evaluate(120.0);
        assert!(with_trigger(|t| t.firing.is_empty()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn alerts_view_reads_the_qos_and_flight_sections() {
        let doc = Value::parse(
            r#"{"qos":{"window_secs":3600.0,"target_p_hd":0.01,"cells":{
              "3":{"hd_trials":100,"hd_drops":1,"p_hd":0.01,"p_hd_wilson_low":0.0018,
                   "p_hd_wilson_high":0.0545,"violation_secs":0.0},
              "7":{"hd_trials":50,"hd_drops":5,"p_hd":0.1,"p_hd_wilson_low":0.0435,
                   "p_hd_wilson_high":0.2138,"violation_secs":120.0},
              "8":{"hd_trials":40,"hd_drops":2,"p_hd":0.05,"p_hd_wilson_low":0.0138,
                   "p_hd_wilson_high":0.1650,"violation_secs":300.0}}},
            "flight":{"captures":["./obs_flight_8_60.json"]}}"#,
        )
        .unwrap();
        let report = render_alerts(&doc).expect("report renders");
        let at = |needle: &str| report.find(needle).unwrap_or_else(|| panic!("{report}"));
        assert!(at("cell 8") < at("cell 7"), "most violating first");
        assert!(!report.contains("cell 3"), "{report}");
        assert!(
            report.contains("p_hd=0.100000 [0.043500, 0.213800]  drops 5/50"),
            "{report}"
        );
        assert!(report.contains("violation_secs=300.0"), "{report}");
        assert!(
            report.contains("2 of 3 cells above P_HD,target = 0.01 (window 3600 s)"),
            "{report}"
        );
        assert!(report.contains("flight captures (1):\n  ./obs_flight_8_60.json"));

        let no_qos = Value::parse(r#"{"flight":{"captures":[]}}"#).unwrap();
        assert!(render_alerts(&no_qos).is_err());
    }
}
