//! End-to-end check of the SLO watchdog plane: the alert rules driven
//! through real QoS traffic into the `alerts` section of `obs.json`.
//!
//! Each test runs on its own thread, so on its own telemetry handle: the
//! watchdog state one test drives never reaches another, and no test
//! needs to clear it.

use qres::obs;
use qres_json::Value;

/// Drive `P_HD` over target in one cell: drops only, then one watchdog
/// tick to evaluate the burn-rate rules on the QoS windows.
fn force_violation(cell: u32, t: f64) {
    for i in 0..20 {
        obs::qos::record_handoff_outcome(t - 1.0 + f64::from(i) * 0.01, cell, true);
    }
    obs::watchdog_tick(t);
}

/// The `alerts` section written to `obs.json` round-trips through the
/// offline `qres obs alerts` renderer, transition log included.
#[test]
fn alert_timeline_round_trips_through_obswatch_renderers() {
    obs::set_level(obs::Level::Info);
    force_violation(9_303, 60.0);
    obs::finalize_alerts(120.0);

    let text = obs::snapshot_json().to_pretty_string();
    let doc = Value::parse(&text).expect("snapshot parses");
    // The section carries the windows in force and the fired totals.
    let alerts = doc.get("alerts").expect("alerts section");
    let config = alerts.get("config").expect("config");
    assert_eq!(config.get("fast_window_secs"), Some(&Value::Float(300.0)));
    assert_eq!(config.get("slow_window_secs"), Some(&Value::Float(3600.0)));
    let fired = alerts.get("fired_total").and_then(|f| f.get("p_hd_burn"));
    assert!(
        matches!(fired, Some(Value::UInt(1..) | Value::Int(1..))),
        "p_hd_burn must have fired, got {fired:?}"
    );
    let rendered = obs::render_watch(&doc).expect("alerts section renders");
    assert!(rendered.contains("p_hd_burn"), "render: {rendered}");
    assert!(rendered.contains("firing"), "render: {rendered}");
    assert!(rendered.contains("resolved"), "render: {rendered}");
    assert!(
        rendered.contains("cell 9303    -> firing"),
        "render: {rendered}"
    );
}
