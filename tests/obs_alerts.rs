//! End-to-end check of the `qres obs alerts` view: real QoS traffic drives
//! a cell above `P_HD,target`, the capture trigger freezes its flight
//! window, and the report renders both from `obs.json`.
//!
//! Each test runs on its own thread, so on its own telemetry handle: the
//! trigger state one test drives never reaches another, and no test needs
//! to clear it.

use qres::obs;
use qres_json::{FromJson, Value};

/// Drive `P_HD` over target in one cell: drops only, then one watchdog
/// tick to evaluate the burn on the QoS windows.
fn force_violation(cell: u32, t: f64) {
    for i in 0..20 {
        obs::qos::record_handoff_outcome(t - 1.0 + f64::from(i) * 0.01, cell, true);
    }
    obs::watchdog_tick(t);
}

/// The cell's violation clock and the trigger's capture, written to
/// `obs.json`, round-trip through the offline `qres obs alerts` renderer.
#[test]
fn alert_timeline_round_trips_through_obswatch_renderers() {
    let dir = std::env::temp_dir().join(format!("qres_obs_alerts_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    obs::set_level(obs::Level::Info);
    obs::set_flight_capture_dir(Some(dir.clone()));
    let rec = r#"{"req":1,"t":0.0,"cell":9303,"scheme":"AC3","bu":1.0,"used":0.0,
        "capacity":100.0,"reserve":0.0,"t_est_secs":1.0,"terms":[],"checks":[],
        "admitted":true,"blocked_rank":null}"#;
    obs::flight::record(obs::FlightRecord::from_json(&Value::parse(rec).unwrap()).unwrap());
    force_violation(9_303, 60.0);

    let text = obs::snapshot_json().to_pretty_string();
    let doc = Value::parse(&text).expect("snapshot parses");
    assert!(doc.get("alerts").is_none(), "no alerts section");
    let rendered = obs::render_alerts(&doc).expect("qos section renders");
    assert!(
        rendered.contains("cell 9303    p_hd=1.000000"),
        "render: {rendered}"
    );
    assert!(rendered.contains("drops 20/20"), "render: {rendered}");
    assert!(
        rendered.contains("1 of 1 cells above P_HD,target = 0.01 (window 3600 s)"),
        "render: {rendered}"
    );
    assert!(
        rendered.contains("flight captures (1):"),
        "render: {rendered}"
    );
    assert!(
        rendered.contains("obs_flight_9303_60.json"),
        "render: {rendered}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
