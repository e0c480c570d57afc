//! End-to-end checks of the SLO watchdog plane: the alert rules driven
//! through real QoS traffic, `/alerts` + `/healthz` scraped over real TCP,
//! and a lint-clean exposition at metro scale.
//!
//! This file is its own test binary, so flipping the process-global obs
//! state here cannot race the determinism or smoke suites; the tests
//! still serialize against each other through `LOCK` because the
//! watchdog state is process-global too.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;

use qres::obs;

static LOCK: Mutex<()> = Mutex::new(());

fn reset_all() {
    obs::set_level(obs::Level::Off);
    obs::reset();
    obs::reset_metrics();
    obs::reset_qos();
    obs::reset_calib();
    obs::reset_alerts();
}

fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut conn = TcpStream::connect(addr).expect("connect to obs server");
    conn.write_all(format!("GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").as_bytes())
        .unwrap();
    let mut response = String::new();
    conn.read_to_string(&mut response).unwrap();
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a head/body split");
    (head.to_string(), body.to_string())
}

/// Drive `P_HD` over target in one cell: drops only, then one watchdog
/// tick to evaluate the burn-rate rules on the QoS windows.
fn force_violation(cell: u32, t: f64) {
    for i in 0..20 {
        obs::qos::record_handoff_outcome(t - 1.0 + f64::from(i) * 0.01, cell, true);
    }
    obs::watchdog_tick(t);
}

/// A metro run's exposition lints clean, and its timing histograms are
/// single unlabelled series: no `cell=` label at 1024 cells.
#[test]
fn metro_exposition_lints_without_per_cell_timing_series() {
    let _guard = LOCK.lock().unwrap();
    reset_all();
    obs::set_level(obs::Level::Info);
    let scenario = qres::sim::Scenario::metro().duration_secs(5.0).seed(3);
    let r = qres::sim::run_scenario(&scenario);
    assert!(r.events_dispatched > 0);
    let prom = obs::prometheus_text();
    obs::validate_prometheus_text(&prom).expect("metro exposition must lint clean");
    assert!(prom.contains("\nqres_admission_test_ns_count "));
    let labelled_timing: Vec<&str> = prom
        .lines()
        .filter(|l| l.contains("_ns_") && l.contains("cell="))
        .collect();
    assert!(
        labelled_timing.is_empty(),
        "timing series carry a cell label: {:?}",
        &labelled_timing[..labelled_timing.len().min(3)]
    );
    reset_all();
}

/// `/healthz` flips to 503 while an alert is firing — naming the rule and
/// cell in the body — and recovers to 200 when it resolves. Resolved
/// alerts are history, not an outage: they stay 200.
#[test]
fn healthz_degrades_on_firing_alert_then_recovers() {
    let _guard = LOCK.lock().unwrap();
    reset_all();
    let server = obs::ObsServer::start("127.0.0.1:0").expect("bind ephemeral port");
    let addr = server.addr();

    // Healthy baseline.
    let (head, body) = http_get(addr, "/healthz");
    assert!(head.starts_with("HTTP/1.1 200"), "head: {head}");
    assert!(body.starts_with("ok\n"), "body: {body}");

    // A firing burn-rate alert degrades health, naming the rule.
    obs::set_qos_target_p_hd(0.01);
    force_violation(9_301, 60.0);
    assert!(
        !obs::firing_alerts().is_empty(),
        "pure-drop traffic must fire the p_hd_burn rule"
    );
    let (head, body) = http_get(addr, "/healthz");
    assert!(head.starts_with("HTTP/1.1 503"), "head: {head}");
    assert!(body.starts_with("degraded\n"), "body: {body}");
    assert!(body.contains("firing: p_hd_burn"), "body: {body}");
    assert!(body.contains("cell=9301"), "body: {body}");

    // Resolving the alert restores health; the resolved entry is
    // degraded-but-alive history, not an outage.
    obs::finalize_alerts(120.0);
    assert!(obs::firing_alerts().is_empty());
    let (head, body) = http_get(addr, "/healthz");
    assert!(head.starts_with("HTTP/1.1 200"), "head: {head}");
    assert!(body.starts_with("ok\n"), "body: {body}");

    server.shutdown();
    reset_all();
}

/// `/alerts` serves the full watchdog document as valid JSON: config
/// (the windows in force), fired counters and the transition log.
#[test]
fn alerts_route_serves_watchdog_document() {
    let _guard = LOCK.lock().unwrap();
    reset_all();
    let server = obs::ObsServer::start("127.0.0.1:0").expect("bind ephemeral port");
    let addr = server.addr();

    obs::set_qos_target_p_hd(0.01);
    force_violation(9_302, 60.0);
    obs::watchdog_tick(120.0);

    let (head, body) = http_get(addr, "/alerts");
    assert!(head.starts_with("HTTP/1.1 200"), "head: {head}");
    assert!(head.contains("application/json"));
    let alerts = qres_json::Value::parse(&body).expect("/alerts serves valid JSON");
    let config = alerts.get("config").expect("config");
    assert_eq!(
        config.get("fast_window_secs"),
        Some(&qres_json::Value::Float(300.0))
    );
    assert_eq!(
        config.get("slow_window_secs"),
        Some(&qres_json::Value::Float(3600.0))
    );
    let fired = alerts
        .get("fired_total")
        .and_then(|f| f.get("p_hd_burn"))
        .cloned();
    assert!(
        matches!(
            fired,
            Some(qres_json::Value::UInt(1..) | qres_json::Value::Int(1..))
        ),
        "p_hd_burn must have fired, got {fired:?}"
    );
    assert!(body.contains("\"9302\""), "the hot cell is named: {body}");

    server.shutdown();
    reset_all();
}

/// The alert document written by `obs_finish` round-trips through the
/// offline `qres obs alerts` renderer (snapshot form), and the JSONL event
/// spill form renders the same transitions.
#[test]
fn alert_timeline_round_trips_through_obswatch_renderers() {
    let _guard = LOCK.lock().unwrap();
    reset_all();
    obs::set_level(obs::Level::Info);
    obs::set_qos_target_p_hd(0.01);
    force_violation(9_303, 60.0);
    obs::finalize_alerts(120.0);

    // Snapshot form: the pretty-printed alerts document.
    let doc = obs::alerts_json().to_pretty_string();
    let rendered = obs::render_watch(&doc).expect("alerts document renders");
    assert!(rendered.contains("p_hd_burn"), "render: {rendered}");
    assert!(rendered.contains("firing"), "render: {rendered}");
    assert!(rendered.contains("resolved"), "render: {rendered}");

    // JSONL form: the spilled event stream carries the same transitions.
    let (events, _) = obs::drain_events();
    let jsonl = obs::events_to_jsonl(&events);
    assert!(
        jsonl.contains("alert_transition"),
        "transitions must reach the event stream"
    );
    let replay = obs::render_watch(&jsonl).expect("JSONL stream renders");
    assert!(replay.contains("p_hd_burn"), "replay: {replay}");
    assert!(replay.contains("firing"), "replay: {replay}");

    reset_all();
}
