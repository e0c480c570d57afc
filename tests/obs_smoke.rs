//! End-to-end telemetry smoke test: one telemetry-on high-load AC3 run
//! must time its hot paths, render a lint-clean Prometheus exposition, and
//! snapshot every `obs.json` section.

use qres::obs;

#[test]
fn obs_enabled_run_lints_and_times_hot_paths() {
    obs::set_level(obs::Level::Info);
    let r = qres::sim::run_scenario(
        &qres::sim::Scenario::paper_baseline()
            .scheme(qres::sim::SchemeKind::Ac3)
            .offered_load(300.0)
            .duration_secs(300.0)
            .seed(11),
    );
    obs::set_level(obs::Level::Off);
    let prom = obs::prometheus_text();
    let snapshot = obs::snapshot_json();
    assert!(r.events_dispatched > 0);

    // The exposition passes the in-repo lint and carries the hot-path
    // histograms with samples in them.
    obs::validate_prometheus_text(&prom).expect("exposition must lint clean");
    let count = |name: &str| {
        prom.lines()
            .find_map(|l| l.strip_prefix(&format!("{name}_count ")))
            .and_then(|n| n.parse::<u64>().ok())
    };
    for hist in [
        "qres_admission_test_ns",
        "qres_br_compute_ns",
        "qres_batched_contribution_ns",
        "qres_event_dispatch_ns",
    ] {
        assert!(count(hist) > Some(0), "{hist} recorded nothing");
    }
    assert!(prom.contains("qres_backbone_msgs_total"));

    // The JSON snapshot has the six exporter sections, and the QoS view
    // carries the calibration sub-document.
    let qres_json::Value::Object(sections) = &snapshot else {
        panic!("snapshot must be an object");
    };
    let keys: Vec<&str> = sections.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "counters",
            "gauges",
            "histograms",
            "qos",
            "alerts",
            "flight"
        ]
    );
    let qos = snapshot.get("qos").unwrap();
    assert!(qos.get("cells").is_some());
    assert!(qos.get("calib").is_some());
}
