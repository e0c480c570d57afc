//! End-to-end telemetry smoke test: one obs-enabled high-load AC3 run must
//! produce every event group, a lint-clean Prometheus exposition, and a
//! JSONL stream that parses back through `qres-json` with sim-time never
//! decreasing.

use qres::obs;

#[test]
fn obs_enabled_run_covers_all_event_groups() {
    // Large enough that a short run cannot overwrite early events (the
    // queue high-water marks fire in the warm-up).
    obs::set_capacity(1 << 20);
    obs::set_level(obs::Level::Debug);
    let r = qres::sim::run_scenario(
        &qres::sim::Scenario::paper_baseline()
            .scheme(qres::sim::SchemeKind::Ac3)
            .offered_load(300.0)
            .duration_secs(300.0)
            .seed(11),
    );
    obs::set_level(obs::Level::Off);
    let (events, dropped) = obs::drain_events();
    let prom = obs::prometheus_text();
    let snapshot = obs::snapshot_json();
    obs::reset();
    obs::reset_metrics();
    obs::reset_qos();
    obs::reset_calib();

    assert!(r.events_dispatched > 0);
    assert_eq!(dropped, 0, "capacity must hold the whole stream");
    assert!(!events.is_empty());

    // All six event groups of DESIGN.md §10 appear (HOE insert/evict share
    // a group: evictions need long runs).
    let has = |tags: &[&str]| events.iter().any(|e| tags.contains(&e.type_tag()));
    assert!(has(&["admission"]), "no admission events");
    assert!(has(&["br_compute"]), "no B_r compute events");
    assert!(has(&["t_est_change"]), "no T_est window events");
    assert!(has(&["hoe_insert", "hoe_evict"]), "no HOE cache events");
    assert!(has(&["queue_high_water"]), "no DES queue events");
    assert!(has(&["backbone_send"]), "no backbone signaling events");

    // The exposition passes the in-repo lint and carries the hot-path
    // histograms.
    obs::validate_prometheus_text(&prom).expect("exposition must lint clean");
    assert!(prom.contains("qres_admission_test_ns_bucket"));
    assert!(prom.contains("qres_event_dispatch_ns_count"));
    assert!(prom.contains("qres_backbone_msgs_total"));

    // Every JSONL line round-trips through qres-json as a tagged object,
    // and sim-time never decreases, over the whole stream and within each
    // cell (one run, recorded in order).
    let jsonl = obs::events_to_jsonl(&events);
    let mut lines = 0usize;
    let mut last_t = f64::NEG_INFINITY;
    let mut last_t_per_cell = std::collections::BTreeMap::new();
    for line in jsonl.lines() {
        let event = qres_json::Value::parse(line).expect("event line must be valid JSON");
        let qres_json::Value::Object(fields) = &event else {
            panic!("event line must be an object");
        };
        assert!(fields.iter().any(|(k, _)| k == "type"));
        let num = |key: &str| match event.get(key) {
            Some(qres_json::Value::Float(x)) => Some(*x),
            Some(qres_json::Value::Int(x)) => Some(*x as f64),
            Some(qres_json::Value::UInt(x)) => Some(*x as f64),
            _ => None,
        };
        let t = num("t").expect("event has a numeric \"t\"");
        assert!(
            t >= last_t,
            "sim-time went backwards: {line} after t={last_t}"
        );
        last_t = t;
        if let Some(cell) = num("cell") {
            let last = last_t_per_cell
                .entry(cell as u64)
                .or_insert(f64::NEG_INFINITY);
            assert!(t >= *last, "sim-time went backwards in cell {cell}: {line}");
            *last = t;
        }
        lines += 1;
    }
    assert_eq!(lines, events.len());
    assert!(last_t_per_cell.len() > 1, "events carry their cell ids");

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
