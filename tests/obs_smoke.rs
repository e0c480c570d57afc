//! End-to-end telemetry smoke test: one telemetry-on high-load AC3 run
//! must time its hot paths and snapshot every `obs.json` section.

use qres::obs;
use qres_json::Value;

#[test]
fn obs_enabled_run_times_hot_paths() {
    obs::set_level(obs::Level::Info);
    let scenario = qres::sim::Scenario::paper_baseline()
        .scheme(qres::sim::SchemeKind::Ac3)
        .offered_load(300.0)
        .duration_secs(300.0)
        .seed(11);
    let r = qres::sim::run_scenario(&scenario);
    obs::set_level(obs::Level::Off);
    let snapshot = obs::snapshot_json();
    assert!(r.events_dispatched > 0);

    // The queue holds one event per connection, besides the next arrival
    // per cell, the hour tick and the warm-up end.
    let queue = obs::metrics::QUEUE_HIGH_WATER.get();
    let mobiles = obs::metrics::ACTIVE_MOBILES.get();
    let bound = mobiles + scenario.num_cells as u64 + 2;
    assert!(queue <= bound, "{queue} events for {mobiles} connections");

    // The snapshot carries the hot-path histograms with samples in them.
    let count = |name: &str| match snapshot
        .get("histograms")
        .and_then(|h| h.get(name))
        .and_then(|h| h.get("count"))
    {
        Some(Value::UInt(n)) => Some(*n),
        _ => None,
    };
    for hist in [
        "qres_admission_test_ns",
        "qres_br_compute_ns",
        "qres_batched_contribution_ns",
        "qres_event_dispatch_ns",
    ] {
        assert!(count(hist) > Some(0), "{hist} recorded nothing");
    }
    let counters = snapshot.get("counters").expect("counters section");
    assert!(counters.get("qres_backbone_msgs_total").is_some());

    // The JSON snapshot has the five exporter sections, and the QoS view
    // carries the calibration sub-document.
    let Value::Object(sections) = &snapshot else {
        panic!("snapshot must be an object");
    };
    let keys: Vec<&str> = sections.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["counters", "gauges", "histograms", "qos", "flight"]);
    let qos = snapshot.get("qos").unwrap();
    assert!(qos.get("cells").is_some());
    assert!(qos.get("calib").is_some());
}

/// Only a predictive scheme keeps quadruplets: a static run inserts none,
/// and an AC3 run inserts one per completed hand-off.
#[test]
fn hoe_inserts_count_predictive_handoffs_only() {
    let inserts = |scheme| {
        obs::set_level(obs::Level::Info);
        let scenario = qres::sim::Scenario::paper_baseline()
            .scheme(scheme)
            .offered_load(150.0)
            .duration_secs(300.0)
            .seed(5);
        assert_eq!(scenario.warmup_secs, 0.0, "every hand-off is counted");
        let before = obs::metrics::HOE_INSERTS_TOTAL.get();
        let r = qres::sim::run_scenario(&scenario);
        obs::set_level(obs::Level::Off);
        let completed = r.system_hd.trials() - r.system_hd.hits();
        assert!(completed > 0);
        (obs::metrics::HOE_INSERTS_TOTAL.get() - before, completed)
    };
    let (static_inserts, _) = inserts(qres::sim::SchemeKind::Static { guard_bus: 10 });
    assert_eq!(static_inserts, 0);
    let (ac3_inserts, completed) = inserts(qres::sim::SchemeKind::Ac3);
    assert_eq!(ac3_inserts, completed);
}
