//! JSON round-trip guarantees for the CLI's interchange formats.

use qres::sim::{run_scenario, Scenario, SchemeKind, TimeVaryingConfig, WiredConfig};

#[test]
fn scenario_json_roundtrip() {
    let original = Scenario::paper_baseline()
        .scheme(SchemeKind::Static { guard_bus: 10 })
        .offered_load(180.0)
        .voice_ratio(0.8)
        .low_mobility()
        .trace_cells(&[4, 5])
        .seed(33);
    let json = qres_json::to_string_pretty(&original);
    let parsed: Scenario = qres_json::from_str(&json).unwrap();
    parsed.validate().unwrap();
    assert_eq!(parsed.offered_load, original.offered_load);
    assert_eq!(parsed.scheme, original.scheme);
    assert_eq!(parsed.trace_cells, original.trace_cells);
    assert_eq!(parsed.speed_range_kmh, original.speed_range_kmh);
}

#[test]
fn scenario_roundtrip_preserves_simulation_results() {
    let original = Scenario::paper_baseline()
        .offered_load(150.0)
        .duration_secs(200.0)
        .seed(5);
    let parsed: Scenario = qres_json::from_str(&qres_json::to_string(&original)).unwrap();
    let a = run_scenario(&original);
    let b = run_scenario(&parsed);
    assert_eq!(a.system_cb, b.system_cb);
    assert_eq!(a.system_hd, b.system_hd);
    assert_eq!(a.events_dispatched, b.events_dispatched);
}

#[test]
fn complex_scenarios_roundtrip() {
    for scenario in [
        Scenario::paper_baseline().time_varying(TimeVaryingConfig::paper_like()),
        Scenario::paper_baseline().wired(WiredConfig::Tree {
            branching: 3,
            access_bus: 100,
            trunk_bus: 500,
        }),
        Scenario::paper_baseline().hex(4, 5).route_aware(),
        Scenario::paper_baseline().scheme(SchemeKind::Ns {
            window_secs: 30.0,
            mean_sojourn_secs: 36.0,
        }),
    ] {
        let json = qres_json::to_string(&scenario);
        let parsed: Scenario = qres_json::from_str(&json).unwrap();
        parsed.validate().unwrap();
        assert_eq!(
            qres_json::to_string(&parsed),
            json,
            "round-trip must be lossless"
        );
    }
}

#[test]
fn run_result_serializes_with_traces() {
    let r = run_scenario(
        &Scenario::paper_baseline()
            .offered_load(200.0)
            .duration_secs(150.0)
            .trace_cells(&[4])
            .seed(9),
    );
    let json = qres_json::to_string(&r);
    assert!(json.contains("\"system_cb\""));
    assert!(json.contains("t_est_cell4"));
    // And parses back.
    let parsed: qres::sim::RunResult = qres_json::from_str(&json).unwrap();
    assert_eq!(parsed.p_cb(), r.p_cb());
    assert_eq!(parsed.traces.len(), 1);
}

/// The four out-of-range scenarios of the two tests below (the second feeds
/// them to `qres run`), each with the `field = value` its error must name.
fn invalid_scenarios() -> Vec<(&'static str, Scenario, &'static str)> {
    let base = Scenario::paper_baseline();
    let mut late_warmup = base.clone().duration_secs(100.0);
    late_warmup.warmup_secs = 100.0;
    vec![
        ("voice", base.clone().voice_ratio(1.2), "voice_ratio = 1.2"),
        (
            "nan_load",
            base.clone().offered_load(f64::NAN),
            "offered_load = NaN",
        ),
        (
            "zero_duration",
            base.duration_secs(0.0),
            "duration_secs = 0.0",
        ),
        ("late_warmup", late_warmup, "warmup_secs = 100.0"),
    ]
}

#[test]
fn out_of_range_scenarios_are_rejected_by_name() {
    for (_, scenario, field) in invalid_scenarios() {
        let err = scenario.validate().unwrap_err();
        assert!(err.contains(field), "{field} missing from {err}");
    }
}

/// `qres run` exits 1 with a message on every invalid file, never with a
/// panic (exit 101). JSON has no NaN: the NaN load reaches the file as
/// `null` and fails at parsing instead.
#[test]
fn qres_run_rejects_invalid_scenario_files() {
    for (name, scenario, field) in invalid_scenarios() {
        let path =
            std::env::temp_dir().join(format!("qres_invalid_{}_{name}.json", std::process::id()));
        std::fs::write(&path, qres_json::to_string(&scenario)).unwrap();
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_qres"))
            .arg("run")
            .arg(&path)
            .output()
            .unwrap();
        std::fs::remove_file(&path).unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        let expected = if name == "nan_load" { "parsing" } else { field };
        assert!(stderr.contains(expected), "{name}: {stderr}");
    }
}
