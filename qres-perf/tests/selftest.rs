//! Self-test of the benchmark: the traced driver reproduces `Engine::run`
//! exactly, the output checks catch a wrong digest, the binary rejects bad
//! input, and every name matches `BENCHMARK.json`.
//!
//! Run with `cargo test --release --manifest-path qres-perf/Cargo.toml`;
//! without `--release` the binary refuses to measure, which
//! `obs_workload_traced_in_its_own_process` then checks instead.

use std::process::Command;

use qres_json::Value;
use qres_perf::check::{check_run, digest};
use qres_perf::report::{END_TO_END, PER_LAYER};
use qres_perf::traced::{probe, SpanCost, TracedEngine};
use qres_perf::workloads::WORKLOADS;
use qres_sim::Engine;

const BIN: &str = env!("CARGO_BIN_EXE_qres-perf");

/// Every workload at its pinned-check length: the untraced run hits its
/// golden digest, and the traced driver, timing every event or every
/// seventh, returns the same `RunResult` and end-of-run system state.
/// (`ring_ac3_obs` shares `ring_ac3`'s scenario; telemetry is covered in
/// its own process below.)
#[test]
fn traced_driver_reproduces_engine_run() {
    for w in WORKLOADS.iter().filter(|w| !w.obs) {
        let scenario = w.scenario(1, w.check_secs);
        let mut engine = Engine::new(scenario.clone());
        let expected = engine.run_keeping_state();
        let expected_probe = probe(engine.system_mut());
        assert_eq!(digest(&expected), w.check_golden, "{} golden", w.name);
        for every in [1, 7] {
            let run = TracedEngine::new(scenario.clone(), SpanCost::default())
                .expect("workload scenarios are replayable")
                .run(every);
            assert_eq!(
                qres_json::to_string(&run.result),
                qres_json::to_string(&expected),
                "{} every {every}",
                w.name
            );
            assert_eq!(run.probe, expected_probe, "{} every {every}", w.name);
        }
    }
}

#[test]
fn tampered_golden_fails_the_operation() {
    let w = &WORKLOADS[0];
    let scenario = w.scenario(1, w.check_secs);
    let target = scenario.p_hd_target;
    let r = Engine::new(scenario).run();
    assert!(check_run(w, &r, target, Some(w.check_golden)).is_empty());
    assert_eq!(check_run(w, &r, target, Some(w.check_golden ^ 1)).len(), 1);
}

#[test]
fn traced_driver_refuses_unreplayed_features() {
    let scenario = WORKLOADS[0].scenario(1, 10.0).route_aware();
    assert!(TracedEngine::new(scenario, SpanCost::default()).is_err());
}

#[test]
fn bad_arguments_exit_2_with_usage() {
    for args in [
        &["--workload", "no_such_workload"][..],
        &["--workload", "ring_ac3", "--seed", "1.5"],
        &["--workload", "ring_ac3", "--trace", "2"],
        &["--workload", "ring_ac3", "--bogus"],
        &["--seed", "1"],
    ] {
        let out = Command::new(BIN).args(args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage:"),
            "{args:?}"
        );
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

/// Telemetry is process-global, so the telemetry workload runs in a child
/// process: traced, checked against `Engine::run`, every metric printed.
#[test]
fn obs_workload_traced_in_its_own_process() {
    let out = Command::new(BIN)
        .args([
            "--workload",
            "ring_ac3_obs",
            "--seconds",
            "1",
            "--trace",
            "1",
        ])
        .output()
        .expect("binary runs");
    if cfg!(debug_assertions) {
        assert_eq!(out.status.code(), Some(2));
        assert!(String::from_utf8_lossy(&out.stderr).contains("debug assertions"));
        return;
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    let last = Value::parse(stdout.lines().last().expect("result line")).expect("JSON");
    assert_eq!(last.get("correct"), Some(&Value::Bool(true)));
    let metrics = last.get("metrics").expect("metrics");
    for (name, unit) in PER_LAYER {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(m.get("unit"), Some(&Value::Str(unit.into())));
    }
}

fn names_and_units(doc: &Value, key: &str) -> Vec<(String, String)> {
    let Some(Value::Array(items)) = doc.get(key) else {
        panic!("BENCHMARK.json has no {key} list");
    };
    items
        .iter()
        .map(|m| match (m.get("name"), m.get("unit")) {
            (Some(Value::Str(n)), Some(Value::Str(u))) => (n.clone(), u.clone()),
            _ => panic!("{key} entry without name and unit"),
        })
        .collect()
}

#[test]
fn names_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Value::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("JSON");
    let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names_and_units(&doc, "end_to_end"), owned(&END_TO_END));
    assert_eq!(names_and_units(&doc, "per_layer"), owned(&PER_LAYER));
    let Some(Value::Array(workloads)) = doc.get("workloads") else {
        panic!("BENCHMARK.json has no workloads list");
    };
    let listed: Vec<(&Value, &Value)> = workloads
        .iter()
        .map(|w| (w.get("name").expect("name"), w.get("why").expect("why")))
        .collect();
    assert_eq!(listed.len(), WORKLOADS.len());
    for ((name, why), w) in listed.into_iter().zip(&WORKLOADS) {
        assert_eq!(name, &Value::Str(w.name.into()));
        assert_eq!(why, &Value::Str(w.why.into()));
    }
}
