//! JSON round-trip guarantees for the CLI's interchange formats.

use qres::sim::{run_scenario, Scenario, SchemeKind, TimeVaryingConfig, WiredConfig};
use qres_des::StreamRng;
use qres_json::Value;

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

/// Runs the `qres` binary with `args` after the subcommand (its words
/// split on spaces, as in `obs diff`), on a valid scenario file; returns
/// the exit code and stderr.
fn qres_on_valid_file(subcommand: &str, args: &[&str]) -> (Option<i32>, String) {
    let path = std::env::temp_dir().join(format!(
        "qres_cli_{}_{}_{}.json",
        std::process::id(),
        subcommand.replace(' ', "-"),
        args.join("_").replace(['/', ':', '.'], "-")
    ));
    std::fs::write(&path, qres_json::to_string(&Scenario::paper_baseline())).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_qres"))
        .args(subcommand.split(' '))
        .arg(&path)
        .args(args)
        .output()
        .unwrap();
    std::fs::remove_file(&path).unwrap();
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A swept load the scenario rules reject fails validation up front, with
/// exit 1 and the `field = value: rule` message — never a panic in the
/// engine (exit 101).
#[test]
fn invalid_swept_loads_are_rejected_before_the_sweep() {
    for (subcommand, extra) in [
        ("sweep", &[][..]),
        ("serve", &["--addr", "127.0.0.1:0"][..]),
    ] {
        for (load, value) in [
            ("0", "0.0"),
            ("-5", "-5.0"),
            ("nan", "NaN"),
            ("150,0", "0.0"),
        ] {
            let mut args = vec!["--loads", load];
            args.extend_from_slice(extra);
            let (code, stderr) = qres_on_valid_file(subcommand, &args);
            assert_eq!(code, Some(1), "{subcommand} --loads {load}: {stderr}");
            let rule = format!("offered_load = {value}: must be positive");
            assert!(
                stderr.contains(&rule),
                "{subcommand} --loads {load}: {stderr}"
            );
        }
    }
}

/// Every subcommand rejects a flag it does not take — a deleted one or a
/// typo — with exit 2, naming it; so are a bad flag value, a missing or
/// extra file argument, an unknown `obs` view and a removed subcommand.
#[test]
fn unknown_flags_and_bad_values_exit_2() {
    let cases: [(&str, &[&str], &str); 14] = [
        ("run", &["--obs-push", "127.0.0.1:1"], "`--obs-push`"),
        ("run", &["--obs", "--obs-sampel", "4"], "`--obs-sampel`"),
        ("sweep", &["--slo-sample", "30"], "`--slo-sample`"),
        ("serve", &["--no-watchdog"], "`--no-watchdog`"),
        ("run", &["--obs-sample", "0"], "--obs-sample expects"),
        ("run", &["--linger-secs", "x"], "--linger-secs expects"),
        (
            "obs diff",
            &["b.json", "--fial-on", "counters"],
            "`--fial-on`",
        ),
        ("obs diff", &[], "missing <b.json>"),
        (
            "obs diff",
            &["b.json", "--fail-on"],
            "--fail-on requires a value",
        ),
        ("obs alerts", &["--monotnic"], "`--monotnic`"),
        ("obs calib", &["extra"], "`extra`"),
        ("obs frobnicate", &[], "unknown view `frobnicate`"),
        ("obsfold", &[], "unknown subcommand `obsfold`"),
        ("obsdiff", &["b.json"], "unknown subcommand `obsdiff`"),
    ];
    for (subcommand, args, named) in cases {
        let (code, stderr) = qres_on_valid_file(subcommand, args);
        assert_eq!(code, Some(2), "{subcommand} {args:?}: {stderr}");
        assert!(stderr.contains(named), "{subcommand} {args:?}: {stderr}");
    }
}

/// Mutated template documents — a field of the wrong type, `null`, a
/// negative, zero or huge number, a missing field — parse to an error or
/// validate to a `Result`, and never panic. (Seeded loop standing in for a
/// fuzzer.)
#[test]
fn mutated_scenario_json_never_panics() {
    use qres_json::ToJson;
    let base = Scenario::paper_baseline();
    let templates = [
        base.clone(),
        Scenario::metro(),
        base.clone().time_varying(TimeVaryingConfig::paper_like()),
        base.clone().wired(WiredConfig::Tree {
            branching: 3,
            access_bus: 100,
            trunk_bus: 500,
        }),
        base.clone().wired(WiredConfig::Star {
            access_bus: 100,
            trunk_bus: 1_000,
        }),
        base.clone().scheme(SchemeKind::Ns {
            window_secs: 30.0,
            mean_sojourn_secs: 36.0,
        }),
        base.clone()
            .scheme(SchemeKind::Static { guard_bus: 10 })
            .trace_cells(&[4, 5]),
        base.hex(4, 5).route_aware(),
    ];
    let mut rng = StreamRng::seed_from_u64(0x5CE7_0001);
    for case in 0..3_000 {
        let mut doc = templates[case % templates.len()].to_json();
        for _ in 0..rng.gen_range(1usize..4) {
            mutate(&mut doc, &mut rng);
        }
        let text = doc.to_compact_string();
        let outcome = std::panic::catch_unwind(|| {
            qres_json::from_str::<Scenario>(&text).map(|scenario| scenario.validate())
        });
        assert!(outcome.is_ok(), "case {case} panicked on {text}");
    }
}

/// Walks a random path into `doc` and replaces the node it stops at with
/// a value of another type or an extreme number — or, on the way down,
/// drops an object field.
fn mutate(doc: &mut Value, rng: &mut StreamRng) {
    let mut node = doc;
    loop {
        let children = match node {
            Value::Object(fields) => fields.len(),
            Value::Array(items) => items.len(),
            _ => 0,
        };
        if children == 0 || rng.gen_bool(0.25) {
            break;
        }
        let i = rng.gen_index(children);
        node = match node {
            Value::Object(fields) if rng.gen_bool(0.1) => {
                fields.remove(i);
                return;
            }
            Value::Object(fields) => &mut fields[i].1,
            Value::Array(items) => &mut items[i],
            _ => unreachable!("only containers have children"),
        };
    }
    *node = match rng.gen_range(0u32..11) {
        0 => Value::Null,
        1 => Value::Str("x".into()),
        2 => Value::Bool(true),
        3 => Value::Array(Vec::new()),
        4 => Value::Object(Vec::new()),
        5 => Value::Int(-1),
        6 => Value::Float(-0.5),
        7 => Value::Int(0),
        8 => Value::Float(0.0),
        9 => Value::UInt(u64::MAX),
        _ => Value::Float(1e300),
    };
}
