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

/// The out-of-range scenarios of the two tests below (the second feeds
/// them to `qres run`), each with the `field = value` its error must name.
/// The `inf_` rows hold what JSON's `1e400` parses to: an infinite
/// diameter panicked in the road geometry, and the others never finished.
fn invalid_scenarios() -> Vec<(&'static str, Scenario, &'static str)> {
    let base = Scenario::paper_baseline();
    let mut late_warmup = base.clone().duration_secs(100.0);
    late_warmup.warmup_secs = 100.0;
    // One more cell than a `u32` cell id can name.
    let mut too_many_cells = base.clone();
    too_many_cells.num_cells = 1 << 32;
    let mut inf_diameter = base.clone();
    inf_diameter.cell_diameter_km = f64::INFINITY;
    let mut inf_speed = base.clone();
    inf_speed.speed_range_kmh = (80.0, f64::INFINITY);
    let mut inf_retry_wait = TimeVaryingConfig::paper_like();
    inf_retry_wait.retry.wait_secs = f64::INFINITY;
    vec![
        (
            "inf_diameter",
            inf_diameter,
            "cell_diameter_km = inf: must be positive and finite",
        ),
        (
            "inf_load",
            base.clone().offered_load(f64::INFINITY),
            "offered_load = inf",
        ),
        (
            "inf_duration",
            base.clone().duration_secs(f64::INFINITY),
            "duration_secs = inf",
        ),
        ("inf_speed", inf_speed, "speed_range_kmh = (80.0, inf)"),
        (
            "inf_retry_wait",
            base.clone().time_varying(inf_retry_wait),
            "time_varying.retry.wait_secs = inf",
        ),
        ("too_many_cells", too_many_cells, "num_cells = 4294967296"),
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
/// panic (exit 101). JSON has no NaN or infinity: the writer puts `null`
/// in their place, which fails at parsing instead.
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
        let non_finite = name.starts_with("nan_") || name.starts_with("inf_");
        let expected = if non_finite { "parsing" } else { field };
        assert!(stderr.contains(expected), "{name}: {stderr}");
    }
}

/// A literal `1e400` parses to infinity: `qres run` names the field and
/// exits 1 instead of panicking in the road geometry (exit 101).
#[test]
fn qres_run_rejects_an_overflowing_diameter_literal() {
    let text = qres_json::to_string(&Scenario::paper_baseline());
    let field = "\"cell_diameter_km\":1.0";
    assert!(text.contains(field), "{text}");
    let path = std::env::temp_dir().join(format!("qres_1e400_{}.json", std::process::id()));
    std::fs::write(&path, text.replace(field, "\"cell_diameter_km\":1e400")).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_qres"))
        .arg("run")
        .arg(&path)
        .output()
        .unwrap();
    std::fs::remove_file(&path).unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("cell_diameter_km = inf"), "{stderr}");
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
    for (load, value) in [
        ("0", "0.0"),
        ("-5", "-5.0"),
        ("nan", "NaN"),
        ("inf", "inf"),
        ("150,0", "0.0"),
    ] {
        let (code, stderr) = qres_on_valid_file("sweep", &["--loads", load]);
        assert_eq!(code, Some(1), "sweep --loads {load}: {stderr}");
        let rule = format!("offered_load = {value}: must be positive");
        assert!(stderr.contains(&rule), "sweep --loads {load}: {stderr}");
    }
}

/// Every subcommand rejects a flag it does not take — a deleted one or a
/// typo — with exit 2, naming it; so are a bad flag value, a telemetry
/// flag without `--obs`, a missing or extra file argument, an unknown `obs`
/// view and a removed subcommand.
#[test]
fn unknown_flags_and_bad_values_exit_2() {
    let cases: [(&str, &[&str], &str); 28] = [
        ("run", &["--obs-push", "127.0.0.1:1"], "`--obs-push`"),
        ("run", &["--obs", "--obs-sampel", "4"], "`--obs-sampel`"),
        ("sweep", &["--slo-sample", "30"], "`--slo-sample`"),
        ("sweep", &["--no-watchdog"], "`--no-watchdog`"),
        ("run", &["--obs", "--obs-sample", "4"], "`--obs-sample`"),
        ("run", &["--obs", "--slo-burn", "2"], "`--slo-burn`"),
        ("run", &["--no-flight"], "--no-flight requires --obs"),
        ("run", &["--obs", "--slo-target", "0.001"], "`--slo-target`"),
        (
            "sweep",
            &["--obs", "--slo-target", "0.001"],
            "`--slo-target`",
        ),
        ("serve", &["--loads", "150"], "unknown subcommand `serve`"),
        ("run", &["--obs", "--serve", "127.0.0.1:1"], "`--serve`"),
        ("run", &["--obs", "--linger-secs", "5"], "`--linger-secs`"),
        ("sweep", &["--obs", "--slo-burn", "2"], "`--slo-burn`"),
        ("sweep", &["--no-flight"], "--no-flight requires --obs"),
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
        (
            "obs diff",
            &["b.json", "--fail-on", "alerts"],
            "unknown --fail-on clause `alerts`",
        ),
        (
            "obs diff",
            &["b.json", "--fail-on", "p_hd>nan"],
            "bad threshold",
        ),
        (
            "obs diff",
            &["b.json", "--fail-on", "qres_backbone_msgs_total>inf"],
            "bad threshold",
        ),
        (
            "obs diff",
            &["b.json", "--fail-on", "p_hd>-1"],
            "bad threshold",
        ),
        (
            "obs diff",
            &["b.json", "--fail-on", ","],
            "no --fail-on clause",
        ),
        (
            "obs diff",
            &["b.json", "--fail-on", ""],
            "no --fail-on clause",
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

/// `qres run --obs` leaves exactly one file, `obs.json` (no cell of this
/// run burns its `P_HD` budget, so there is no flight capture). Every `qres obs` view reads
/// it, and a same-seed rerun writes the same document apart from the
/// wall-clock `histograms`.
#[test]
fn obs_run_writes_one_document_that_every_view_reads() {
    use std::path::Path;
    let root = std::env::temp_dir().join(format!("qres_obs_artifacts_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    let scenario = root.join("ring.json");
    let ring = Scenario::paper_baseline().duration_secs(120.0);
    std::fs::write(&scenario, qres_json::to_string(&ring)).unwrap();
    let qres = |dir: &Path, args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_qres"))
            .current_dir(dir)
            .args(args)
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "qres {args:?}: {stdout}{stderr}");
        stdout
    };
    let run = |name: &str| {
        let dir = root.join(name);
        std::fs::create_dir(&dir).unwrap();
        qres(&dir, &["run", scenario.to_str().unwrap(), "--obs"]);
        let mut files: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        files.sort();
        assert_eq!(files, ["obs.json"]);
        let doc = Value::parse(&std::fs::read_to_string(dir.join("obs.json")).unwrap()).unwrap();
        (dir, doc)
    };
    let (dir, a) = run("a");
    for view in ["calib", "alerts", "explain"] {
        qres(&dir, &["obs", view, "obs.json"]);
    }
    let replay = qres(&dir, &["obs", "replay", "obs.json"]);
    assert!(replay.contains(" 0 mismatch(es)"), "{replay}");
    let gate = [
        "obs",
        "diff",
        "obs.json",
        "obs.json",
        "--fail-on",
        "counters,qos",
    ];
    qres(&dir, &gate);
    let (_, b) = run("b");
    assert!(a.get("alerts").is_none(), "no alerts section");
    for section in ["counters", "gauges", "qos", "flight"] {
        assert_eq!(a.get(section), b.get(section), "section `{section}`");
    }
    std::fs::remove_dir_all(&root).unwrap();
}
