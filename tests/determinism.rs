//! Reproducibility guarantees across the full stack.

use qres::sim::runner::SweepPoint;
use qres::sim::{
    run_scenario, sweep_offered_load, sweep_offered_load_sequential, RunResult, Scenario,
    SchemeKind, TimeVaryingConfig,
};
use qres_json::Value;

/// Asserts that two runs agree on every paper metric, bit for bit.
fn assert_same_outcomes(a: &RunResult, b: &RunResult, label: &str) {
    assert_eq!(a.system_cb, b.system_cb, "{label}");
    assert_eq!(a.system_hd, b.system_hd, "{label}");
    assert_eq!(a.events_dispatched, b.events_dispatched, "{label}");
    assert_eq!(a.n_calc_mean, b.n_calc_mean, "{label}");
    assert_eq!(a.signaling, b.signaling, "{label}");
    for (x, y) in a.cells.iter().zip(&b.cells) {
        assert_eq!(x.p_cb, y.p_cb, "{label}");
        assert_eq!(x.p_hd, y.p_hd, "{label}");
        assert_eq!(x.b_r_final, y.b_r_final, "{label}");
        assert_eq!(x.b_u_final, y.b_u_final, "{label}");
        assert_eq!(x.t_est_secs, y.t_est_secs, "{label}");
    }
}

/// Bit-identical results from the same seed, including traces.
#[test]
fn identical_seeds_identical_runs() {
    let s = Scenario::paper_baseline()
        .scheme(SchemeKind::Ac3)
        .offered_load(250.0)
        .duration_secs(1_000.0)
        .trace_cells(&[4])
        .seed(77);
    let a = run_scenario(&s);
    let b = run_scenario(&s);
    assert_eq!(a.system_cb, b.system_cb);
    assert_eq!(a.system_hd, b.system_hd);
    assert_eq!(a.events_dispatched, b.events_dispatched);
    assert_eq!(a.n_calc_mean, b.n_calc_mean);
    assert_eq!(a.signaling, b.signaling);
    assert_eq!(a.traces[&4].b_r.points(), b.traces[&4].b_r.points());
    assert_eq!(a.traces[&4].t_est.points(), b.traces[&4].t_est.points());
    for (ca, cb) in a.cells.iter().zip(&b.cells) {
        assert_eq!(ca.p_cb, cb.p_cb);
        assert_eq!(ca.p_hd, cb.p_hd);
        assert_eq!(ca.b_r_avg, cb.b_r_avg);
        assert_eq!(ca.b_u_avg, cb.b_u_avg);
    }
}

/// Different seeds genuinely change the realization.
#[test]
fn different_seeds_differ() {
    let base = Scenario::paper_baseline()
        .offered_load(150.0)
        .duration_secs(600.0);
    let a = run_scenario(&base.clone().seed(1));
    let b = run_scenario(&base.seed(2));
    assert_ne!(a.system_cb.trials(), b.system_cb.trials());
}

/// Common random numbers: the workload consumed is identical across
/// schemes under one seed, so arrival counts match exactly even though
/// admission outcomes differ.
#[test]
fn workload_is_scheme_independent() {
    let base = Scenario::paper_baseline()
        .offered_load(250.0)
        .duration_secs(1_000.0)
        .seed(9);
    let results: Vec<_> = [
        SchemeKind::Static { guard_bus: 10 },
        SchemeKind::Ac1,
        SchemeKind::Ac2,
        SchemeKind::Ac3,
    ]
    .into_iter()
    .map(|scheme| run_scenario(&base.clone().scheme(scheme)))
    .collect();
    let trials = results[0].system_cb.trials();
    assert!(trials > 1_000);
    for r in &results[1..] {
        assert_eq!(r.system_cb.trials(), trials, "arrival streams diverged");
    }
    // Outcomes DO differ (the schemes are not no-ops).
    assert_ne!(results[0].system_cb.hits(), results[3].system_cb.hits());
}

/// Telemetry is strictly passive: switching it on changes no simulation
/// outcome. Every metric of the paper comes out bit-identical with the
/// recorder on and off.
#[test]
fn recorder_does_not_perturb_outcomes() {
    let s = Scenario::paper_baseline()
        .scheme(SchemeKind::Ac3)
        .offered_load(250.0)
        .duration_secs(600.0)
        .seed(77);
    qres::obs::set_level(qres::obs::Level::Off);
    let off = run_scenario(&s);
    qres::obs::set_level(qres::obs::Level::Info);
    let on = run_scenario(&s);
    qres::obs::set_level(qres::obs::Level::Off);
    assert!(
        qres::obs::metrics::ADMISSION_TEST_NS.count() > 0,
        "telemetry on should time admission tests"
    );
    assert_same_outcomes(&off, &on, "recorder on vs off");
}

/// A forced violation (target pinned far below the realized `P_HD`)
/// writes the same flight captures — the same file names in the same
/// order, byte for byte — on every rerun: the capture trigger runs on the
/// sim clock, never on wall time.
#[test]
fn forced_violation_alert_timeline_is_deterministic() {
    let mut s = Scenario::paper_baseline()
        .scheme(SchemeKind::Ac3)
        .offered_load(250.0)
        .duration_secs(600.0)
        .seed(42);
    // Far below what this load realizes: the P_HD burn must fire.
    s.p_hd_target = 1e-4;
    let root = std::env::temp_dir().join(format!("qres_forced_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let captures = |name: &str| {
        let dir = root.join(name);
        std::fs::create_dir_all(&dir).unwrap();
        qres::obs::install(Default::default());
        qres::obs::set_level(qres::obs::Level::Info);
        qres::obs::set_flight_capture_dir(Some(dir));
        let _ = run_scenario(&s);
        let Some(Value::Array(paths)) = qres::obs::flight_json().get("captures").cloned() else {
            panic!("flight section without captures");
        };
        (paths.iter())
            .map(|p| {
                let Value::Str(p) = p else {
                    panic!("capture path {p:?}")
                };
                let path = std::path::Path::new(p);
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                (name, std::fs::read_to_string(path).unwrap())
            })
            .collect::<Vec<_>>()
    };
    let first = captures("a");
    assert!(!first.is_empty(), "forced violation must capture");
    assert_eq!(captures("b"), first, "rerun must write the same captures");
    std::fs::remove_dir_all(&root).unwrap();
}

/// The decision-provenance flight recorder is strictly passive: with
/// telemetry on, taping every admission decision (inputs, per-neighbor
/// terms, checks, verdict) changes no simulation outcome.
#[test]
fn flight_recorder_does_not_perturb_outcomes() {
    let s = Scenario::paper_baseline()
        .scheme(SchemeKind::Ac3)
        .offered_load(250.0)
        .duration_secs(600.0)
        .seed(77);
    let run = |flight: bool| {
        qres::obs::install(Default::default());
        qres::obs::set_flight_enabled(flight);
        qres::obs::set_level(qres::obs::Level::Info);
        let r = run_scenario(&s);
        let taped = matches!(
            qres::obs::flight_json().get("len"),
            Some(Value::UInt(n)) if *n > 0
        );
        assert_eq!(
            taped,
            flight,
            "recorder-{} run must {} decision records",
            if flight { "on" } else { "off" },
            if flight { "tape" } else { "tape no" }
        );
        r
    };
    let off = run(false);
    let on = run(true);
    assert_same_outcomes(&off, &on, "recorder on vs off");
}

/// The flight tape itself is deterministic: the full record window —
/// inputs, per-neighbor terms with their Eq.-4 internals, checks,
/// verdicts — is byte-identical between reruns, and replaying it through
/// the live admission predicates reproduces every verdict.
#[test]
fn replayed_flight_window_is_deterministic() {
    let s = Scenario::paper_baseline()
        .scheme(SchemeKind::Ac3)
        .offered_load(250.0)
        .duration_secs(600.0)
        .seed(42);
    let tape = || {
        qres::obs::install(Default::default());
        qres::obs::set_level(qres::obs::Level::Info);
        let _ = run_scenario(&s);
        qres::obs::flight_json()
    };
    let first = tape();
    assert_eq!(
        first.to_compact_string(),
        tape().to_compact_string(),
        "rerun must tape the same decisions"
    );
    let summary = qres::replay::replay_flight_doc(&first).expect("tape must replay");
    assert!(summary.records > 0, "tape must hold decision records");
    assert_eq!(
        summary.reserve_exact, summary.records,
        "every reserve must re-derive bit-exactly"
    );
    assert!(
        summary.is_clean(),
        "replay mismatches: {:?}",
        summary.mismatches
    );
    assert!(
        qres::obs::records_from_doc(&first)
            .expect("tape parses")
            .iter()
            .flat_map(|r| &r.terms)
            .all(|t| t.p_h_sum.is_some() && t.conns.is_some()),
        "every term carries its Eq.-4 detail"
    );
}

/// Determinism holds in the time-varying mode too (retry coin flips are a
/// seeded stream).
#[test]
fn time_varying_deterministic() {
    let mut tv = TimeVaryingConfig::paper_like();
    tv.days = 1;
    let mut s = Scenario::paper_baseline()
        .scheme(SchemeKind::Ac1)
        .time_varying(tv)
        .seed(13);
    s.duration_secs = 6.0 * 3_600.0;
    let a = run_scenario(&s);
    let b = run_scenario(&s);
    assert_eq!(a.hourly_requests, b.hourly_requests);
    assert_eq!(a.system_cb, b.system_cb);
    assert_eq!(a.system_hd, b.system_hd);
}

/// FNV-1a over `bytes`: a stable digest for pinning serialized output.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The Eq.-4 calibration store's output is pinned: a fixed-seed AC3 ring
/// and a route-aware run with turns, at `Info` level and swept at the
/// final sim-time, score exactly these counters and serialize to exactly
/// this `calib_json()`. Neither the paper metrics nor the benchmark
/// goldens see the calibration tracker, so a store that mis-scores (or
/// drops) forecasts would fail here and nowhere else.
#[test]
fn calibration_output_is_pinned() {
    let ring = Scenario::paper_baseline()
        .scheme(SchemeKind::Ac3)
        .offered_load(150.0)
        .duration_secs(300.0)
        .seed(5);
    let mut route = ring.clone().route_aware().seed(6);
    route.turn_probability = 0.2;
    // (predictions, zero forecasts, pending, scored, hits) and the digest
    // of the compact `calib_json()`.
    let pins: [(&Scenario, [u64; 5], u64); 2] = [
        (
            &ring,
            [658820, 521957, 7150, 651670, 16929],
            0x2a6e_9047_ee35_4611,
        ),
        (
            &route,
            [322470, 223607, 5169, 317301, 23348],
            0x302a_a2f5_0f9b_1389,
        ),
    ];
    for (s, counts, digest) in pins {
        qres::obs::install(Default::default());
        qres::obs::set_level(qres::obs::Level::Info);
        let _ = run_scenario(s);
        qres::obs::set_level(qres::obs::Level::Off);
        qres::obs::sweep_expired(qres::obs::sim_time());
        let c = qres::obs::calib_summary();
        let got = [c.predictions, c.zero_forecasts, c.pending, c.scored, c.hits];
        let json = qres::obs::calib_json().to_compact_string();
        assert_eq!(got, counts, "route_aware = {}", s.route_aware);
        assert_eq!(
            fnv1a(json.as_bytes()),
            digest,
            "route_aware = {} digest {:#x}",
            s.route_aware,
            fnv1a(json.as_bytes())
        );
    }
}

/// The whole telemetry document is pinned, not only its calibration
/// part: on a fresh handle, a fixed-seed AC3 ring at L = 150 and an AC2
/// ring at L = 300, swept at the final sim-time as `write_obs_json` does,
/// leave exactly these `snapshot_json()` sections (`counters`, `gauges`,
/// `qos` with `calib`, `flight` with its records; everything but the
/// wall-clock `histograms`).
#[test]
fn telemetry_snapshot_is_pinned() {
    let ac3 = Scenario::paper_baseline()
        .scheme(SchemeKind::Ac3)
        .offered_load(150.0)
        .duration_secs(300.0)
        .seed(5);
    let ac2 = ac3.clone().scheme(SchemeKind::Ac2).offered_load(300.0);
    let pins: [(&Scenario, u64); 2] =
        [(&ac3, 0xa34b_e5a8_abc9_0b4e), (&ac2, 0xa194_842e_d92e_48dd)];
    for (s, digest) in pins {
        let json = std::thread::scope(|t| {
            t.spawn(|| {
                qres::obs::set_level(qres::obs::Level::Info);
                let _ = run_scenario(s);
                qres::obs::set_level(qres::obs::Level::Off);
                qres::obs::sweep_expired(qres::obs::sim_time());
                let Value::Object(sections) = qres::obs::snapshot_json() else {
                    panic!("snapshot is not an object");
                };
                let kept = sections.into_iter().filter(|(k, _)| k != "histograms");
                Value::Object(kept.collect()).to_compact_string()
            })
            .join()
            .unwrap()
        });
        assert_eq!(
            fnv1a(json.as_bytes()),
            digest,
            "{:?} digest {:#x}",
            s.scheme,
            fnv1a(json.as_bytes())
        );
    }
}

/// `snapshot_json()` without its wall-clock `histograms`, after this
/// thread ran `s` with telemetry on.
fn telemetry_of(s: &Scenario) -> String {
    qres::obs::set_level(qres::obs::Level::Info);
    let _ = run_scenario(s);
    let Value::Object(sections) = qres::obs::snapshot_json() else {
        panic!("snapshot is not an object");
    };
    let kept = sections.into_iter().filter(|(k, _)| k != "histograms");
    Value::Object(kept.collect()).to_compact_string()
}

/// Each thread owns its telemetry: two telemetry-on runs on two threads
/// at the same time each leave exactly the snapshot — counters, gauges,
/// QoS windows, calibration, flight tape — the same run leaves alone.
#[test]
fn concurrent_telemetry_runs_match_solo_runs() {
    let base = Scenario::paper_baseline()
        .scheme(SchemeKind::Ac3)
        .offered_load(200.0)
        .duration_secs(300.0);
    let runs = [base.clone().seed(3), base.seed(4)];
    let solo = runs
        .each_ref()
        .map(|s| std::thread::scope(|t| t.spawn(|| telemetry_of(s)).join().unwrap()));
    assert_ne!(solo[0], solo[1], "the seeds must realize different runs");
    let start = std::sync::Barrier::new(runs.len());
    let together = std::thread::scope(|t| {
        let runs = runs.each_ref().map(|s| {
            t.spawn(|| {
                start.wait();
                telemetry_of(s)
            })
        });
        runs.map(|h| h.join().unwrap())
    });
    assert_eq!(together, solo);
}

/// The parallel sweep's workers record into the caller's handle: with
/// telemetry on it leaves the same counters and gauges as the
/// sequential sweep, every one of them.
#[test]
fn parallel_sweep_telemetry_matches_sequential() {
    let base = Scenario::paper_baseline()
        .scheme(SchemeKind::Ac3)
        .duration_secs(300.0)
        .seed(8);
    let registry = |sweep: fn(&Scenario, &[f64]) -> Vec<SweepPoint>| {
        std::thread::scope(|t| {
            t.spawn(|| {
                qres::obs::set_level(qres::obs::Level::Info);
                assert_eq!(sweep(&base, &[100.0, 200.0, 300.0]).len(), 3);
                let doc = qres::obs::snapshot_json();
                let Some(Value::Object(counters)) = doc.get("counters") else {
                    panic!("snapshot has no counters");
                };
                (counters.clone(), doc.get("gauges").cloned())
            })
            .join()
            .unwrap()
        })
    };
    let sequential = registry(sweep_offered_load_sequential);
    assert_eq!(registry(sweep_offered_load), sequential);
}
