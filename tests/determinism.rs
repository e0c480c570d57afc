//! Reproducibility guarantees across the full stack.

use qres::sim::runner::SweepPoint;
use qres::sim::{
    run_scenario, sweep_offered_load, sweep_offered_load_sequential, RunResult, Scenario,
    SchemeKind, TimeVaryingConfig,
};
use qres_json::Value;
use std::collections::BTreeMap;

/// Runs `f` on a new thread, so on fresh telemetry, and returns its
/// result; a panic in `f` is re-raised with its payload.
fn on_fresh_thread<R: Send>(f: impl FnOnce() -> R + Send) -> R {
    std::thread::scope(|t| t.spawn(f).join())
        .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}

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
        on_fresh_thread(|| {
            qres::obs::set_level(qres::obs::Level::Info);
            qres::obs::set_flight_capture_dir(Some(dir));
            let _ = run_scenario(&s);
            let Some(Value::Array(paths)) = qres::obs::flight_json().get("captures").cloned()
            else {
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
        })
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
        on_fresh_thread(|| {
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
        })
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
        on_fresh_thread(|| {
            qres::obs::set_level(qres::obs::Level::Info);
            let _ = run_scenario(&s);
            qres::obs::flight_json()
        })
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
/// and a route-aware run with turns, at `Info` level and settled when the
/// run ended, score exactly these counters and serialize to exactly
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
        let (got, json) = on_fresh_thread(|| {
            qres::obs::set_level(qres::obs::Level::Info);
            let _ = run_scenario(s);
            qres::obs::set_level(qres::obs::Level::Off);
            let c = qres::obs::calib_summary();
            let got = [c.predictions, c.zero_forecasts, c.pending, c.scored, c.hits];
            (got, qres::obs::calib_json().to_compact_string())
        });
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
/// part: on a fresh thread, a fixed-seed AC3 ring at L = 150 and an AC2
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
        let json = on_fresh_thread(|| {
            qres::obs::set_level(qres::obs::Level::Info);
            let _ = run_scenario(s);
            qres::obs::set_level(qres::obs::Level::Off);
            snapshot_but_histograms()
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

/// This thread's `snapshot_json()` without its wall-clock `histograms`.
fn snapshot_but_histograms() -> String {
    let Value::Object(sections) = qres::obs::snapshot_json() else {
        panic!("snapshot is not an object");
    };
    let kept = sections.into_iter().filter(|(k, _)| k != "histograms");
    Value::Object(kept.collect()).to_compact_string()
}

/// [`snapshot_but_histograms`] after this thread ran `s` with telemetry
/// on.
fn telemetry_of(s: &Scenario) -> String {
    qres::obs::set_level(qres::obs::Level::Info);
    let _ = run_scenario(s);
    snapshot_but_histograms()
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
    let solo = runs.each_ref().map(|s| on_fresh_thread(|| telemetry_of(s)));
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

/// A telemetry-on sweep writes the sequential sweep's document on any
/// number of cores: every section but the wall-clock `histograms`
/// (counters, gauges, QoS windows, calibration, flight tape and captures)
/// is equal.
#[test]
fn telemetry_on_sweep_writes_the_sequential_document() {
    let base = Scenario::paper_baseline()
        .scheme(SchemeKind::Ac3)
        .duration_secs(300.0)
        .seed(8);
    let document = |sweep: fn(&Scenario, &[f64]) -> Vec<SweepPoint>| {
        on_fresh_thread(|| {
            qres::obs::set_level(qres::obs::Level::Info);
            assert_eq!(sweep(&base, &[100.0, 200.0, 300.0]).len(), 3);
            snapshot_but_histograms()
        })
    };
    assert_eq!(
        document(sweep_offered_load),
        document(sweep_offered_load_sequential)
    );
}

/// The counts and the float sums of a `calib_json()` document, by name.
#[derive(Default)]
struct CalibTotals {
    counts: BTreeMap<String, u64>,
    sums: BTreeMap<String, f64>,
}

impl CalibTotals {
    /// `predictions`, `zero_forecasts`, `pending` and `hits`, then per
    /// diagram (`global`, then each `per_prev` key) the scored count and
    /// every bin's `n` and hits, and the Brier sum and every bin's `sum_p`
    /// (read back as `brier · n` and `mean_p · n`).
    fn of(calib: &Value) -> Self {
        let uint = |v: &Value, key: &str| match v.get(key) {
            Some(Value::UInt(n)) => *n,
            other => panic!("{key}: {other:?}"),
        };
        // A mean over nothing is null: its sum is 0.
        let float = |v: &Value, key: &str| match v.get(key) {
            Some(Value::Float(x)) => *x,
            _ => 0.0,
        };
        let mut t = CalibTotals::default();
        for key in ["predictions", "zero_forecasts", "pending", "hits"] {
            t.counts.insert(key.into(), uint(calib, key));
        }
        let Some(Value::Object(per_prev)) = calib.get("per_prev") else {
            panic!("no per_prev diagrams");
        };
        let global = ("global".to_string(), calib.get("global").unwrap().clone());
        for (key, diagram) in std::iter::once(global).chain(per_prev.iter().cloned()) {
            let n = uint(&diagram, "n");
            t.counts.insert(format!("{key}.n"), n);
            let brier_sum = float(&diagram, "brier") * n as f64;
            t.sums.insert(format!("{key}.brier_sum"), brier_sum);
            let Some(Value::Array(bins)) = diagram.get("bins") else {
                panic!("{key}: no bins");
            };
            for (b, bin) in bins.iter().enumerate() {
                let n = uint(bin, "n");
                let hits = (float(bin, "hit_rate") * n as f64).round() as u64;
                t.counts.insert(format!("{key}.bins[{b}].n"), n);
                t.counts.insert(format!("{key}.bins[{b}].hits"), hits);
                let sum_p = float(bin, "mean_p") * n as f64;
                t.sums.insert(format!("{key}.bins[{b}].sum_p"), sum_p);
            }
        }
        t
    }

    fn add(&mut self, other: CalibTotals) {
        for (key, n) in other.counts {
            *self.counts.entry(key).or_default() += n;
        }
        for (key, x) in other.sums {
            *self.sums.entry(key).or_default() += x;
        }
    }
}

/// Runs in sequence on one thread score as each does alone: a
/// telemetry-on sweep, whose points restart connection ids and the clock,
/// leaves in `qos.calib` exactly the sums of its points' counts run alone
/// on fresh threads, and sums that agree to 1e-12 relative (they add in
/// another order). Each run settles its forecasts when it ends, so no
/// point scores another's.
#[test]
fn runs_in_sequence_score_as_they_do_alone() {
    let base = Scenario::paper_baseline()
        .scheme(SchemeKind::Ac3)
        .duration_secs(300.0)
        .seed(8);
    let loads = [100.0, 200.0, 300.0];
    let calib_after = |run: &(dyn Fn() + Sync)| {
        on_fresh_thread(|| {
            qres::obs::set_level(qres::obs::Level::Info);
            run();
            CalibTotals::of(&qres::obs::calib_json())
        })
    };
    let swept = calib_after(&|| {
        assert_eq!(sweep_offered_load(&base, &loads).len(), loads.len());
    });
    let mut alone = CalibTotals::default();
    for load in loads {
        let point = base
            .clone()
            .offered_load(load)
            .seed(base.seed + (load * 1_000.0) as u64);
        alone.add(calib_after(&|| {
            let _ = run_scenario(&point);
        }));
    }
    assert_eq!(swept.counts.len(), alone.counts.len());
    for (key, got) in swept.counts {
        assert_eq!(
            got, alone.counts[&key],
            "{key}: swept, and the points alone"
        );
    }
    assert_eq!(swept.sums.len(), alone.sums.len());
    for (key, got) in swept.sums {
        let want = alone.sums[&key];
        assert!(
            (got - want).abs() <= 1e-12 * want.abs(),
            "{key}: swept {got}, points alone {want}"
        );
    }
}
