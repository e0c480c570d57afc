//! End-to-end QoS-goal tests: the paper's headline claims, verified across
//! the full stack (DES → workload → reservation system → metrics).
//!
//! Durations are chosen to be long enough for the adaptive window to
//! converge (the paper's own Fig. 11 shows the cold start violating the
//! target before settling) while keeping the suite fast; the experiment
//! binaries run the full 20 000 s versions.

use qres::sim::{run_scenario, Scenario, SchemeKind};

/// AC3 keeps `P_HD` at or below ~the 0.01 target across loads and media
/// mixes (paper Fig. 8). Tolerance 1.5× target absorbs cold-start bias and
/// finite-run noise at these shortened durations.
#[test]
fn ac3_meets_drop_target_across_loads() {
    for &load in &[100.0, 200.0, 300.0] {
        for &r_vo in &[1.0, 0.5] {
            let r = run_scenario(
                &Scenario::paper_baseline()
                    .scheme(SchemeKind::Ac3)
                    .offered_load(load)
                    .voice_ratio(r_vo)
                    .high_mobility()
                    .duration_secs(4_000.0)
                    .seed(100),
            );
            assert!(
                r.p_hd() <= 0.015,
                "AC3 P_HD = {} at L = {load}, R_vo = {r_vo}",
                r.p_hd()
            );
        }
    }
}

/// The live sliding-window `P_HD` estimator (the telemetry plane's `/qos`
/// view) agrees with the end-of-run report: with the window stretched past
/// the run horizon, the windowed counts equal the report's counts exactly,
/// and the report's point estimate sits inside the live Wilson interval.
#[test]
fn live_qos_estimator_matches_end_of_run_report() {
    qres::obs::set_qos_window_secs(1e9);
    qres::obs::set_level(qres::obs::Level::Info);
    let mut s = Scenario::paper_baseline()
        .scheme(SchemeKind::Ac3)
        .offered_load(200.0)
        .high_mobility()
        .duration_secs(3_000.0)
        .seed(110);
    s.num_cells = 30;
    let r = run_scenario(&s);
    let live = qres::obs::qos_snapshot();

    let mut checked = 0usize;
    for cell in &r.cells {
        let snap = live
            .iter()
            .find(|q| q.cell == cell.cell.0)
            .unwrap_or_else(|| panic!("cell {} missing from live snapshot", cell.cell.0));
        assert_eq!(
            snap.hd_trials, cell.handoffs,
            "cell {}: windowed hand-off count",
            cell.cell.0
        );
        assert_eq!(
            snap.hd_hits, cell.drops,
            "cell {}: windowed drop count",
            cell.cell.0
        );
        assert_eq!(
            snap.cb_trials, cell.requests,
            "cell {}: windowed request count",
            cell.cell.0
        );
        assert_eq!(
            snap.cb_hits, cell.blocked,
            "cell {}: windowed block count",
            cell.cell.0
        );
        if cell.handoffs > 0 {
            let (lo, hi) = snap.p_hd_wilson;
            assert!(
                lo <= cell.p_hd && cell.p_hd <= hi,
                "cell {}: report P_HD = {} outside live Wilson interval [{lo}, {hi}]",
                cell.cell.0,
                cell.p_hd
            );
            assert_eq!(snap.p_hd, Some(cell.p_hd));
            checked += 1;
        }
    }
    assert!(
        checked >= 15,
        "only {checked} cells had hand-offs to compare"
    );
}

/// Static reservation tuned for voice (G = 10) fails the target once half
/// the connections are 4-BU video under load (paper Fig. 7 / §5.2.1).
#[test]
fn static_g10_fails_for_video_heavy_traffic() {
    let r = run_scenario(
        &Scenario::paper_baseline()
            .scheme(SchemeKind::Static { guard_bus: 10 })
            .offered_load(250.0)
            .voice_ratio(0.5)
            .high_mobility()
            .duration_secs(6_000.0)
            .seed(101),
    );
    assert!(
        r.p_hd() > 0.01,
        "static G=10 unexpectedly met the target: P_HD = {}",
        r.p_hd()
    );
}

/// ... but over-reserves when under-loaded with pure voice: `P_HD` is an
/// order of magnitude below target (paper §5.2.1, point 3).
#[test]
fn static_g10_overreserves_when_underloaded() {
    let r = run_scenario(
        &Scenario::paper_baseline()
            .scheme(SchemeKind::Static { guard_bus: 10 })
            .offered_load(60.0)
            .voice_ratio(1.0)
            .high_mobility()
            .duration_secs(6_000.0)
            .seed(102),
    );
    assert!(
        r.p_hd() < 0.001,
        "expected heavy over-reservation, got P_HD = {}",
        r.p_hd()
    );
}

/// Low mobility needs less reservation than high mobility for the same
/// load (paper Fig. 9 discussion: fewer hand-offs expected).
#[test]
fn high_mobility_reserves_more_than_low() {
    let base = Scenario::paper_baseline()
        .scheme(SchemeKind::Ac3)
        .offered_load(200.0)
        .duration_secs(4_000.0)
        .seed(103);
    let high = run_scenario(&base.clone().high_mobility());
    let low = run_scenario(&base.low_mobility());
    assert!(
        high.avg_br() > low.avg_br(),
        "high-mobility B_r = {} <= low-mobility B_r = {}",
        high.avg_br(),
        low.avg_br()
    );
}

/// Video-heavy traffic reserves more than pure voice (paper Fig. 9:
/// "the more video connections exist, the more bandwidth is needed").
#[test]
fn video_reserves_more_than_voice() {
    let base = Scenario::paper_baseline()
        .scheme(SchemeKind::Ac3)
        .offered_load(200.0)
        .high_mobility()
        .duration_secs(4_000.0)
        .seed(104);
    let voice = run_scenario(&base.clone().voice_ratio(1.0));
    let video = run_scenario(&base.voice_ratio(0.5));
    assert!(
        video.avg_br() > voice.avg_br(),
        "video B_r = {} <= voice B_r = {}",
        video.avg_br(),
        voice.avg_br()
    );
}

/// Reservation targets track the offered load monotonically until
/// saturation (paper Fig. 9).
#[test]
fn reservation_grows_with_load() {
    let base = Scenario::paper_baseline()
        .scheme(SchemeKind::Ac3)
        .high_mobility()
        .duration_secs(3_000.0)
        .seed(105);
    let mut last = -1.0;
    for &load in &[60.0, 120.0, 240.0] {
        let r = run_scenario(&base.clone().offered_load(load));
        assert!(
            r.avg_br() > last,
            "B_r not increasing at L = {load}: {} <= {last}",
            r.avg_br()
        );
        last = r.avg_br();
    }
}

/// In the one-directional overload experiment (paper Table 3), AC1 lets
/// downstream cells blow past the drop target while AC3 keeps every cell
/// bounded, at the price of blocking some connections in cell 1.
#[test]
fn one_directional_overload_ac1_vs_ac3() {
    let base = Scenario::paper_baseline()
        .one_directional()
        .offered_load(300.0)
        .voice_ratio(1.0)
        .high_mobility()
        .duration_secs(8_000.0)
        .seed(106);
    let ac1 = run_scenario(&base.clone().scheme(SchemeKind::Ac1));
    let ac3 = run_scenario(&base.scheme(SchemeKind::Ac3));
    // Cell 1 (index 0): no upstream, so no hand-offs, and AC1 admits all.
    assert_eq!(ac1.cells[0].p_hd, 0.0);
    assert!(ac1.cells[0].p_cb < 0.05, "AC1 cell 1 blocks almost nothing");
    // AC1's worst downstream cell violates the target.
    let ac1_worst = ac1.cells.iter().map(|c| c.p_hd).fold(0.0, f64::max);
    assert!(
        ac1_worst > 0.01,
        "expected AC1 to violate somewhere, worst = {ac1_worst}"
    );
    // AC3 blocks in cell 1 (it cares about cell 2) and bounds every cell.
    assert!(
        ac3.cells[0].p_cb > ac1.cells[0].p_cb,
        "AC3 should block more in cell 1"
    );
    let ac3_worst = ac3.cells.iter().map(|c| c.p_hd).fold(0.0, f64::max);
    assert!(
        ac3_worst <= 0.015,
        "AC3 per-cell P_HD should stay bounded, worst = {ac3_worst}"
    );
}

/// AC1 yields the lowest blocking of the three predictive schemes
/// (paper Fig. 12: "AC1 has the smallest P_CB").
#[test]
fn ac1_blocks_least() {
    let base = Scenario::paper_baseline()
        .offered_load(300.0)
        .voice_ratio(1.0)
        .high_mobility()
        .duration_secs(4_000.0)
        .seed(107);
    let ac1 = run_scenario(&base.clone().scheme(SchemeKind::Ac1));
    let ac2 = run_scenario(&base.clone().scheme(SchemeKind::Ac2));
    let ac3 = run_scenario(&base.scheme(SchemeKind::Ac3));
    assert!(ac1.p_cb() <= ac2.p_cb() + 0.01);
    assert!(ac1.p_cb() <= ac3.p_cb() + 0.01);
    // AC2 and AC3 agree closely on both probabilities.
    assert!((ac2.p_cb() - ac3.p_cb()).abs() < 0.05);
}

/// Route-aware reservation (Section 7's ITS/GPS extension) still meets the
/// drop target while reserving no more than the history-only estimator —
/// knowing the destination can only sharpen the prediction.
#[test]
fn route_awareness_meets_target_with_leaner_reservation() {
    let base = Scenario::paper_baseline()
        .scheme(SchemeKind::Ac3)
        .offered_load(250.0)
        .voice_ratio(0.8)
        .high_mobility()
        .duration_secs(6_000.0)
        .seed(109);
    let history_only = run_scenario(&base.clone());
    let routed = run_scenario(&base.route_aware());
    assert!(
        routed.p_hd() <= 0.015,
        "route-aware P_HD = {}",
        routed.p_hd()
    );
    assert!(
        routed.avg_br() <= history_only.avg_br() * 1.1,
        "route-aware B_r = {} vs history-only {}",
        routed.avg_br(),
        history_only.avg_br()
    );
}

/// The adaptive scheme stays robust when the mobility pattern violates the
/// estimator's assumption (mobiles turning around mid-road) — the paper's
/// robustness claim, exercised via the turn-probability extension.
#[test]
fn robust_to_estimator_model_violation() {
    let mut s = Scenario::paper_baseline()
        .scheme(SchemeKind::Ac3)
        .offered_load(200.0)
        .high_mobility()
        .duration_secs(6_000.0)
        .seed(108);
    s.turn_probability = 0.3;
    let r = run_scenario(&s);
    assert!(
        r.p_hd() <= 0.015,
        "P_HD = {} with turning mobiles",
        r.p_hd()
    );
}
