//! Telemetry overhead bound: the same end-to-end scenario with telemetry
//! disabled (the default — every instrumentation site reduces to one
//! relaxed atomic load and a branch), enabled with the flight recorder
//! off, and enabled with the flight recorder taping every admission
//! decision.
//!
//! The acceptance criterion is on the *disabled* row: it must stay within
//! 2% of the pre-observability end-to-end baseline
//! (`end_to_end_100s/ac3_L150`).
//!
//! The two enabled cases additionally report the p99 of the hot-path
//! timing histograms populated during the run (`qres_admission_test_ns`,
//! `qres_br_compute_ns`) as extra `BENCH {...}` lines, in the same format
//! the harness emits. The admission p99 is reported under
//! `flight_p99/admission_off_ns` (recorder off) and
//! `flight_p99/admission_on_ns` (recorder on), so the flight recorder's
//! admission tail-latency cost reads directly off one run.
//!
//! `calib_flush` times the Eq.-4 calibration store alone: one
//! admission's worth of evaluations on a 10-cell ring (two neighbors of
//! 80 connections each, evaluated toward the admitting cell, 11 of the 80
//! forecasts nonzero), staged in one reused `qres_obs::Staging` buffer and
//! published, plus the hand-offs that score them.

use std::collections::VecDeque;

use qres_microbench::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use qres_sim::{run_scenario, Scenario, SchemeKind};

/// Prints a histogram's p99 as a scrape-compatible `BENCH` line under the
/// given id.
fn report_hist_p99(id: &str, snapshot: &qres_obs::HistogramSnapshot) {
    if let Some(p99) = snapshot.quantile(0.99) {
        println!("BENCH {{\"id\":\"{id}\",\"ns_per_iter\":{p99}.0}}");
    }
}

fn bench_obs_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_overhead");
    group.sample_size(10);
    for mode in ["disabled", "flight_off", "enabled"] {
        group.bench_with_input(BenchmarkId::from_parameter(mode), &mode, |b, &mode| {
            match mode {
                "disabled" => qres_obs::set_level(qres_obs::Level::Off),
                "flight_off" => {
                    qres_obs::set_flight_enabled(false);
                    qres_obs::set_level(qres_obs::Level::Info);
                }
                _ => {
                    qres_obs::set_flight_enabled(true);
                    qres_obs::set_level(qres_obs::Level::Info);
                }
            }
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let r = run_scenario(
                    &Scenario::paper_baseline()
                        .scheme(SchemeKind::Ac3)
                        .offered_load(150.0)
                        .duration_secs(100.0)
                        .seed(seed),
                );
                black_box(r.events_dispatched)
            });
            if mode != "disabled" {
                // The histograms just absorbed every admission test and
                // B_r computation of the enabled iterations: report their
                // tails before the registry is wiped. The admission p99
                // doubles as the flight recorder's cost probe.
                let admission = qres_obs::metrics::ADMISSION_TEST_NS.snapshot();
                report_hist_p99("obs_hist_p99/qres_admission_test_ns", &admission);
                report_hist_p99(
                    "obs_hist_p99/qres_br_compute_ns",
                    &qres_obs::metrics::BR_COMPUTE_NS.snapshot(),
                );
                let flight_id = if mode == "flight_off" {
                    "flight_p99/admission_off_ns"
                } else {
                    "flight_p99/admission_on_ns"
                };
                report_hist_p99(flight_id, &admission);
            }
            // Leave the process clean for the next case.
            qres_obs::set_level(qres_obs::Level::Off);
            qres_obs::set_flight_enabled(true);
            qres_obs::reset();
            qres_obs::reset_metrics();
            qres_obs::flight::reset_flight();
        });
    }
    group.finish();
}

/// Cells on the `calib_flush` ring, connections per cell, how many of
/// them an evaluation forecasts nonzero (about the AC3 ring's share), and
/// how many of a cell's connections hand off once per lap of admissions
/// around the ring.
const RING: u32 = 10;
const CONNS: usize = 80;
const NONZERO: usize = 11;
const CHURN: usize = 11;

fn bench_calib_flush(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_overhead");
    qres_obs::reset_calib();
    // Live `(connection, entered)` per cell, oldest first; fresh ids are
    // always the largest.
    let mut next_id = 0u64;
    let mut live: Vec<VecDeque<(u64, f64)>> = (0..RING)
        .map(|_| {
            let ids = (next_id..next_id + CONNS as u64)
                .map(|id| (id, 0.0))
                .collect();
            next_id += CONNS as u64;
            ids
        })
        .collect();
    let mut admission = 0u64;
    let mut staging = qres_obs::Staging::default();
    group.bench_function("calib_flush", |b| {
        b.iter(|| {
            // An admission in cell `k` evaluates both ring neighbors
            // toward `k`: one evaluation each, with its nonzero forecasts.
            // Once per lap, before its evaluation toward the next cell, a
            // neighbor's oldest connections hand into it and new ones
            // arrive.
            let now = admission as f64 * 0.05;
            let k = (admission % u64::from(RING)) as u32;
            admission += 1;
            let below = (k + RING - 1) % RING;
            for n in [below, (k + 1) % RING] {
                let conns = &mut live[n as usize];
                let prev = Some((n + RING - 1) % RING);
                if n == below {
                    for (conn, entered) in conns.drain(..CHURN) {
                        qres_obs::observe_attempt(conn, n, k, now, entered, prev, None);
                    }
                    conns.extend((next_id..next_id + CHURN as u64).map(|id| (id, now)));
                    next_id += CHURN as u64;
                }
                staging.forecasts.evaluation(n, k, now, now + 30.0);
                let nonzero = conns
                    .iter()
                    .rev()
                    .take(NONZERO)
                    .map(|&(conn, _)| (conn, 0.3));
                staging.forecasts.group(prev, CONNS, nonzero);
            }
            staging.publish(now, None);
        })
    });
    let s = qres_obs::calib_summary();
    if s.predictions > 0 {
        println!(
            "calib_flush: {} forecasts, {:.1}% zero, {} scored, {} hits",
            s.predictions,
            100.0 * s.zero_forecasts as f64 / s.predictions as f64,
            s.scored,
            s.hits
        );
    }
    qres_obs::reset_calib();
    group.finish();
}

criterion_group!(benches, bench_obs_overhead, bench_calib_flush);
criterion_main!(benches);
