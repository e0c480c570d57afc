//! Telemetry cost, end to end and in the calibration store.
//!
//! The end-to-end rows run the same AC3 scenario (L = 150, 100 s) with
//! telemetry disabled (the default: every instrumentation site reduces
//! to one thread-local read and a branch), enabled with
//! the flight recorder off, and enabled with it taping every admission
//! decision. They measure those three costs side by side and assert
//! nothing: no row is held to a bound, and the disabled row's cost
//! against a build without instrumentation is not measured here
//! (`qres-perf`'s `ring_ac3` and `ring_ac3_obs` workloads compare
//! telemetry off and on with alternating runs).
//!
//! The two enabled cases additionally report the p99 of the hot-path
//! timing histograms populated during the run (`qres_admission_test_ns`,
//! `qres_br_compute_ns`) as extra `BENCH {...}` lines, in the same format
//! the harness emits. The admission p99 is reported under
//! `flight_p99/admission_off_ns` (recorder off) and
//! `flight_p99/admission_on_ns` (recorder on), so the flight recorder's
//! admission tail-latency cost reads directly off one run.
//!
//! `calib_flush` times the Eq.-4 calibration store alone, shaped like the
//! AC3 ring at L = 150: per admission, two hand-offs scored (each walks
//! about 6 open stamps), then 2.5 evaluations of 19 nonzero forecasts and
//! two zero-count groups each,
//! staged the way `neighbor_contribution` stages them and published
//! through one reused `qres_obs::Staging` buffer. After timing it asserts
//! that every forecast is scored or pending.
//!
//! One process's `calib_flush` reading is not a comparison: it lands in
//! one of two modes per process (near 2.3k or near 3.5k ns per admission
//! on the same build, 28 runs), so one run per side cannot resolve a
//! difference below about 30 %. Compare two builds by the medians of many
//! processes, alternating builds.

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
            qres_obs::reset_metrics();
            qres_obs::flight::reset_flight();
        });
    }
    group.finish();
}

/// The `calib_flush` ring: cells, connections per cell (all arrived
/// from the cell below, beside `PARKED` ones that started there and
/// forecast zero), the nonzero forecasts per evaluation (the oldest
/// connections, those closest to handing off) and the hand-offs per
/// admission, as on the AC3 ring at L = 150.
const RING: u32 = 10;
const CONNS: usize = 80;
const PARKED: usize = 10;
const NONZERO: usize = 19;
const HANDOFFS: usize = 2;
/// The forecast window: a lane is evaluated once per lap of the ring
/// (0.5 s), so it holds about 6 open stamps for a hand-off to walk.
const T_EST: f64 = 3.0;

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
            // An admission in cell `k`: first the oldest connections of
            // the cell below hand into `k` and new ones arrive there;
            // then both neighbors are evaluated toward `k`, and every
            // other admission also `k` toward the cell above (an AC3
            // neighbor check): 2.5 evaluations of 19 nonzero forecasts.
            let now = admission as f64 * 0.05;
            let k = (admission % u64::from(RING)) as u32;
            let (below, above) = ((k + RING - 1) % RING, (k + 1) % RING);
            let conns = &mut live[below as usize];
            let prev = Some((below + RING - 1) % RING);
            for (conn, entered) in conns.drain(..HANDOFFS) {
                qres_obs::observe_attempt(conn, below, k, now, entered, prev, None);
            }
            conns.extend((next_id..next_id + HANDOFFS as u64).map(|id| (id, now)));
            next_id += HANDOFFS as u64;
            let evaluations = [(below, k), (above, k), (k, above)];
            let n_evals = if admission.is_multiple_of(2) { 3 } else { 2 };
            for &(n, target) in &evaluations[..n_evals] {
                let prev = (n + RING - 1) % RING;
                staging.forecasts.evaluation(n, target, now, now + T_EST);
                staging.forecasts.group(Some(prev), CONNS, NONZERO);
                staging.forecasts.group(None, PARKED, 0);
                // The oldest connections: ids rise with arrival, so these
                // are in ascending id.
                let oldest = live[n as usize].iter().take(NONZERO);
                staging
                    .forecasts
                    .nonzero(oldest.map(|&(conn, _)| (conn, 0.3, prev)));
            }
            admission += 1;
            staging.publish(now, None);
        })
    });
    let s = qres_obs::calib_summary();
    if s.predictions > 0 {
        println!(
            "calib_flush: {} forecasts, {:.1}% zero, {} scored, {} hits, {} pending",
            s.predictions,
            100.0 * s.zero_forecasts as f64 / s.predictions as f64,
            s.scored,
            s.hits,
            s.pending
        );
    }
    assert_eq!(
        s.predictions,
        s.scored + s.pending,
        "every forecast is scored or still pending"
    );
    qres_obs::reset_calib();
    group.finish();
}

criterion_group!(benches, bench_obs_overhead, bench_calib_flush);
criterion_main!(benches);
