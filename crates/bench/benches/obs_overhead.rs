//! Telemetry overhead bound: the same end-to-end scenario with the
//! recorder disabled (the default — every instrumentation site reduces to
//! one relaxed atomic load and a branch), enabled at debug level with the
//! flight recorder off, and enabled with the flight recorder taping every
//! admission decision.
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
                    qres_obs::set_level(qres_obs::Level::Debug);
                }
                _ => {
                    qres_obs::set_flight_enabled(true);
                    qres_obs::set_level(qres_obs::Level::Debug);
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
                let admission = qres_obs::metrics::ADMISSION_TEST_NS.merged_snapshot();
                report_hist_p99("obs_hist_p99/qres_admission_test_ns", &admission);
                report_hist_p99(
                    "obs_hist_p99/qres_br_compute_ns",
                    &qres_obs::metrics::BR_COMPUTE_NS.merged_snapshot(),
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

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
