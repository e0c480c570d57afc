//! # qres-perf — the qres benchmark
//!
//! One invocation runs one named workload ([`workloads::WORKLOADS`]) with
//! one seed, in its own process. It times the public
//! `qres_sim::Engine::new` / `Engine::run` API, rescales the times to a
//! nominal host speed measured by a fixed job ([`reference`]), checks
//! every run's outputs ([`check`]), and prints the end-to-end metrics;
//! with `--trace 1` it
//! instead replays the run through the layer APIs ([`traced`]) and prints
//! the per-layer budget. `README.md` beside this crate lists the metrics,
//! the workloads and the baseline.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod check;
pub mod reference;
pub mod report;
pub mod traced;
pub mod workloads;

/// Median of `values` (`NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// First quartile, median and third quartile of `values`, interpolated
/// the way Python's `statistics.quantiles(values, n=4)` does (exclusive
/// method); a single value is all three.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => (f64::NAN, f64::NAN, f64::NAN),
        1 => (v[0], v[0], v[0]),
        _ => {
            let at = |q: f64| {
                let pos = q * (n + 1) as f64;
                let j = (pos.floor() as usize).clamp(1, n - 1);
                v[j - 1] + (v[j] - v[j - 1]) * (pos - j as f64)
            };
            let mid = if n % 2 == 1 {
                v[n / 2]
            } else {
                (v[n / 2 - 1] + v[n / 2]) / 2.0
            };
            (at(0.25), mid, at(0.75))
        }
    }
}

/// Clears every `qres_obs` subsystem, so a run starts from the state a
/// fresh process has. Leaves the level alone.
pub fn reset_obs() {
    qres_obs::reset();
    qres_obs::reset_metrics();
    qres_obs::reset_qos();
    qres_obs::reset_calib();
    qres_obs::reset_workers();
    qres_obs::reset_tsdb();
    qres_obs::reset_alerts();
    qres_obs::reset_flight();
}

#[cfg(test)]
mod tests {
    use super::quartiles;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }
}
