//! One-call scenario execution and parameter sweeps.

use crate::engine::Engine;
use crate::metrics::RunResult;
use crate::parallel::par_map;
use crate::scenario::Scenario;

/// Runs a scenario to completion.
pub fn run_scenario(scenario: &Scenario) -> RunResult {
    Engine::new(scenario.clone()).run()
}

/// One point of an offered-load sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The swept offered load `L`.
    pub offered_load: f64,
    /// The run's results.
    pub result: RunResult,
}

/// Runs the scenario at each offered load (the x-axis of Figs. 7–9, 12,
/// 13), keeping every other knob fixed. Each point uses a seed derived
/// from the base seed and the load so points are independent but
/// reproducible.
///
/// With telemetry off, points run in parallel across available cores
/// ([`par_map`]); because every point owns an independent RNG stream
/// derived from its load, the per-point results are bit-identical to
/// [`sweep_offered_load_sequential`]. With telemetry on, the points run in
/// order on the calling thread ([`sweep_offered_load_sequential`]), so
/// they record into its telemetry, one after another: the document is the
/// same on any number of cores.
pub fn sweep_offered_load(base: &Scenario, loads: &[f64]) -> Vec<SweepPoint> {
    if qres_obs::enabled() {
        return sweep_offered_load_sequential(base, loads);
    }
    par_map(loads, |&load| sweep_point(base, load))
}

/// The single-threaded reference implementation of [`sweep_offered_load`].
pub fn sweep_offered_load_sequential(base: &Scenario, loads: &[f64]) -> Vec<SweepPoint> {
    loads.iter().map(|&load| sweep_point(base, load)).collect()
}

fn sweep_point(base: &Scenario, load: f64) -> SweepPoint {
    let scenario = base
        .clone()
        .offered_load(load)
        .seed(base.seed.wrapping_add((load * 1_000.0) as u64));
    let obs_t0 = qres_obs::enabled().then(std::time::Instant::now);
    let result = run_scenario(&scenario);
    if let Some(t0) = obs_t0 {
        qres_obs::metrics::SWEEP_POINT_NS.record_duration(t0.elapsed());
    }
    SweepPoint {
        offered_load: load,
        result,
    }
}

/// The paper's offered-load grid (60 to 300).
pub fn paper_load_grid() -> Vec<f64> {
    vec![
        60.0, 80.0, 100.0, 120.0, 150.0, 180.0, 210.0, 240.0, 270.0, 300.0,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::SchemeKind;

    #[test]
    fn sweep_produces_one_point_per_load() {
        let base = Scenario::paper_baseline()
            .scheme(SchemeKind::Ac1)
            .duration_secs(120.0)
            .seed(1);
        let points = sweep_offered_load(&base, &[60.0, 300.0]);
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].offered_load, 60.0);
        // Heavier load blocks more.
        assert!(points[1].result.p_cb() > points[0].result.p_cb());
    }

    #[test]
    fn paper_grid_covers_60_to_300() {
        let grid = paper_load_grid();
        assert_eq!(*grid.first().unwrap(), 60.0);
        assert_eq!(*grid.last().unwrap(), 300.0);
        assert!(grid.windows(2).all(|w| w[0] < w[1]));
    }

    /// The parallel sweep is an optimization, not a semantic change: every
    /// point matches the sequential reference bit for bit.
    #[test]
    fn parallel_sweep_is_bit_identical_to_sequential() {
        let base = Scenario::paper_baseline()
            .scheme(SchemeKind::Ac3)
            .duration_secs(150.0)
            .seed(42);
        let loads = [60.0, 120.0, 210.0, 300.0];
        let par = sweep_offered_load(&base, &loads);
        let seq = sweep_offered_load_sequential(&base, &loads);
        assert_eq!(par.len(), seq.len());
        for (p, s) in par.iter().zip(&seq) {
            assert_eq!(p.offered_load, s.offered_load);
            assert_eq!(p.result.system_cb.trials(), s.result.system_cb.trials());
            assert_eq!(p.result.system_cb.hits(), s.result.system_cb.hits());
            assert_eq!(p.result.system_hd.trials(), s.result.system_hd.trials());
            assert_eq!(p.result.system_hd.hits(), s.result.system_hd.hits());
            assert_eq!(p.result.n_calc_mean, s.result.n_calc_mean);
            assert_eq!(p.result.events_dispatched, s.result.events_dispatched);
            assert_eq!(p.result.avg_br(), s.result.avg_br());
            assert_eq!(p.result.avg_bu(), s.result.avg_bu());
            for (pc, sc) in p.result.cells.iter().zip(&s.result.cells) {
                assert_eq!(pc.b_r_final, sc.b_r_final);
                assert_eq!(pc.b_u_final, sc.b_u_final);
                assert_eq!(pc.t_est_secs, sc.t_est_secs);
            }
        }
    }

    /// Pins the exact outputs of the ring (AC1/AC2/AC3) and of the hex
    /// grid the metro scenario uses: any change to the reservation core,
    /// the workload streams or the signaling accounting that moves a
    /// single admission, drop, `N_calc` bit or backbone message fails here.
    #[test]
    fn outputs_are_pinned_on_ring_and_hex_grid() {
        // (trials, hits) of P_CB and P_HD, N_calc mean bits, events
        // dispatched, and signaling (messages, hops, bytes).
        type Pinned = ((u64, u64), (u64, u64), u64, u64, (u64, u64, u64));
        let observed = |r: &RunResult| -> Pinned {
            (
                (r.system_cb.trials(), r.system_cb.hits()),
                (r.system_hd.trials(), r.system_hd.hits()),
                r.n_calc_mean.to_bits(),
                r.events_dispatched,
                (r.signaling.messages, r.signaling.hops, r.signaling.bytes),
            )
        };
        let ring: [(SchemeKind, Pinned); 3] = [
            (
                SchemeKind::Ac1,
                (
                    (1478, 43),
                    (1806, 5),
                    0x3ff0000000000000,
                    3806,
                    (5912, 5912, 94592),
                ),
            ),
            (
                SchemeKind::Ac2,
                (
                    (1478, 79),
                    (1797, 3),
                    0x4008000000000000,
                    3798,
                    (23648, 23648, 378368),
                ),
            ),
            (
                SchemeKind::Ac3,
                (
                    (1478, 76),
                    (1799, 4),
                    0x3ff06c14c8eb8fc6,
                    3800,
                    (6146, 6146, 98336),
                ),
            ),
        ];
        for (scheme, pinned) in ring {
            let r = run_scenario(
                &Scenario::paper_baseline()
                    .scheme(scheme)
                    .offered_load(150.0)
                    .duration_secs(120.0)
                    .seed(77),
            );
            assert_eq!(observed(&r), pinned, "{scheme:?} ring");
        }
        let mut hex = Scenario::paper_baseline()
            .hex(4, 5)
            .scheme(SchemeKind::Ac3)
            .offered_load(120.0)
            .duration_secs(120.0)
            .seed(21);
        hex.turn_probability = 0.15;
        assert_eq!(
            observed(&run_scenario(&hex)),
            (
                (2340, 0),
                (1782, 0),
                0x3ff0000000000000,
                5453,
                (20120, 20120, 321920)
            ),
            "AC3 hex grid"
        );
    }

    #[test]
    fn run_scenario_matches_engine() {
        let s = Scenario::paper_baseline().duration_secs(60.0).seed(3);
        let a = run_scenario(&s);
        let b = Engine::new(s).run();
        assert_eq!(a.system_cb, b.system_cb);
    }
}
