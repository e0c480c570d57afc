//! The six benchmark workloads.
//!
//! Every workload is an open-loop Poisson arrival process in simulated
//! time, executed single-threaded as fast as the host allows. One
//! *repetition* simulates `rep_secs` from a cold start; a run repeats it
//! with seeds derived from `--seed` (see [`rep_seed`]), so every
//! repetition is a different but reproducible input.

use qres_sim::{Scenario, SchemeKind, TimeVaryingConfig};

/// One named benchmark workload.
pub struct Workload {
    /// The name `--workload` takes.
    pub name: &'static str,
    /// Why the benchmark carries this workload (one line).
    pub why: &'static str,
    /// Simulated seconds of one repetition.
    pub rep_secs: f64,
    /// Repetitions a run always makes; `p_hd`/`p_cb` pool exactly these,
    /// so they depend on the seed only, never on host speed.
    pub qos_reps: usize,
    /// Run with `qres_obs` at `Info` level (all subsystems at defaults).
    pub obs: bool,
    /// Output digest of repetition 0 at seed 1.
    pub golden: u64,
    /// Simulated seconds of the pinned check every invocation runs.
    pub check_secs: f64,
    /// Output digest of the pinned check (seed 1, `check_secs`).
    pub check_golden: u64,
    base: fn() -> Scenario,
}

fn ring(scheme: SchemeKind, load: f64) -> Scenario {
    Scenario::paper_baseline().scheme(scheme).offered_load(load)
}

/// All workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "ring_ac3",
        why: "paper ring, AC3, L=150: the headline scheme in steady state; admission tests (Eq.-4 B_r) take over half the wall time",
        rep_secs: 2_000.0,
        qos_reps: 6,
        obs: false,
        golden: 0x04a7_458e_5341_2a42,
        check_secs: 400.0,
        check_golden: 0x32b4_ca11_6037_aa08,
        base: || ring(SchemeKind::Ac3, 150.0),
    },
    Workload {
        name: "ring_ac2_overload",
        why: "AC2 at L=300: N_calc=3, 16 messages per admission, most requests blocked; the neighbor path",
        rep_secs: 1_000.0,
        qos_reps: 6,
        obs: false,
        golden: 0xfd5e_8eb1_2077_84d4,
        check_secs: 200.0,
        check_golden: 0xf1a9_e0aa_e379_483e,
        base: || ring(SchemeKind::Ac2, 300.0),
    },
    Workload {
        name: "ring_static",
        why: "static guard band: never computes B_r, so it bypasses reservation and exercises the event loop",
        rep_secs: 40_000.0,
        qos_reps: 6,
        obs: false,
        golden: 0xccfe_b00d_4136_435e,
        check_secs: 10_000.0,
        check_golden: 0xde25_a73a_aa4a_2eee,
        base: || ring(SchemeKind::Static { guard_bus: 10 }, 150.0),
    },
    Workload {
        name: "metro_ac3",
        why: "1024-cell hex grid, six neighbors, turns: the largest working set and the costliest set-up",
        rep_secs: 55.0,
        qos_reps: 1,
        obs: false,
        golden: 0xaed1_a167_a2e5_dcc1,
        check_secs: 20.0,
        check_golden: 0x52a1_fc8f_0ab2_7bfa,
        base: || Scenario::metro().offered_load(300.0),
    },
    Workload {
        name: "ring_ac3_obs",
        why: "ring_ac3 with Info-level telemetry: the telemetry cost, which ring_ac3 bypasses",
        rep_secs: 1_500.0,
        qos_reps: 6,
        obs: true,
        golden: 0x24f1_2f05_b887_d9d1,
        check_secs: 400.0,
        check_golden: 0x32b4_ca11_6037_aa08,
        base: || ring(SchemeKind::Ac3, 150.0),
    },
    Workload {
        name: "tv_morning_ac1",
        why: "Fig. 14 schedule 0-9 h, AC1: finite T_int window pruning, hourly rate switches, retries",
        rep_secs: 32_400.0,
        qos_reps: 3,
        obs: false,
        golden: 0xadae_9631_8fc8_4a88,
        check_secs: 21_600.0,
        check_golden: 0xc329_f96f_36e1_5521,
        base: || {
            let mut tv = TimeVaryingConfig::paper_like();
            tv.days = 1;
            ring(SchemeKind::Ac1, 100.0).time_varying(tv)
        },
    },
];

impl Workload {
    /// The workload's scenario, simulating `secs` under `seed`.
    pub fn scenario(&self, seed: u64, secs: f64) -> Scenario {
        let mut s = (self.base)().seed(seed);
        s.duration_secs = secs;
        s
    }

    /// The `N_calc` mean the scheme fixes exactly, when it fixes one:
    /// static computes no `B_r`, AC1 only its own, AC2 its own plus every
    /// neighbor's (3 on the ring).
    pub fn expected_n_calc(&self) -> Option<f64> {
        let s = (self.base)();
        match s.scheme {
            SchemeKind::Static { .. } => Some(0.0),
            SchemeKind::Ac1 => Some(1.0),
            SchemeKind::Ac2 if s.hex_grid.is_none() && s.ring => Some(3.0),
            _ => None,
        }
    }

    /// Whether the scheme is one of the paper's predictive ones, which
    /// promise `P_HD <= P_HD,target`.
    pub fn predictive(&self) -> bool {
        matches!(
            (self.base)().scheme,
            SchemeKind::Ac1 | SchemeKind::Ac2 | SchemeKind::Ac3
        )
    }
}

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The seed of repetition `k` of a run with `seed`: repetition 0 uses the
/// seed itself, later ones a SplitMix64 mix of it.
pub fn rep_seed(seed: u64, k: usize) -> u64 {
    if k == 0 {
        return seed;
    }
    let mut z = seed.wrapping_add((k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
