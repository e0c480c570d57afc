//! Related-work comparison (paper Section 6 / follow-up reference \[4\]):
//! the adaptive AC3 scheme vs. the reconstructed Naghshineh–Schwartz
//! baseline, across load, under the two conditions Choi & Shin criticize
//! NS for:
//!
//! 1. **Non-exponential sojourns** — on the highway, cell-crossing times
//!    are nearly deterministic (1 km at 80–120 km/h ⇒ 30–45 s), so NS's
//!    memoryless residence model misjudges hand-off timing however `τ` is
//!    tuned.
//! 2. **No direction prediction** — NS splits each neighbor's load equally
//!    over its exits; on the one-directional road (Table 3 setting) half
//!    of that reservation protects against hand-offs that never come while
//!    the real influx is under-weighted.
//!
//! Expected shape: NS cannot sit at the efficiency point the target
//! defines. With a well-tuned `τ` it over-reserves — `P_HD ≈ 0` (far below
//! the 0.01 budget) at a visible `P_CB` penalty, blocking connections even
//! at light loads where AC3 blocks none. Mis-tuning `τ` (×4) merely trades
//! along the same static curve. AC3 spends the drop budget deliberately
//! (`P_HD` just below target) and blocks least, with no tuning —
//! the quantitative form of the paper's "our scheme is more realistic /
//! adaptive" argument.

use qres_bench::{emit, header, ExpOptions};
use qres_sim::report::SeriesTable;
use qres_sim::{sweep_offered_load, Scenario, SchemeKind};

fn main() {
    let opts = ExpOptions::from_args();
    let duration = opts.duration(15_000.0, 600.0);
    let loads = opts.load_grid();
    let schemes = [
        ("AC3", SchemeKind::Ac3),
        (
            "NS tuned",
            SchemeKind::Ns {
                window_secs: 30.0,
                mean_sojourn_secs: 36.0,
            },
        ),
        (
            "NS mis-tuned",
            SchemeKind::Ns {
                window_secs: 30.0,
                mean_sojourn_secs: 144.0,
            },
        ),
    ];

    for (title, one_way) in [
        ("random directions (ring)", false),
        ("one-directional road (Table 3 setting)", true),
    ] {
        header(
            &opts,
            &format!("NS comparison — {title}, R_vo = 1.0, high mobility"),
        );
        let mut columns = Vec::new();
        for (name, _) in &schemes {
            columns.push(format!("P_CB:{name}"));
            columns.push(format!("P_HD:{name}"));
        }
        let mut table = SeriesTable::new("load", columns);
        let mut sweeps = Vec::new();
        for &(_, scheme) in &schemes {
            let mut base = Scenario::paper_baseline()
                .scheme(scheme)
                .voice_ratio(1.0)
                .high_mobility()
                .duration_secs(duration)
                .seed(opts.seed);
            if one_way {
                base = base.one_directional();
            }
            sweeps.push(sweep_offered_load(&base, &loads));
        }
        for (i, &load) in loads.iter().enumerate() {
            let mut row = Vec::new();
            for sweep in &sweeps {
                row.push(Some(sweep[i].result.p_cb()));
                row.push(Some(sweep[i].result.p_hd()));
            }
            table.push_row(load, row);
        }
        emit(&opts, &table);
    }
}
