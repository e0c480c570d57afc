//! Table 3: per-cell status when **all mobiles travel one direction**
//! (cell 1 → cell 10) over a **disconnected** linear road, offered load
//! 300, `R_vo = 1.0`, high mobility — AC1 vs. AC3.
//!
//! Expected shape (paper §5.2.3): cell 1 has no incoming hand-offs, so its
//! `P_HD = 0`; under AC1 it also admits everything (`P_CB = 0`), flooding
//! cell 2 and especially cell 3 (`P_CB` near 1, `P_HD` above target), with
//! the starved/greedy pattern repeating down the road. AC3 blocks some
//! requests in cell 1 because it cares about cell 2's feasibility, keeping
//! every cell's `P_HD` bounded.

use qres_bench::{finish, header, ExpOptions};
use qres_sim::report::cell_status_table;
use qres_sim::{run_scenario, Scenario, SchemeKind};

fn main() {
    let opts = ExpOptions::from_args();
    let duration = opts.duration(20_000.0, 600.0);
    for (label, scheme) in [("AC1", SchemeKind::Ac1), ("AC3", SchemeKind::Ac3)] {
        let scenario = Scenario::paper_baseline()
            .one_directional()
            .scheme(scheme)
            .offered_load(300.0)
            .voice_ratio(1.0)
            .high_mobility()
            .duration_secs(duration)
            .seed(opts.seed);
        let result = run_scenario(&scenario);
        header(
            &opts,
            &format!("Table 3 {label}: one-directional, disconnected borders, L = 300"),
        );
        print!("{}", cell_status_table(&result));
        if !opts.csv_only {
            println!(
                "cell<1>: P_CB = {:.3}, P_HD = {:.3} (no upstream cell)\n",
                result.cells[0].p_cb, result.cells[0].p_hd
            );
        }
    }
    finish(&opts);
}
