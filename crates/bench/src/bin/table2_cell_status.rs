//! Table 2: per-cell status (`P_CB`, `P_HD`, `T_est`, `B_r`, `B_u`) at the
//! end of a run with offered load 300, `R_vo = 1.0`, high user mobility,
//! on the 10-cell ring — (a) AC1 vs. (b) AC3.
//!
//! Expected shape (paper §5.2.3): under AC1 the cells polarize — roughly
//! every other cell ends up starved (`P_CB` near 1, over-target `P_HD`)
//! while its neighbor admits freely; under AC3 every cell meets the
//! `P_HD < 0.01` constraint and `P_CB` is balanced across the system.

use qres_bench::{finish, header, ExpOptions};
use qres_sim::report::cell_status_table;
use qres_sim::{run_scenario, Scenario, SchemeKind};

fn main() {
    let opts = ExpOptions::from_args();
    let duration = opts.duration(20_000.0, 600.0);
    for (label, scheme) in [("(a) AC1", SchemeKind::Ac1), ("(b) AC3", SchemeKind::Ac3)] {
        let scenario = Scenario::paper_baseline()
            .scheme(scheme)
            .offered_load(300.0)
            .voice_ratio(1.0)
            .high_mobility()
            .duration_secs(duration)
            .seed(opts.seed);
        let result = run_scenario(&scenario);
        header(
            &opts,
            &format!("Table 2 {label}: L = 300, R_vo = 1.0, high mobility, ring"),
        );
        print!("{}", cell_status_table(&result));
        // Spread indicator: the paper's point is AC1's per-cell imbalance.
        let max_pcb = result.cells.iter().map(|c| c.p_cb).fold(0.0, f64::max);
        let min_pcb = result.cells.iter().map(|c| c.p_cb).fold(1.0, f64::min);
        let max_phd = result.cells.iter().map(|c| c.p_hd).fold(0.0, f64::max);
        if !opts.csv_only {
            println!(
                "P_CB spread: min = {min_pcb:.3}, max = {max_pcb:.3}; worst per-cell P_HD = {max_phd:.4}\n"
            );
        }
    }
    finish(&opts);
}
