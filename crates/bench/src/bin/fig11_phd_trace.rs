//! Figure 11: running `P_HD` at cells <5> and <6> vs. time for offered
//! load 300, `R_vo = 1.0`, high user mobility, AC3 (the same run as
//! Fig. 10).
//!
//! Expected shape (paper §5.2.2): `P_HD` spikes above the 0.01 target near
//! the cold start (no quadruplets yet, `T_est = T_start = 1 s`), then
//! settles below it as history accumulates, `T_est` adapts, and the
//! averaging effect kicks in; each upward step coincides with a `T_est`
//! increment in Fig. 10.

use qres_bench::{finish, header, ExpOptions};
use qres_sim::{run_scenario, Scenario, SchemeKind};

fn main() {
    let opts = ExpOptions::from_args();
    let duration = opts.duration(2_000.0, 300.0);
    let scenario = Scenario::paper_baseline()
        .scheme(SchemeKind::Ac3)
        .offered_load(300.0)
        .voice_ratio(1.0)
        .high_mobility()
        .duration_secs(duration)
        .trace_cells(&[4, 5])
        .seed(opts.seed);
    let result = run_scenario(&scenario);

    for cell in [4u32, 5] {
        let traces = &result.traces[&cell];
        header(
            &opts,
            &format!(
                "Fig. 11 cell <{}>: running P_HD trace ({} hand-off attempts)",
                cell + 1,
                traces.p_hd.len()
            ),
        );
        print!("{}", traces.p_hd.to_csv());
    }
    if !opts.csv_only {
        println!(
            "\nfinal per-cell P_HD: cell<5> = {:.4}, cell<6> = {:.4} (target 0.01)",
            result.cells[4].p_hd, result.cells[5].p_hd
        );
    }
    finish(&opts);
}
