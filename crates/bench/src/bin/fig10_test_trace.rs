//! Figure 10: `T_est` and `B_r` vs. time (0–2000 s) in cells <5> and <6>
//! for offered load 300, `R_vo = 1.0`, high user mobility, AC3.
//!
//! Expected shape (paper §5.2.2): `T_est` moves up and down without
//! settling (each +1 marks a hand-off drop); `B_r` fluctuates between
//! over- and under-reservation, tracking both `T_est` and the changing
//! population of adjacent cells.

use qres_bench::{finish, header, ExpOptions};
use qres_sim::{run_scenario, Scenario, SchemeKind};

fn main() {
    let opts = ExpOptions::from_args();
    let duration = opts.duration(2_000.0, 300.0);
    // Paper cells <5> and <6> are 1-based; ours are 0-based: 4 and 5.
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
                "Fig. 10 cell <{}>: T_est trace ({} points) and B_r trace ({} points)",
                cell + 1,
                traces.t_est.len(),
                traces.b_r.len()
            ),
        );
        print!("{}", traces.t_est.to_csv());
        println!();
        print!("{}", traces.b_r.to_csv());
    }
    if !opts.csv_only {
        println!(
            "\nfinal T_est: cell<5> = {} s, cell<6> = {} s; system P_HD = {:.4}",
            result.cells[4].t_est_secs,
            result.cells[5].t_est_secs,
            result.p_hd()
        );
    }
    finish(&opts);
}
