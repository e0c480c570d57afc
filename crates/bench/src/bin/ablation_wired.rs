//! Ablation (paper Section 7 / Section 2): joint wireless + **wired-link**
//! bandwidth reservation. The paper confines its evaluation to the
//! wireless link and defers "bandwidth reservation in the wired links
//! along the routes of hand-off connections" to future work; this
//! experiment runs that extension.
//!
//! Sweep: the MSC→gateway trunk capacity of a star backbone (Fig. 1a),
//! from starved to ample, under AC3 at fixed radio load. Expected shape:
//! below the knee the trunk — not the radio link — governs both blocking
//! and hand-off behaviour; above it results converge to the radio-only
//! baseline. Also reports crossover re-routing efficiency on a two-level
//! tree backbone (hand-offs between sibling BSs keep their trunk links).

use qres_bench::{emit, finish, header, ExpOptions};
use qres_sim::report::SeriesTable;
use qres_sim::scenario::WiredConfig;
use qres_sim::{run_scenario, Engine, Scenario, SchemeKind};

fn main() {
    let opts = ExpOptions::from_args();
    let duration = opts.duration(10_000.0, 600.0);
    let base = Scenario::paper_baseline()
        .scheme(SchemeKind::Ac3)
        .offered_load(150.0)
        .voice_ratio(1.0)
        .high_mobility()
        .duration_secs(duration)
        .seed(opts.seed);

    header(
        &opts,
        "Wired ablation — star backbone, trunk capacity sweep (L = 150)",
    );
    let radio_only = run_scenario(&base);
    let mut table = SeriesTable::new(
        "trunk_bus",
        vec!["P_CB".into(), "P_HD".into(), "avg_B_u".into()],
    );
    let trunks = if opts.quick {
        vec![200u32, 600, 1_200]
    } else {
        vec![100, 200, 300, 400, 500, 600, 800, 1_000, 1_200]
    };
    for &trunk in &trunks {
        let r = run_scenario(&base.clone().wired(WiredConfig::Star {
            access_bus: 100,
            trunk_bus: trunk,
        }));
        table.push_row(
            f64::from(trunk),
            vec![Some(r.p_cb()), Some(r.p_hd()), Some(r.avg_bu())],
        );
    }
    emit(&opts, &table);
    if !opts.csv_only {
        println!(
            "\nradio-only baseline: P_CB = {:.4}, P_HD = {:.4}, avg B_u = {:.2}",
            radio_only.p_cb(),
            radio_only.p_hd(),
            radio_only.avg_bu()
        );
    }

    header(
        &opts,
        "Wired ablation — crossover re-routing on a tree backbone",
    );
    for branching in [2usize, 5] {
        let mut engine = Engine::new(base.clone().wired(WiredConfig::Tree {
            branching,
            access_bus: 100,
            trunk_bus: 2_000,
        }));
        let r = engine.run_keeping_state();
        let (changed, kept) = engine.wired().expect("wired configured").reroute_stats();
        let total = changed + kept;
        if !opts.csv_only {
            println!(
                "branching {branching}: {} hand-offs re-routed; {:.1}% of path links kept by \
                 crossover (changed {changed}, kept {kept}); P_HD = {:.4}",
                r.system_hd.trials(),
                if total > 0 {
                    100.0 * kept as f64 / total as f64
                } else {
                    0.0
                },
                r.p_hd()
            );
        }
    }
    finish(&opts);
}
