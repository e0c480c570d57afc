//! # qres-bench — experiment regenerators and micro-benchmarks
//!
//! One binary per figure/table of the paper's evaluation (Section 5); see
//! DESIGN.md §5 for the experiment index and EXPERIMENTS.md for recorded
//! outputs. Each binary prints the paper's rows/series as an aligned text
//! table plus CSV, and accepts:
//!
//! * `--quick` — a shortened run for smoke-testing (minutes → seconds);
//! * `--seed <n>` — override the base seed;
//! * `--csv` — print CSV only (for piping into plotting tools);
//! * `--obs` — enable telemetry and write `obs.json` (the end-of-run
//!   telemetry document) into the working directory.
//!
//! The `benches/` directory holds Criterion micro-benchmarks of the
//! algorithmic building blocks (HOE cache ops, Eq. 4 queries, `B_r`
//! computation, admission tests, DES queue ops, end-to-end step rate),
//! including `obs_overhead`, which bounds the disabled-telemetry cost.

#![warn(missing_docs)]

use std::env;
use std::path::Path;

use qres_obs::OBS_JSON_PATH;

const USAGE: &str = "options: [--quick] [--seed <n>] [--csv] [--obs]";

/// Common CLI options of the experiment binaries.
#[derive(Debug, Clone)]
pub struct ExpOptions {
    /// Shorten runs for smoke tests.
    pub quick: bool,
    /// Base RNG seed.
    pub seed: u64,
    /// Emit CSV only.
    pub csv_only: bool,
    /// Telemetry enabled (`--obs`).
    pub obs: bool,
}

impl ExpOptions {
    /// Parses options from `std::env::args`. Unknown flags abort with a
    /// usage message. `--obs` switches telemetry on; [`finish`] writes
    /// [`OBS_JSON_PATH`] at the end.
    pub fn from_args() -> Self {
        let mut opts = ExpOptions {
            quick: false,
            seed: 1,
            csv_only: false,
            obs: false,
        };
        let mut args = env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => opts.quick = true,
                "--csv" => opts.csv_only = true,
                "--obs" => opts.obs = true,
                "--seed" => {
                    let v = args
                        .next()
                        .unwrap_or_else(|| die("--seed requires a value"));
                    opts.seed = v
                        .parse()
                        .unwrap_or_else(|_| die("--seed must be an integer"));
                }
                "--help" | "-h" => die(USAGE),
                other => die(&format!("unknown option `{other}`; {USAGE}")),
            }
        }
        if opts.obs {
            qres_obs::set_level(qres_obs::Level::Info);
        }
        opts
    }

    /// Scales a duration: full length normally, `quick_secs` under
    /// `--quick`.
    pub fn duration(&self, full_secs: f64, quick_secs: f64) -> f64 {
        if self.quick {
            quick_secs
        } else {
            full_secs
        }
    }

    /// Picks a load grid: the full paper grid normally, a 3-point grid
    /// under `--quick`.
    pub fn load_grid(&self) -> Vec<f64> {
        if self.quick {
            vec![60.0, 150.0, 300.0]
        } else {
            qres_sim::runner::paper_load_grid()
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

/// Prints a section header unless in CSV-only mode.
pub fn header(opts: &ExpOptions, title: &str) {
    if !opts.csv_only {
        println!("\n=== {title} ===\n");
    }
}

/// Prints a rendered table (text + CSV, or CSV only), then [`finish`]es.
pub fn emit(opts: &ExpOptions, table: &qres_sim::report::SeriesTable) {
    if opts.csv_only {
        print!("{}", table.to_csv());
    } else {
        print!("{}", table.render());
        println!();
        print!("{}", table.to_csv());
    }
    finish(opts);
}

/// Under `--obs`, writes [`OBS_JSON_PATH`] ([`qres_obs::write_obs_json`]).
/// Every experiment binary calls it after its last run; the last call wins.
pub fn finish(opts: &ExpOptions) {
    if !opts.obs {
        return;
    }
    if let Err(e) = qres_obs::write_obs_json(Path::new(OBS_JSON_PATH)) {
        eprintln!("warning: cannot write {OBS_JSON_PATH}: {e}");
    } else if !opts.csv_only {
        println!("\n[obs] {OBS_JSON_PATH}");
    }
}
