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
//! * `--obs` — enable telemetry at debug level and write
//!   `obs_snapshot.prom` (Prometheus exposition) and `obs_events.jsonl`
//!   (the structured event stream) into the working directory;
//! * `--obs-sample <n>` — keep only every n-th debug-tier high-frequency
//!   event (`br_compute`, `backbone_send`); the rate is exported as the
//!   `qres_obs_sample_rate` gauge;
//! * `--serve <host:port>` — with `--obs`, expose the live scrape
//!   endpoint (`/metrics`, `/metrics.json`, `/qos`, `/alerts`,
//!   `/explain`, `/healthz`) for the whole experiment, so dashboards can
//!   follow long regenerations point by point
//!   (`qres_sweep_points_{planned,done}_total`).
//!
//! The `benches/` directory holds Criterion micro-benchmarks of the
//! algorithmic building blocks (HOE cache ops, Eq. 4 queries, `B_r`
//! computation, admission tests, DES queue ops, end-to-end step rate),
//! including `obs_overhead`, which bounds the disabled-telemetry cost.

#![warn(missing_docs)]

use std::env;
use std::path::Path;

/// Prometheus snapshot written by `--obs` (working directory).
pub const OBS_PROM_PATH: &str = "obs_snapshot.prom";
/// JSONL event stream written by `--obs` (working directory).
pub const OBS_JSONL_PATH: &str = "obs_events.jsonl";

const USAGE: &str =
    "options: [--quick] [--seed <n>] [--csv] [--obs] [--obs-sample <n>] [--serve <host:port>]";

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
    /// Debug-tier event sampling stride (`--obs-sample`), when set.
    pub obs_sample: Option<u64>,
    /// Live scrape endpoint address (`--serve`), when set.
    pub serve: Option<String>,
}

impl ExpOptions {
    /// Parses options from `std::env::args`. Unknown flags abort with a
    /// usage message. `--obs` switches the recorder on at debug level and
    /// routes event-ring overflow to [`OBS_JSONL_PATH`] so the stream is
    /// complete; [`emit`] writes the exposition snapshot at the end.
    /// `--serve <host:port>` (implies `--obs`) starts the live scrape
    /// endpoint; it stays up until the process exits, so a scraper can
    /// collect the final state of a finished experiment.
    pub fn from_args() -> Self {
        let mut opts = ExpOptions {
            quick: false,
            seed: 1,
            csv_only: false,
            obs: false,
            obs_sample: None,
            serve: None,
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
                "--obs-sample" => {
                    let v = args
                        .next()
                        .unwrap_or_else(|| die("--obs-sample requires a value"));
                    let n: u64 = v
                        .parse()
                        .ok()
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| die("--obs-sample must be an integer >= 1"));
                    opts.obs_sample = Some(n);
                }
                "--serve" => {
                    let v = args
                        .next()
                        .unwrap_or_else(|| die("--serve requires a host:port value"));
                    opts.serve = Some(v);
                    opts.obs = true;
                }
                "--help" | "-h" => die(USAGE),
                other => die(&format!("unknown option `{other}`; {USAGE}")),
            }
        }
        if let Some(n) = opts.obs_sample {
            qres_obs::set_sample_every(n);
        }
        if opts.obs {
            qres_obs::set_level(qres_obs::Level::Debug);
            if let Err(e) = qres_obs::set_spill_path(Path::new(OBS_JSONL_PATH)) {
                die(&format!("cannot create {OBS_JSONL_PATH}: {e}"));
            }
        }
        if let Some(addr) = &opts.serve {
            match qres_obs::ObsServer::start(addr) {
                Ok(server) => {
                    eprintln!("[obs] serving http://{}/metrics", server.addr());
                    // The endpoint lives for the rest of the process: an
                    // experiment binary exits right after its last table,
                    // and the OS reclaims the thread and socket.
                    std::mem::forget(server);
                }
                Err(e) => die(&format!("cannot bind {addr}: {e}")),
            }
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

/// Prints a rendered table (text + CSV, or CSV only). Under `--obs`, also
/// flushes telemetry: buffered events are appended to [`OBS_JSONL_PATH`]
/// and the Prometheus exposition is (re)written to [`OBS_PROM_PATH`] —
/// repeat calls refresh the snapshot, so the last one wins.
pub fn emit(opts: &ExpOptions, table: &qres_sim::report::SeriesTable) {
    if opts.csv_only {
        print!("{}", table.to_csv());
    } else {
        print!("{}", table.render());
        println!();
        print!("{}", table.to_csv());
    }
    if opts.obs {
        qres_obs::flush_spill();
        let prom = qres_obs::prometheus_text();
        if let Err(e) = std::fs::write(OBS_PROM_PATH, prom) {
            eprintln!("warning: cannot write {OBS_PROM_PATH}: {e}");
        } else if !opts.csv_only {
            println!("\n[obs] snapshot -> {OBS_PROM_PATH}, events -> {OBS_JSONL_PATH}");
        }
    }
}
