//! `qres` — run hand-off reservation simulations from JSON scenario files.
//!
//! ```text
//! qres template [stationary|time-varying|wired|metro]   print a scenario template
//! qres run <scenario.json> [--json] [--obs] [--obs-sample N]
//!          [--serve HOST:PORT [--linger-secs N]] [--slo-target P] [--slo-burn X]
//! qres sweep <scenario.json> [--loads 60,120,300] [--obs] [--obs-sample N] [--slo-* ...]
//! qres serve <scenario.json> [--addr HOST:PORT] [--loads ...]
//!            [--sequential] [--linger-secs N] [--obs-sample N] [--slo-* ...]
//! qres obs calib <obs_calib.json>                    Eq.-4 calibration report
//! qres obs diff <a.json> <b.json> [--fail-on SPEC]   diff two metrics snapshots
//! qres obs alerts <obs_alerts.json | obs_events.jsonl | snapshot.json>
//! qres obs explain <obs_flight.json | capture.json>  explain recorded admissions
//! qres obs replay <obs_flight.json | capture.json>   re-execute recorded verdicts
//! ```
//!
//! A scenario file is the JSON form of [`qres::sim::Scenario`]; start from
//! `qres template`, edit, run. `--json` emits the full
//! [`qres::sim::RunResult`] (per-cell summaries, traces, hourly series)
//! for downstream tooling. Every subcommand exits 2 on a flag it does not
//! take, a bad flag value, or a missing or extra file argument; `run`,
//! `sweep` and `serve` exit 1 on a scenario that fails validation at any
//! swept load. The `metro` template is the 32×32 hex grid (1024 cells).
//!
//! `--obs` switches on the telemetry recorder at debug level for the run
//! and writes into the working directory: `obs_snapshot.prom`
//! (Prometheus text exposition), `obs_events.jsonl` (the structured event
//! stream), `obs_calib.json` (QoS conformance and Eq.-4 calibration),
//! `obs_alerts.json` (the SLO alert timeline) and `obs_flight.json` (the
//! decision tape). With `--json` the telemetry snapshot is also merged
//! into the report under an `"obs"` key. `--obs-sample N` keeps only every
//! N-th debug-tier high-frequency event (`br_compute`, `backbone_send`).
//!
//! `serve` runs a sweep with the live scrape endpoint attached: while the
//! sweep executes, `GET /metrics` (Prometheus exposition),
//! `GET /metrics.json`, `GET /qos`, `GET /alerts`, `GET /explain` and
//! `GET /healthz` answer on `--addr` (default `127.0.0.1:9464`), and the
//! `qres_sweep_points_{planned,done}_total` counters track progress.
//! `qres run --obs --serve HOST:PORT` keeps the same endpoint attached for
//! one run; `--linger-secs N` holds it open afterwards.
//!
//! With telemetry on, the **SLO watchdog** evaluates burn-rate alert
//! rules against `P_HD,target` every 60 simulated seconds, reading the
//! live QoS windows: a fast 5-min window and the 1-h QoS window.
//! `--slo-target P` overrides the target the rules burn against (e.g. an
//! intentionally low target to force a violation drill); `--slo-burn X`
//! moves the burn threshold (default 1.0). The **flight recorder** tapes
//! every admission decision — requested BUs, link occupancy, the
//! reservation threshold with its per-neighbor `B_i,0` terms, each
//! AC2/AC3 neighbor check, and the verdict — into a bounded ring
//! (`--no-flight` switches it off). When `p_hd_burn` fires, the
//! surrounding record window is frozen to `obs_flight_<cell>_<ts>.json`.
//!
//! `qres obs <view> <file>` reads those artifacts:
//!
//! * `calib` renders the reliability diagram, Brier score and
//!   per-`prev`-cell breakdown of `obs_calib.json` (or a `/qos` body).
//! * `diff` compares two `/metrics.json` snapshots (bare, or embedded
//!   under a run report's `"obs"` key) metric by metric, including per-cell
//!   QoS movement and the watchdog's tallies. `--fail-on SPEC` gates on
//!   it: a comma-separated list of `counters`, `alerts`, `qos`, `NAME>X`,
//!   `p_hd>X`, `p_cb>X`, `violation_secs>X` clauses; a violated clause
//!   exits 1.
//! * `alerts` replays the alert timeline from `obs_alerts.json`, the JSONL
//!   event spill, or any JSON artifact carrying an `"alerts"` section.
//! * `explain` renders a flight-recorder document as a per-cell
//!   denial-cause report.
//! * `replay` re-executes a recorded window through the same admission
//!   predicates the live system ran and exits 1 unless every verdict
//!   reproduces bit-identically.

use std::path::Path;
use std::process::ExitCode;

use qres::sim::report::{cell_status_table, result_with_obs_json, SeriesTable};
use qres::sim::scenario::WiredConfig;
use qres::sim::{run_scenario, Scenario, SchemeKind, TimeVaryingConfig};

/// Prometheus snapshot written by `--obs`.
const OBS_PROM_PATH: &str = "obs_snapshot.prom";
/// JSONL event stream written by `--obs`.
const OBS_JSONL_PATH: &str = "obs_events.jsonl";
/// QoS/calibration snapshot written by `--obs` (input to `qres obs calib`).
const OBS_CALIB_PATH: &str = "obs_calib.json";
/// SLO watchdog alert timeline written by `--obs` (input to `qres obs alerts`).
const OBS_ALERTS_PATH: &str = "obs_alerts.json";
/// Flight-recorder decision tape written by `--obs` (input to
/// `qres obs explain` / `qres obs replay`).
const OBS_FLIGHT_PATH: &str = "obs_flight.json";

/// The flags `qres run` takes.
const RUN_FLAGS: Flags = Flags {
    usage: "qres run <scenario.json> [--json] [--obs] [--obs-sample N] [--no-flight] \
            [--serve HOST:PORT [--linger-secs N]] [--slo-target P] [--slo-burn X]",
    files: &["<scenario.json>"],
    switches: &["--json", "--obs", "--no-flight"],
    valued: &[
        "--obs-sample",
        "--serve",
        "--linger-secs",
        "--slo-target",
        "--slo-burn",
    ],
};

/// The flags `qres sweep` takes.
const SWEEP_FLAGS: Flags = Flags {
    usage: "qres sweep <scenario.json> [--loads 60,120,300] [--obs] [--obs-sample N] \
            [--no-flight] [--slo-target P] [--slo-burn X]",
    files: &["<scenario.json>"],
    switches: &["--obs", "--no-flight"],
    valued: &["--loads", "--obs-sample", "--slo-target", "--slo-burn"],
};

/// The flags `qres serve` takes.
const SERVE_FLAGS: Flags = Flags {
    usage: "qres serve <scenario.json> [--addr HOST:PORT] [--loads 60,120,300] [--sequential] \
            [--linger-secs N] [--obs-sample N] [--no-flight] [--slo-target P] [--slo-burn X]",
    files: &["<scenario.json>"],
    switches: &["--sequential", "--no-flight"],
    valued: &[
        "--addr",
        "--loads",
        "--linger-secs",
        "--obs-sample",
        "--slo-target",
        "--slo-burn",
    ],
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("template") => template(args.get(1).map(String::as_str)),
        Some("run") => exit_code(run(&args[1..])),
        Some("sweep") => exit_code(sweep(&args[1..])),
        Some("serve") => exit_code(serve(&args[1..])),
        Some("obs") => exit_code(obs(&args[1..])),
        other => {
            if let Some(other) = other {
                eprintln!("unknown subcommand `{other}`");
            }
            eprintln!(
                "usage:\n  qres template [stationary|time-varying|wired|metro]\n  {}\n  {}\n  {}\n  {}",
                RUN_FLAGS.usage,
                SWEEP_FLAGS.usage,
                SERVE_FLAGS.usage,
                view_usages("\n  ")
            );
            ExitCode::from(2)
        }
    }
}

fn template(kind: Option<&str>) -> ExitCode {
    let scenario = match kind.unwrap_or("stationary") {
        "stationary" => Scenario::paper_baseline(),
        "time-varying" => Scenario::paper_baseline()
            .scheme(SchemeKind::Ac1)
            .time_varying(TimeVaryingConfig::paper_like()),
        "wired" => Scenario::paper_baseline().wired(WiredConfig::Star {
            access_bus: 100,
            trunk_bus: 600,
        }),
        "metro" => Scenario::metro(),
        other => {
            eprintln!("unknown template `{other}` (stationary|time-varying|wired|metro)");
            return ExitCode::from(2);
        }
    };
    println!("{}", qres_json::to_string_pretty(&scenario));
    ExitCode::SUCCESS
}

/// Why `run`, `sweep` or `serve` stopped.
enum Failure {
    /// A bad command line: exit 2.
    Usage(String),
    /// A bad scenario, or an I/O error while running: exit 1.
    Run(String),
}

fn exit_code(result: Result<(), Failure>) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Usage(e)) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
        Err(Failure::Run(e)) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// The arguments a subcommand takes: its file arguments, switches, and
/// flags followed by a value.
struct Flags {
    usage: &'static str,
    files: &'static [&'static str],
    switches: &'static [&'static str],
    valued: &'static [&'static str],
}

/// A parsed command line: the file arguments and the flags given.
struct Cli<'a> {
    files: Vec<&'a str>,
    switches: Vec<&'a str>,
    values: Vec<(&'a str, &'a str)>,
}

impl<'a> Cli<'a> {
    /// Parses `args` against `flags`. A flag the subcommand does not take,
    /// a flag without its value, and a missing or extra file argument are
    /// usage errors.
    fn parse(args: &'a [String], flags: &Flags) -> Result<Self, Failure> {
        let usage = |e: String| Failure::Usage(format!("{e}\nusage: {}", flags.usage));
        let mut files = Vec::new();
        let mut switches = Vec::new();
        let mut values = Vec::new();
        let mut it = args.iter().map(String::as_str);
        while let Some(arg) = it.next() {
            if flags.switches.contains(&arg) {
                switches.push(arg);
            } else if flags.valued.contains(&arg) {
                let value = it
                    .next()
                    .ok_or_else(|| usage(format!("{arg} requires a value")))?;
                values.push((arg, value));
            } else if arg.starts_with('-') {
                return Err(usage(format!("unknown flag `{arg}`")));
            } else if files.len() == flags.files.len() {
                return Err(usage(format!("unexpected argument `{arg}`")));
            } else {
                files.push(arg);
            }
        }
        if let Some(missing) = flags.files.get(files.len()) {
            return Err(usage(format!("missing {missing}")));
        }
        Ok(Cli {
            files,
            switches,
            values,
        })
    }

    fn has(&self, flag: &str) -> bool {
        self.switches.contains(&flag)
    }

    /// The value of `flag` (the last one, if given twice).
    fn value(&self, flag: &str) -> Option<&'a str> {
        self.values
            .iter()
            .rev()
            .find(|(f, _)| *f == flag)
            .map(|&(_, v)| v)
    }

    /// The value of `flag` parsed with `parse`; a value it rejects is a
    /// usage error naming what the flag `expects`.
    fn parsed<T>(
        &self,
        flag: &str,
        expects: &str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<Option<T>, Failure> {
        self.value(flag)
            .map(|raw| {
                parse(raw)
                    .ok_or_else(|| Failure::Usage(format!("{flag} expects {expects}, got `{raw}`")))
            })
            .transpose()
    }

    /// `--linger-secs N`, default 0.
    fn linger_secs(&self) -> Result<u64, Failure> {
        Ok(self
            .parsed("--linger-secs", "an integer number of seconds", |s| {
                s.parse().ok()
            })?
            .unwrap_or(0))
    }

    /// `--loads 60,120,300`, defaulting to the paper's load grid.
    fn loads(&self) -> Result<Vec<f64>, Failure> {
        let list = self.parsed("--loads", "a comma-separated list of numbers", |list| {
            list.split(',')
                .map(|l| l.trim().parse().ok())
                .collect::<Option<Vec<f64>>>()
        })?;
        Ok(list.unwrap_or_else(qres::sim::runner::paper_load_grid))
    }
}

/// The telemetry flags `run`, `sweep` and `serve` share.
struct ObsOpts {
    /// `--obs-sample N`: keep every N-th debug-tier high-frequency event.
    sample: Option<u64>,
    /// `--no-flight`: switch the decision tape off.
    no_flight: bool,
    /// `--slo-target P`: the `P_HD` target the alert rules burn against,
    /// overriding the scenario's `p_hd_target`.
    slo_target: Option<f64>,
    /// `--slo-burn X`: the `p_hd_burn` threshold (default 1.0).
    slo_burn: Option<f64>,
}

impl ObsOpts {
    fn parse(cli: &Cli<'_>) -> Result<Self, Failure> {
        Ok(ObsOpts {
            sample: cli.parsed("--obs-sample", "an integer >= 1", |s| {
                s.parse().ok().filter(|&n: &u64| n >= 1)
            })?,
            no_flight: cli.has("--no-flight"),
            slo_target: cli.parsed("--slo-target", "0 < P < 1", |s| {
                s.parse().ok().filter(|&p: &f64| p > 0.0 && p < 1.0)
            })?,
            slo_burn: cli.parsed("--slo-burn", "a threshold > 0", |s| {
                s.parse().ok().filter(|&x: &f64| x > 0.0)
            })?,
        })
    }

    /// Programs the recorder and the alert rules. With `on`, also switches
    /// the recorder on at debug level, routes ring overflow to
    /// [`OBS_JSONL_PATH`] so the event stream stays complete, and lets
    /// alert-triggered flight captures (`obs_flight_<cell>_<ts>.json`)
    /// land in the working directory unless `--no-flight` switched the
    /// tape off.
    fn apply(&self, on: bool) -> Result<(), Failure> {
        if let Some(n) = self.sample {
            qres::obs::set_sample_every(n);
        }
        if self.slo_target.is_some() || self.slo_burn.is_some() {
            let mut config = qres::obs::alert_config();
            config.target_p_hd = self.slo_target.or(config.target_p_hd);
            config.burn_threshold = self.slo_burn.unwrap_or(config.burn_threshold);
            qres::obs::set_alert_config(config);
        }
        if !on {
            return Ok(());
        }
        qres::obs::set_level(qres::obs::Level::Debug);
        if self.no_flight {
            qres::obs::set_flight_enabled(false);
        } else {
            qres::obs::set_flight_capture_dir(Some(std::path::PathBuf::from(".")));
        }
        qres::obs::set_spill_path(Path::new(OBS_JSONL_PATH))
            .map_err(|e| Failure::Run(format!("cannot create {OBS_JSONL_PATH}: {e}")))
    }
}

fn load_scenario(path: &str) -> Result<Scenario, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let scenario: Scenario =
        qres_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    scenario.validate().map_err(|e| format!("{path}: {e}"))?;
    Ok(scenario)
}

/// Loads a sweep's base scenario and validates it at every swept load, so
/// a bad `--loads` value fails before the sweep starts.
fn load_sweep(path: &str, loads: &[f64]) -> Result<Scenario, Failure> {
    let base = load_scenario(path).map_err(Failure::Run)?;
    for &load in loads {
        base.clone()
            .offered_load(load)
            .validate()
            .map_err(|e| Failure::Run(format!("{path} at --loads {load}: {e}")))?;
    }
    Ok(base)
}

/// Flushes buffered events to [`OBS_JSONL_PATH`], writes the Prometheus
/// exposition to [`OBS_PROM_PATH`], the QoS/calibration snapshot to
/// [`OBS_CALIB_PATH`], the SLO alert timeline to [`OBS_ALERTS_PATH`], and
/// the flight-recorder tape to [`OBS_FLIGHT_PATH`]. Forecasts whose deadline passed before the last
/// recorded sim-time are settled as expired first; later deadlines stay
/// `pending` (censored by the end of the run, not scored). Firing alerts
/// are resolved at the final sim-time (the run ended, nothing burns
/// anymore) so the written timeline is complete.
fn obs_finish(quiet: bool) -> Result<(), Failure> {
    // Finalize before flushing: the resolve/retract transitions it records
    // must make the JSONL spill.
    qres::obs::finalize_alerts(qres::obs::sim_time());
    qres::obs::flush_spill();
    qres::obs::sweep_expired(qres::obs::sim_time());
    let write = |path: &str, text: String| {
        std::fs::write(path, text).map_err(|e| Failure::Run(format!("cannot write {path}: {e}")))
    };
    write(OBS_PROM_PATH, qres::obs::prometheus_text())?;
    write(
        OBS_CALIB_PATH,
        qres::obs::qos_json().to_pretty_string() + "\n",
    )?;
    write(
        OBS_ALERTS_PATH,
        qres::obs::alerts_json().to_pretty_string() + "\n",
    )?;
    write(
        OBS_FLIGHT_PATH,
        qres::obs::flight_json().to_pretty_string() + "\n",
    )?;
    if !quiet {
        println!(
            "[obs] snapshot -> {OBS_PROM_PATH}, events -> {OBS_JSONL_PATH}, \
             qos/calibration -> {OBS_CALIB_PATH}, \
             alerts -> {OBS_ALERTS_PATH}, flight -> {OBS_FLIGHT_PATH}"
        );
    }
    Ok(())
}

/// Starts the live scrape endpoint on `addr`.
fn start_server(addr: &str) -> Result<qres::obs::ObsServer, Failure> {
    qres::obs::ObsServer::start(addr).map_err(|e| Failure::Run(format!("cannot bind {addr}: {e}")))
}

/// Keeps a live endpoint up `linger_secs` after the work is done, so a
/// scraper can collect the final state, then shuts it down.
fn linger_then_shutdown(server: qres::obs::ObsServer, linger_secs: u64) {
    if linger_secs > 0 {
        eprintln!("[obs] done; endpoint stays up for {linger_secs} s");
        std::thread::sleep(std::time::Duration::from_secs(linger_secs));
    }
    server.shutdown();
}

fn run(args: &[String]) -> Result<(), Failure> {
    let cli = Cli::parse(args, &RUN_FLAGS)?;
    let as_json = cli.has("--json");
    let obs = cli.has("--obs");
    let opts = ObsOpts::parse(&cli)?;
    let linger_secs = cli.linger_secs()?;
    // `--serve HOST:PORT` attaches the live scrape endpoint for the run's
    // duration (the single-run counterpart of `qres serve`); telemetry
    // must be on, or the routes would serve an empty registry.
    let serve_addr = cli.value("--serve");
    if serve_addr.is_some() && !obs {
        return Err(Failure::Usage(
            "--serve requires --obs (the endpoint serves the telemetry plane)".into(),
        ));
    }
    let scenario = load_scenario(cli.files[0]).map_err(Failure::Run)?;
    opts.apply(obs)?;
    let server = serve_addr.map(start_server).transpose()?;
    if let Some(s) = &server {
        eprintln!(
            "[obs] serving http://{}/metrics (.json, /qos, /alerts, /explain, /healthz)",
            s.addr()
        );
    }
    let result = run_scenario(&scenario);
    if as_json {
        if obs {
            println!(
                "{}",
                qres_json::to_string_pretty(&result_with_obs_json(&result))
            );
        } else {
            println!("{}", qres_json::to_string_pretty(&result));
        }
    } else {
        print!("{}", cell_status_table(&result));
        println!(
            "events: {}   measured span: {} s",
            result.events_dispatched, result.duration_secs
        );
    }
    if obs {
        obs_finish(as_json)?;
    }
    if let Some(server) = server {
        linger_then_shutdown(server, linger_secs);
    }
    Ok(())
}

fn sweep(args: &[String]) -> Result<(), Failure> {
    let cli = Cli::parse(args, &SWEEP_FLAGS)?;
    let obs = cli.has("--obs");
    let opts = ObsOpts::parse(&cli)?;
    let loads = cli.loads()?;
    let base = load_sweep(cli.files[0], &loads)?;
    opts.apply(obs)?;
    let points = qres::sim::sweep_offered_load(&base, &loads);
    print!("{}", sweep_table(&points));
    if obs {
        obs_finish(false)?;
    }
    Ok(())
}

/// Renders sweep points as the standard load/P_CB/P_HD/... table.
fn sweep_table(points: &[qres::sim::runner::SweepPoint]) -> String {
    let mut table = SeriesTable::new(
        "load",
        vec![
            "P_CB".into(),
            "P_HD".into(),
            "avg_B_r".into(),
            "avg_B_u".into(),
            "N_calc".into(),
        ],
    );
    for point in points {
        let r = &point.result;
        table.push_row(
            point.offered_load,
            vec![
                Some(r.p_cb()),
                Some(r.p_hd()),
                Some(r.avg_br()),
                Some(r.avg_bu()),
                Some(r.n_calc_mean),
            ],
        );
    }
    table.render()
}

/// `qres serve`: a sweep with the live HTTP scrape endpoint attached.
///
/// Telemetry is always on here (that is the point), spilling to
/// [`OBS_JSONL_PATH`] and writing [`OBS_PROM_PATH`] at the end, exactly
/// like `sweep --obs`. `--sequential` runs the points one after another,
/// so the event stream holds one point's events at a time instead of
/// interleaving them; `--linger-secs N` keeps the endpoint up after the
/// sweep so a scraper can collect the final state.
fn serve(args: &[String]) -> Result<(), Failure> {
    let cli = Cli::parse(args, &SERVE_FLAGS)?;
    let addr = cli.value("--addr").unwrap_or("127.0.0.1:9464");
    let opts = ObsOpts::parse(&cli)?;
    let linger_secs = cli.linger_secs()?;
    let loads = cli.loads()?;
    let base = load_sweep(cli.files[0], &loads)?;
    opts.apply(true)?;
    let server = start_server(addr)?;
    eprintln!(
        "[obs] serving http://{}/metrics (.json, /qos, /alerts, /explain, /healthz) \
         for {} sweep point(s)",
        server.addr(),
        loads.len()
    );
    let points = if cli.has("--sequential") {
        qres::sim::runner::sweep_offered_load_sequential(&base, &loads)
    } else {
        qres::sim::sweep_offered_load(&base, &loads)
    };
    print!("{}", sweep_table(&points));
    obs_finish(false)?;
    linger_then_shutdown(server, linger_secs);
    Ok(())
}

/// One `qres obs` view: the arguments it takes and what it prints.
struct View {
    name: &'static str,
    flags: Flags,
    show: fn(&Cli<'_>) -> Result<(), Failure>,
}

/// The `qres obs` views over the artifacts `--obs` writes.
const VIEWS: [View; 5] = [
    View {
        name: "calib",
        flags: Flags {
            usage: "qres obs calib <obs_calib.json>",
            files: &["<obs_calib.json>"],
            switches: &[],
            valued: &[],
        },
        show: show_calib,
    },
    View {
        name: "diff",
        flags: Flags {
            usage: "qres obs diff <a.json> <b.json> [--fail-on SPEC]",
            files: &["<a.json>", "<b.json>"],
            switches: &[],
            valued: &["--fail-on"],
        },
        show: show_diff,
    },
    View {
        name: "alerts",
        flags: Flags {
            usage: "qres obs alerts <obs_alerts.json | obs_events.jsonl | snapshot.json>",
            files: &["<obs_alerts.json>"],
            switches: &[],
            valued: &[],
        },
        show: show_alerts,
    },
    View {
        name: "explain",
        flags: Flags {
            usage: "qres obs explain <obs_flight.json | obs_flight_CELL_TS.json>",
            files: &["<obs_flight.json>"],
            switches: &[],
            valued: &[],
        },
        show: show_explain,
    },
    View {
        name: "replay",
        flags: Flags {
            usage: "qres obs replay <obs_flight.json | obs_flight_CELL_TS.json>",
            files: &["<obs_flight.json>"],
            switches: &[],
            valued: &[],
        },
        show: show_replay,
    },
];

/// `qres obs <view> <file>...`: parses the view's arguments, then shows it.
fn obs(args: &[String]) -> Result<(), Failure> {
    let name = args.first().map_or("", String::as_str);
    let Some(view) = VIEWS.iter().find(|v| v.name == name) else {
        let what = if name.is_empty() {
            "missing <view>".to_string()
        } else {
            format!("unknown view `{name}`")
        };
        return Err(Failure::Usage(format!(
            "{what}\nusage: {}",
            view_usages("\n       ")
        )));
    };
    (view.show)(&Cli::parse(&args[1..], &view.flags)?)
}

/// The usage lines of every view, joined by `sep`.
fn view_usages(sep: &str) -> String {
    let lines: Vec<&str> = VIEWS.iter().map(|v| v.flags.usage).collect();
    lines.join(sep)
}

fn read(path: &str) -> Result<String, Failure> {
    std::fs::read_to_string(path).map_err(|e| Failure::Run(format!("reading {path}: {e}")))
}

fn read_json(path: &str) -> Result<qres_json::Value, Failure> {
    qres_json::Value::parse(&read(path)?)
        .map_err(|e| Failure::Run(format!("{path}: not valid JSON: {e}")))
}

/// Prints a rendered report, or fails naming the file it came from.
fn print_report(path: &str, report: Result<String, String>) -> Result<(), Failure> {
    print!(
        "{}",
        report.map_err(|e| Failure::Run(format!("{path}: {e}")))?
    );
    Ok(())
}

fn show_calib(cli: &Cli<'_>) -> Result<(), Failure> {
    let path = cli.files[0];
    print_report(path, qres::obs::render_calib_report(&read_json(path)?))
}

fn show_alerts(cli: &Cli<'_>) -> Result<(), Failure> {
    let path = cli.files[0];
    print_report(path, qres::obs::render_watch(&read(path)?))
}

fn show_explain(cli: &Cli<'_>) -> Result<(), Failure> {
    let path = cli.files[0];
    print_report(path, qres::obs::render_explain(&read_json(path)?))
}

fn show_replay(cli: &Cli<'_>) -> Result<(), Failure> {
    let path = cli.files[0];
    let summary = qres::replay::replay_flight_doc(&read_json(path)?)
        .map_err(|e| Failure::Run(format!("{path}: {e}")))?;
    print!("{}", qres::replay::render_summary(&summary));
    if summary.is_clean() {
        Ok(())
    } else {
        Err(Failure::Run(format!(
            "{path}: recorded verdicts do not replay"
        )))
    }
}

/// Prints the diff; with `--fail-on SPEC`, fails (exit 1) on a violated
/// clause and rejects a malformed SPEC (exit 2).
fn show_diff(cli: &Cli<'_>) -> Result<(), Failure> {
    let (path_a, path_b) = (cli.files[0], cli.files[1]);
    let (a, b) = (read_json(path_a)?, read_json(path_b)?);
    print!(
        "{}",
        qres::obs::diff_snapshots(&a, &b, path_a, path_b).map_err(Failure::Run)?
    );
    let Some(spec) = cli.value("--fail-on") else {
        return Ok(());
    };
    let violations = qres::obs::check_fail_on(&a, &b, spec)
        .map_err(|e| Failure::Usage(format!("--fail-on {spec}: {e}")))?;
    if violations.is_empty() {
        println!("--fail-on {spec}: clean");
        return Ok(());
    }
    let lines: Vec<String> = violations
        .iter()
        .map(|v| format!("--fail-on violated: {v}"))
        .collect();
    Err(Failure::Run(lines.join("\n")))
}
