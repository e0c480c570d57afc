//! `qres` — run hand-off reservation simulations from JSON scenario files.
//!
//! ```text
//! qres template [stationary|time-varying|wired|metro]   print a scenario template
//! qres run <scenario.json> [--json] [--obs] [--obs-sample N]
//!          [--serve HOST:PORT [--linger-secs N]] [--slo-target P] [--slo-burn X]
//! qres sweep <scenario.json> [--loads 60,120,300] [--obs] [--obs-sample N] [--slo-* ...]
//! qres serve <scenario.json> [--addr HOST:PORT] [--loads ...]
//!            [--sequential] [--linger-secs N] [--obs-sample N] [--slo-* ...]
//! qres obslint <snapshot.prom>                    lint a Prometheus snapshot
//! qres obscheck <events.jsonl> [--all-types] [--monotonic]
//! qres obsfold <events.jsonl>                     folded stacks (flamegraph)
//! qres obstrace <events.jsonl> [-o trace.json]    Perfetto trace JSON
//! qres obstrace --diff <a.json> <b.json>          structural span diff
//! qres obscalib <obs_calib.json>                  Eq.-4 calibration report
//! qres obsdiff <a.json> <b.json> [--fail-on SPEC]  diff two metrics snapshots
//! qres obswatch <obs_events.jsonl | obs_alerts.json | snapshot.json>
//! qres obsexplain <obs_flight.json | capture.json>  explain recorded admissions
//! qres obsreplay <obs_flight.json | capture.json>   re-execute recorded verdicts
//! ```
//!
//! A scenario file is the JSON form of [`qres::sim::Scenario`]; start from
//! `qres template`, edit, run. `--json` emits the full
//! [`qres::sim::RunResult`] (per-cell summaries, traces, hourly series)
//! for downstream tooling. `run`, `sweep` and `serve` exit 2 on a flag
//! they do not take or a bad flag value, and 1 on a scenario that fails
//! validation at any swept load.
//!
//! The `metro` template is the 32×32 hex grid (1024 cells).
//!
//! `--obs` switches on the telemetry recorder at debug level for the run
//! and writes `obs_snapshot.prom` (Prometheus text exposition) and
//! `obs_events.jsonl` (the structured event stream) into the working
//! directory; with `--json` the telemetry snapshot is also merged into the
//! report under an `"obs"` key. `--obs-sample N` keeps only every N-th
//! debug-tier high-frequency event (`br_compute`, `backbone_send`).
//!
//! `serve` runs a sweep with the live scrape endpoint attached: while the
//! sweep executes, `GET /metrics` (Prometheus exposition, with per-cell
//! `qres_admission_test_ns{cell="..."}` series), `GET /metrics.json`,
//! `GET /qos`, `GET /alerts`, `GET /explain` and `GET /healthz` answer on
//! `--addr` (default `127.0.0.1:9464`), and the
//! `qres_sweep_points_{planned,done}_total` counters track progress.
//!
//! `obslint` and `obscheck` validate the `--obs` artifacts — CI runs them
//! against a short `--obs` smoke simulation. `obsfold` and `obstrace`
//! render the event stream for `flamegraph.pl`/inferno and
//! `ui.perfetto.dev`; both pair `br_compute` spans with their `admission`
//! parent via the shared `req` id and assume a single-threaded stream
//! (`run`, or `serve --sequential`).
//!
//! With `--obs` (or under `serve`), the QoS-conformance and Eq.-4
//! calibration state is additionally written to `obs_calib.json`
//! (`qres obscalib` renders it as a reliability-diagram report).
//! `qres run --obs --serve HOST:PORT` additionally keeps the live scrape
//! endpoint attached for the run's duration — `--linger-secs N` holds it
//! open afterwards.
//! `qres obstrace --diff a.json b.json` structurally compares two
//! rendered traces: span counts and total durations per name, plus
//! missing/extra parent→child nestings. `qres obsdiff` compares
//! two `/metrics.json` snapshots (bare, or embedded under a run report's
//! `"obs"` key) metric by metric, including the per-cell QoS movement and
//! the SLO watchdog's fired-counts/transition tallies.
//!
//! With telemetry on, the **SLO watchdog** evaluates burn-rate alert
//! rules against `P_HD,target` every 60 simulated seconds, reading the
//! live QoS windows: a fast 5-min window and the 1-h QoS window.
//! `--slo-target P` overrides the target the rules burn against (e.g. an
//! intentionally low target to force a violation drill); `--slo-burn X`
//! moves the burn threshold (default 1.0). The alert state is served at
//! `GET /alerts` and written to `obs_alerts.json` at the end of the run;
//! `qres obswatch` replays the alert timeline offline from a JSONL event
//! spill or any JSON artifact carrying an `"alerts"` section.
//!
//! With telemetry on, the **decision-provenance flight recorder** tapes
//! every admission decision — requested BUs, link occupancy, the
//! reservation threshold with its per-neighbor `B_i,0` terms, each
//! AC2/AC3 neighbor check, and the verdict — into a bounded in-process
//! ring (`--no-flight` switches it off). The tape is served live at
//! `GET /explain?req=SEQ` / `GET /explain?cell=N&last=K`, written to
//! `obs_flight.json` at the end of the run, and `qres obsexplain` renders
//! any of those documents as a per-cell denial-cause report. When the
//! `p_hd_burn` alert fires, the surrounding record window is frozen to
//! `obs_flight_<cell>_<ts>.json` automatically. `qres obsreplay`
//! re-executes a recorded window through the same admission predicates
//! the live system ran and exits nonzero unless every verdict reproduces
//! bit-identically. `qres obsdiff --fail-on SPEC` gates CI on snapshot
//! movement: a comma-separated list of `counters`, `alerts`, `qos`,
//! `NAME>X`, `p_hd>X`, `p_cb>X`, `violation_secs>X` clauses; any
//! violated clause prints and the exit code goes nonzero.

use std::path::Path;
use std::process::ExitCode;

use qres::sim::report::{cell_status_table, result_with_obs_json, SeriesTable};
use qres::sim::scenario::WiredConfig;
use qres::sim::{run_scenario, Scenario, SchemeKind, TimeVaryingConfig};

/// Prometheus snapshot written by `--obs`.
const OBS_PROM_PATH: &str = "obs_snapshot.prom";
/// JSONL event stream written by `--obs`.
const OBS_JSONL_PATH: &str = "obs_events.jsonl";
/// QoS/calibration snapshot written by `--obs` (input to `qres obscalib`).
const OBS_CALIB_PATH: &str = "obs_calib.json";
/// SLO watchdog alert timeline written by `--obs` (input to `qres obswatch`).
const OBS_ALERTS_PATH: &str = "obs_alerts.json";
/// Flight-recorder decision tape written by `--obs` (input to
/// `qres obsexplain` / `qres obsreplay`).
const OBS_FLIGHT_PATH: &str = "obs_flight.json";

/// The flags `qres run` takes.
const RUN_FLAGS: Flags = Flags {
    usage: "qres run <scenario.json> [--json] [--obs] [--obs-sample N] [--no-flight] \
            [--serve HOST:PORT [--linger-secs N]] [--slo-target P] [--slo-burn X]",
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
    switches: &["--obs", "--no-flight"],
    valued: &["--loads", "--obs-sample", "--slo-target", "--slo-burn"],
};

/// The flags `qres serve` takes.
const SERVE_FLAGS: Flags = Flags {
    usage: "qres serve <scenario.json> [--addr HOST:PORT] [--loads 60,120,300] [--sequential] \
            [--linger-secs N] [--obs-sample N] [--no-flight] [--slo-target P] [--slo-burn X]",
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
        Some("obslint") => obslint(&args[1..]),
        Some("obscheck") => obscheck(&args[1..]),
        Some("obsfold") => obsfold(&args[1..]),
        Some("obstrace") => obstrace(&args[1..]),
        Some("obscalib") => obscalib(&args[1..]),
        Some("obsdiff") => obsdiff(&args[1..]),
        Some("obswatch") => obswatch(&args[1..]),
        Some("obsexplain") => obsexplain(&args[1..]),
        Some("obsreplay") => obsreplay(&args[1..]),
        _ => {
            eprintln!(
                "usage:\n  qres template [stationary|time-varying|wired|metro]\n  {}\n  {}\n  {}\n  \
                 qres obslint <snapshot.prom>\n  \
                 qres obscheck <events.jsonl> [--all-types] [--monotonic]\n  \
                 qres obsfold <events.jsonl>\n  \
                 qres obstrace <events.jsonl> [-o trace.json]\n  \
                 qres obstrace --diff <a.json> <b.json>\n  \
                 qres obscalib <obs_calib.json>\n  \
                 qres obsdiff <a.json> <b.json> [--fail-on SPEC]\n  \
                 qres obswatch <obs_events.jsonl | obs_alerts.json | snapshot.json>\n  \
                 qres obsexplain <obs_flight.json | obs_flight_CELL_TS.json>\n  \
                 qres obsreplay <obs_flight.json | obs_flight_CELL_TS.json>",
                RUN_FLAGS.usage, SWEEP_FLAGS.usage, SERVE_FLAGS.usage
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

/// The flags a subcommand takes: switches, and flags followed by a value.
struct Flags {
    usage: &'static str,
    switches: &'static [&'static str],
    valued: &'static [&'static str],
}

/// A parsed `run`/`sweep`/`serve` command line: the scenario path and the
/// flags given.
struct Cli<'a> {
    path: &'a str,
    switches: Vec<&'a str>,
    values: Vec<(&'a str, &'a str)>,
}

impl<'a> Cli<'a> {
    /// Parses `args` against `flags`. A flag the subcommand does not take,
    /// a flag without its value, and a second positional argument are
    /// usage errors.
    fn parse(args: &'a [String], flags: &Flags) -> Result<Self, Failure> {
        let usage = |e: String| Failure::Usage(format!("{e}\nusage: {}", flags.usage));
        let mut path = None;
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
            } else if path.replace(arg).is_some() {
                return Err(usage(format!("unexpected argument `{arg}`")));
            }
        }
        let path = path.ok_or_else(|| usage("missing <scenario.json>".to_string()))?;
        Ok(Cli {
            path,
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

/// The value following a `--flag`, if the flag is present.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
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
    let scenario = load_scenario(cli.path).map_err(Failure::Run)?;
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
    let base = load_sweep(cli.path, &loads)?;
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
/// like `sweep --obs`. `--sequential` uses the single-threaded sweep so
/// the event stream satisfies the `obsfold`/`obstrace` pairing assumption
/// (and, with a single `--loads` point, `obscheck --monotonic`);
/// `--linger-secs N` keeps the
/// endpoint up after the sweep so a scraper can collect the final state.
fn serve(args: &[String]) -> Result<(), Failure> {
    let cli = Cli::parse(args, &SERVE_FLAGS)?;
    let addr = cli.value("--addr").unwrap_or("127.0.0.1:9464");
    let opts = ObsOpts::parse(&cli)?;
    let linger_secs = cli.linger_secs()?;
    let loads = cli.loads()?;
    let base = load_sweep(cli.path, &loads)?;
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

/// Lints a Prometheus text-exposition file against the in-repo format
/// checker ([`qres::obs::validate_prometheus_text`]).
fn obslint(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("qres obslint <snapshot.prom>");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("reading {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match qres::obs::validate_prometheus_text(&text) {
        Ok(()) => {
            println!("{path}: ok ({} lines)", text.lines().count());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{path}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The event-type groups `obscheck --all-types` requires. HOE insert and
/// evict share a group: evictions only happen on runs long enough to age
/// quadruplets out, which a smoke run need not be.
const OBS_REQUIRED_GROUPS: [&[&str]; 6] = [
    &["admission"],
    &["br_compute"],
    &["t_est_change"],
    &["hoe_insert", "hoe_evict"],
    &["queue_high_water"],
    &["backbone_send"],
];

/// Checks that every line of an `--obs` event stream parses back through
/// `qres-json` as an object tagged with `"type"` and stamped with `"t"`.
/// With `--all-types`, additionally requires every event group of
/// [`OBS_REQUIRED_GROUPS`] to appear at least once. With `--monotonic`,
/// additionally requires sim-time to never decrease — globally (the
/// ring→JSONL spill must preserve recording order) and per cell. Only a
/// single-run stream satisfies this (`qres run --obs`, or `qres serve
/// --sequential` with one `--loads` point): parallel sweeps interleave
/// points' events, and even a sequential multi-point sweep restarts
/// sim-time at zero for every point.
fn obscheck(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("qres obscheck <events.jsonl> [--all-types] [--monotonic]");
        return ExitCode::from(2);
    };
    let all_types = args.iter().any(|a| a == "--all-types");
    let monotonic = args.iter().any(|a| a == "--monotonic");
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("reading {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut counts: Vec<(String, u64)> = Vec::new();
    let mut total = 0u64;
    let mut last_t_global = f64::NEG_INFINITY;
    let mut last_t_per_cell: std::collections::BTreeMap<u64, f64> =
        std::collections::BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let value = match qres_json::Value::parse(line) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("{path}:{}: not valid JSON: {e}", lineno + 1);
                return ExitCode::FAILURE;
            }
        };
        let qres_json::Value::Object(fields) = &value else {
            eprintln!("{path}:{}: event is not a JSON object", lineno + 1);
            return ExitCode::FAILURE;
        };
        let Some((_, qres_json::Value::Str(tag))) = fields.iter().find(|(k, _)| k == "type") else {
            eprintln!("{path}:{}: event has no string \"type\" field", lineno + 1);
            return ExitCode::FAILURE;
        };
        let t = match value.get("t") {
            Some(qres_json::Value::Float(f)) => *f,
            Some(qres_json::Value::Int(n)) => *n as f64,
            Some(qres_json::Value::UInt(n)) => *n as f64,
            _ => {
                eprintln!(
                    "{path}:{}: event has no numeric \"t\" timestamp",
                    lineno + 1
                );
                return ExitCode::FAILURE;
            }
        };
        if monotonic {
            if t < last_t_global {
                eprintln!(
                    "{path}:{}: sim-time went backwards ({t} after {last_t_global}) — \
                     spill ordering violated, or the stream holds more than one run \
                     (each sweep point restarts sim-time; use `qres run --obs` or a \
                     one-point `qres serve --sequential` for monotonic streams)",
                    lineno + 1
                );
                return ExitCode::FAILURE;
            }
            last_t_global = t;
            let cell = match value.get("cell") {
                Some(qres_json::Value::UInt(c)) => Some(*c),
                Some(qres_json::Value::Int(c)) if *c >= 0 => Some(*c as u64),
                _ => None,
            };
            if let Some(c) = cell {
                let last = last_t_per_cell.entry(c).or_insert(f64::NEG_INFINITY);
                if t < *last {
                    eprintln!(
                        "{path}:{}: sim-time went backwards within cell {c} ({t} after {last})",
                        lineno + 1
                    );
                    return ExitCode::FAILURE;
                }
                *last = t;
            }
        }
        match counts.iter_mut().find(|(k, _)| k == tag) {
            Some((_, n)) => *n += 1,
            None => counts.push((tag.clone(), 1)),
        }
        total += 1;
    }
    if total == 0 {
        eprintln!("{path}: no events");
        return ExitCode::FAILURE;
    }
    if all_types {
        for group in OBS_REQUIRED_GROUPS {
            if !group.iter().any(|t| counts.iter().any(|(k, _)| k == t)) {
                eprintln!("{path}: no event of type {}", group.join(" or "));
                return ExitCode::FAILURE;
            }
        }
    }
    counts.sort();
    let summary: Vec<String> = counts.iter().map(|(k, n)| format!("{k}={n}")).collect();
    let checks = if monotonic {
        ", sim-time monotonic"
    } else {
        ""
    };
    println!("{path}: ok ({total} events: {}{checks})", summary.join(" "));
    ExitCode::SUCCESS
}

/// Renders the event stream as folded stacks for `flamegraph.pl` /
/// `inferno-flamegraph` (written to stdout, ready to pipe).
fn obsfold(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("qres obsfold <events.jsonl>");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("reading {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match qres::obs::folded_stacks(&text) {
        Ok(folded) if folded.is_empty() => {
            eprintln!("{path}: no admission/br_compute events to fold");
            ExitCode::FAILURE
        }
        Ok(folded) => {
            print!("{folded}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{path}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Renders the event stream as Perfetto-importable trace-event JSON
/// (stdout, or `-o <file>`). With `--diff A.json B.json`, instead
/// structurally compares two already-rendered traces: per-name span
/// counts and total durations, plus parent→child nestings present in one
/// trace but not the other.
fn obstrace(args: &[String]) -> ExitCode {
    if args.first().map(String::as_str) == Some("--diff") {
        let (Some(path_a), Some(path_b)) = (args.get(1), args.get(2)) else {
            eprintln!("qres obstrace --diff <a.json> <b.json>");
            return ExitCode::from(2);
        };
        let parse = |path: &str| -> Result<qres_json::Value, String> {
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            qres_json::Value::parse(&text).map_err(|e| format!("{path}: not valid JSON: {e}"))
        };
        let (a, b) = match (parse(path_a), parse(path_b)) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        return match qres::obs::diff_traces(&a, &b, path_a, path_b) {
            Ok(report) => {
                print!("{report}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(path) = args.first() else {
        eprintln!("qres obstrace <events.jsonl> [-o trace.json]");
        return ExitCode::from(2);
    };
    let out_path = flag_value(args, "-o");
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("reading {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let doc = match qres::obs::perfetto_trace(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let rendered = doc.to_compact_string();
    match out_path {
        Some(out) => {
            if let Err(e) = std::fs::write(out, &rendered) {
                eprintln!("writing {out}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("[obs] trace -> {out} (open at ui.perfetto.dev)");
            ExitCode::SUCCESS
        }
        None => {
            println!("{rendered}");
            ExitCode::SUCCESS
        }
    }
}

/// Renders the Eq.-4 prediction-calibration report (reliability diagram,
/// Brier score, per-`prev`-cell breakdown) from the `obs_calib.json`
/// written by `--obs` — also accepts a bare calibration snapshot or a
/// `/qos` scrape body.
fn obscalib(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("qres obscalib <obs_calib.json>");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("reading {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let doc = match qres_json::Value::parse(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{path}: not valid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    match qres::obs::render_calib_report(&doc) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{path}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Diffs two metrics snapshots (`/metrics.json` bodies, or run reports
/// embedding one under `"obs"`) metric by metric. `--fail-on SPEC` turns
/// the diff into a CI gate: SPEC is a comma-separated list of clauses
/// (`counters`, `alerts`, `qos`, `NAME>X`, `p_hd>X`, `p_cb>X`,
/// `violation_secs>X`); any violated clause prints and the exit code goes
/// nonzero.
fn obsdiff(args: &[String]) -> ExitCode {
    let fail_on = match flag_value(args, "--fail-on") {
        None if args.iter().any(|a| a == "--fail-on") => {
            eprintln!("--fail-on requires a spec (e.g. counters,p_hd>0.001)");
            return ExitCode::from(2);
        }
        spec => spec,
    };
    let files: Vec<&String> = {
        let mut skip = false;
        args.iter()
            .filter(|a| {
                if skip {
                    skip = false;
                    return false;
                }
                if *a == "--fail-on" {
                    skip = true;
                    return false;
                }
                true
            })
            .collect()
    };
    let (Some(path_a), Some(path_b)) = (files.first(), files.get(1)) else {
        eprintln!("qres obsdiff <a.json> <b.json> [--fail-on SPEC]");
        return ExitCode::from(2);
    };
    let parse = |path: &str| -> Result<qres_json::Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        qres_json::Value::parse(&text).map_err(|e| format!("{path}: not valid JSON: {e}"))
    };
    let (a, b) = match (parse(path_a), parse(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match qres::obs::diff_snapshots(&a, &b, path_a, path_b) {
        Ok(report) => print!("{report}"),
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(spec) = fail_on {
        match qres::obs::check_fail_on(&a, &b, spec) {
            Ok(violations) if violations.is_empty() => {
                println!("--fail-on {spec}: clean");
            }
            Ok(violations) => {
                for v in &violations {
                    eprintln!("--fail-on violated: {v}");
                }
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("--fail-on {spec}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    ExitCode::SUCCESS
}

/// `qres obswatch <file>`: offline alert-timeline replay. Accepts the
/// `--obs` JSONL event spill (replays `alert_transition` events), the
/// written `obs_alerts.json`, or any snapshot embedding an `"alerts"`
/// section, and renders the rule/cell timeline as text.
fn obswatch(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("qres obswatch <obs_events.jsonl | obs_alerts.json | snapshot.json>");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("reading {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match qres::obs::render_watch(&text) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{path}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `qres obsexplain <file>`: renders a flight-recorder document (the
/// `obs_flight.json` tape, an alert capture `obs_flight_<cell>_<ts>.json`,
/// or any snapshot embedding a `"flight"` section) as a per-cell
/// admission report naming the dominant denial cause, with a full
/// input-by-input breakdown of each cell's most recent denial.
fn obsexplain(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("qres obsexplain <obs_flight.json | obs_flight_CELL_TS.json>");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("reading {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let doc = match qres_json::Value::parse(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{path}: not valid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    match qres::obs::render_explain(&doc) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{path}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `qres obsreplay <file>`: re-executes every decision in a
/// flight-recorder document through the live admission predicates
/// ([`qres::replay`]) and exits nonzero unless all verdicts reproduce
/// bit-identically.
fn obsreplay(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("qres obsreplay <obs_flight.json | obs_flight_CELL_TS.json>");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("reading {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let doc = match qres_json::Value::parse(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{path}: not valid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    match qres::replay::replay_flight_doc(&doc) {
        Ok(summary) => {
            print!("{}", qres::replay::render_summary(&summary));
            if summary.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{path}: {e}");
            ExitCode::FAILURE
        }
    }
}
