//! `qres` — run hand-off reservation simulations from JSON scenario files.
//!
//! ```text
//! qres template [stationary|time-varying|wired|metro]   print a scenario template
//! qres run <scenario.json> [--json] [--obs] [--no-flight]
//! qres sweep <scenario.json> [--loads 60,120,300] [--obs] [--no-flight]
//! qres obs calib <obs.json>                          Eq.-4 calibration report
//! qres obs diff <a.json> <b.json> [--fail-on SPEC]   diff two snapshots
//! qres obs alerts <obs.json>                         cells above P_HD,target
//! qres obs explain <obs.json | capture.json>         explain recorded admissions
//! qres obs replay <obs.json | capture.json>          re-execute recorded verdicts
//! ```
//!
//! A scenario file is the JSON form of [`qres::sim::Scenario`]; start from
//! `qres template`, edit, run. `--json` emits the full
//! [`qres::sim::RunResult`] (per-cell summaries, traces, hourly series)
//! for downstream tooling. Every subcommand exits 2 on a flag it does not
//! take, a bad flag value, or a missing or extra file argument; `run`
//! and `sweep` exit 1 on a scenario that fails validation at any swept
//! load. The `metro` template is the 32×32 hex grid (1024 cells).
//!
//! `--obs` switches telemetry on for the run and, at the end, writes
//! `obs.json` into the working directory ([`qres::obs::write_obs_json`]:
//! counters, gauges, histograms, QoS conformance against the scenario's
//! `p_hd_target` and Eq.-4 calibration, and the flight recorder's
//! decision tape). `run` and `sweep` reject `--no-flight` without
//! `--obs`.
//!
//! The **flight recorder** tapes every admission decision — requested
//! BUs, link occupancy, the reservation threshold with its per-neighbor
//! `B_i,0` terms, each AC2/AC3 neighbor check, and the verdict — into a
//! bounded ring (`--no-flight` switches it off). Every 60 simulated
//! seconds, a cell whose `P_HD` burns its budget against `p_hd_target` in
//! both a fast 5-min window and the 1-h QoS window freezes its record
//! window to `obs_flight_<cell>_<ts>.json` (`_<ordinal>` appended when
//! the run already wrote that name), once per episode. A scenario
//! with a low `p_hd_target` forces such a violation drill.
//!
//! `qres obs <view> <file>` reads the sections of an `obs.json` it needs:
//!
//! * `calib` renders the reliability diagram, Brier score and its skill
//!   over climatology, and the per-`prev`-cell breakdown of `qos.calib`.
//! * `diff` compares two snapshots metric by metric, including per-cell
//!   QoS movement. `--fail-on SPEC` gates on it: a comma-separated list
//!   of `counters`, `qos`, `NAME>X`, `p_hd>X`, `p_cb>X`,
//!   `violation_secs>X` clauses (`X` finite and `>= 0`); a violated clause
//!   exits 1, a malformed or empty SPEC exits 2.
//! * `alerts` lists the cells of `qos` whose violation clock ran, most
//!   violating first, how many cells sat above `P_HD,target`, and the
//!   flight captures.
//! * `explain` renders the `flight` records, or a capture's, as a
//!   per-cell denial-cause report.
//! * `replay` re-executes those records through the same admission
//!   predicates the live system ran and exits 1 unless every verdict
//!   reproduces bit-identically.

use std::path::Path;
use std::process::ExitCode;

use qres::obs::OBS_JSON_PATH;
use qres::sim::report::{cell_status_table, SeriesTable};
use qres::sim::scenario::WiredConfig;
use qres::sim::{run_scenario, Scenario, SchemeKind, TimeVaryingConfig};

/// The flags `qres run` takes.
const RUN_FLAGS: Flags = Flags {
    usage: "qres run <scenario.json> [--json] [--obs] [--no-flight]",
    files: &["<scenario.json>"],
    switches: &["--json", "--obs", "--no-flight"],
    valued: &[],
};

/// The flags `qres sweep` takes.
const SWEEP_FLAGS: Flags = Flags {
    usage: "qres sweep <scenario.json> [--loads 60,120,300] [--obs] [--no-flight]",
    files: &["<scenario.json>"],
    switches: &["--obs", "--no-flight"],
    valued: &["--loads"],
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("template") => template(args.get(1).map(String::as_str)),
        Some("run") => exit_code(run(&args[1..])),
        Some("sweep") => exit_code(sweep(&args[1..])),
        Some("obs") => exit_code(obs(&args[1..])),
        other => {
            if let Some(other) = other {
                eprintln!("unknown subcommand `{other}`");
            }
            eprintln!(
                "usage:\n  qres template [stationary|time-varying|wired|metro]\n  {}\n  {}\n  {}",
                RUN_FLAGS.usage,
                SWEEP_FLAGS.usage,
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

/// Why `run` or `sweep` stopped.
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

    /// `--loads 60,120,300`, defaulting to the paper's load grid.
    fn loads(&self) -> Result<Vec<f64>, Failure> {
        let Some(raw) = self.value("--loads") else {
            return Ok(qres::sim::runner::paper_load_grid());
        };
        (raw.split(',').map(|l| l.trim().parse().ok()))
            .collect::<Option<Vec<f64>>>()
            .ok_or_else(|| {
                Failure::Usage(format!(
                    "--loads expects a comma-separated list of numbers, got `{raw}`"
                ))
            })
    }
}

/// Whether `--obs` is on. `--no-flight` without it is a usage error:
/// nothing would read it.
fn obs_flag(cli: &Cli<'_>) -> Result<bool, Failure> {
    let obs = cli.has("--obs");
    if cli.has("--no-flight") && !obs {
        return Err(Failure::Usage("--no-flight requires --obs".into()));
    }
    Ok(obs)
}

/// Switches telemetry on. Flight captures (`obs_flight_<cell>_<ts>.json`)
/// land in the working directory unless `--no-flight` switched the tape
/// off.
fn start_obs(cli: &Cli<'_>) {
    qres::obs::set_level(qres::obs::Level::Info);
    if cli.has("--no-flight") {
        qres::obs::set_flight_enabled(false);
    } else {
        qres::obs::set_flight_capture_dir(Some(std::path::PathBuf::from(".")));
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

/// Writes the run's telemetry to [`OBS_JSON_PATH`]
/// ([`qres::obs::write_obs_json`]); unless `quiet`, names it.
fn obs_finish(quiet: bool) -> Result<(), Failure> {
    qres::obs::write_obs_json(Path::new(OBS_JSON_PATH))
        .map_err(|e| Failure::Run(format!("cannot write {OBS_JSON_PATH}: {e}")))?;
    if !quiet {
        println!("[obs] {OBS_JSON_PATH}");
    }
    Ok(())
}

fn run(args: &[String]) -> Result<(), Failure> {
    let cli = Cli::parse(args, &RUN_FLAGS)?;
    let as_json = cli.has("--json");
    let obs = obs_flag(&cli)?;
    let scenario = load_scenario(cli.files[0]).map_err(Failure::Run)?;
    if obs {
        start_obs(&cli);
    }
    let result = run_scenario(&scenario);
    if as_json {
        println!("{}", qres_json::to_string_pretty(&result));
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
    Ok(())
}

fn sweep(args: &[String]) -> Result<(), Failure> {
    let cli = Cli::parse(args, &SWEEP_FLAGS)?;
    let obs = obs_flag(&cli)?;
    let loads = cli.loads()?;
    let base = load_sweep(cli.files[0], &loads)?;
    if obs {
        start_obs(&cli);
    }
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

/// One `qres obs` view: the arguments it takes and what it prints.
struct View {
    name: &'static str,
    flags: Flags,
    show: fn(&Cli<'_>) -> Result<(), Failure>,
}

/// The `qres obs` views over the `obs.json` that `--obs` writes.
const VIEWS: [View; 5] = [
    View {
        name: "calib",
        flags: Flags {
            usage: "qres obs calib <obs.json>",
            files: &["<obs.json>"],
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
            usage: "qres obs alerts <obs.json>",
            files: &["<obs.json>"],
            switches: &[],
            valued: &[],
        },
        show: show_alerts,
    },
    View {
        name: "explain",
        flags: Flags {
            usage: "qres obs explain <obs.json | obs_flight_CELL_TS.json>",
            files: &["<obs.json>"],
            switches: &[],
            valued: &[],
        },
        show: show_explain,
    },
    View {
        name: "replay",
        flags: Flags {
            usage: "qres obs replay <obs.json | obs_flight_CELL_TS.json>",
            files: &["<obs.json>"],
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

fn read_json(path: &str) -> Result<qres_json::Value, Failure> {
    let text =
        std::fs::read_to_string(path).map_err(|e| Failure::Run(format!("reading {path}: {e}")))?;
    qres_json::Value::parse(&text).map_err(|e| Failure::Run(format!("{path}: not valid JSON: {e}")))
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
    print_report(path, qres::obs::render_alerts(&read_json(path)?))
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

/// Prints the diff; with `--fail-on SPEC`, rejects a malformed SPEC
/// (exit 2) before reading either file, and fails (exit 1) on a violated
/// clause.
fn show_diff(cli: &Cli<'_>) -> Result<(), Failure> {
    let (path_a, path_b) = (cli.files[0], cli.files[1]);
    let gate = cli
        .value("--fail-on")
        .map(|spec| {
            let gate = qres::obs::FailOn::parse(spec)
                .map_err(|e| Failure::Usage(format!("--fail-on {spec}: {e}")))?;
            Ok((spec, gate))
        })
        .transpose()?;
    let (a, b) = (read_json(path_a)?, read_json(path_b)?);
    print!(
        "{}",
        qres::obs::diff_snapshots(&a, &b, path_a, path_b).map_err(Failure::Run)?
    );
    let Some((spec, gate)) = gate else {
        return Ok(());
    };
    let violations = gate
        .check(&a, &b)
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
