//! `qres-perf` — run one benchmark workload and print its metrics.
//!
//! ```text
//! qres-perf --workload NAME [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The exit code is 0 when
//! every output check passed, 1 when one failed, and 2 on a usage error or
//! an unoptimized build.

use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use qres_json::Value;
use qres_perf::check::{check_run, digest};
use qres_perf::report::{layer_values, END_TO_END, PER_LAYER};
use qres_perf::traced::{calibrate, probe, SpanCost, TracedEngine, Tracer};
use qres_perf::workloads::{find, rep_seed, Workload, WORKLOADS};
use qres_perf::{median, quartiles, reference, reset_obs};
use qres_sim::{Engine, RunResult, Scenario};

const USAGE: &str = "usage: qres-perf --workload NAME [--seed N] [--seconds N] [--trace 0|1]";

/// Seed whose outputs `workloads.rs` pins.
const GOLDEN_SEED: u64 = 1;
/// Reference-job runs before the first repetition and after the last;
/// one more follows each repetition.
const REFERENCE_RUNS: usize = 5;
/// Cap on repetitions, whatever `--seconds` allows.
const MAX_REPS: usize = 50;
/// Tracing cost a traced run aims at, as a share of the untraced run, by
/// the calibrated span cost and assuming this many timed layer calls per
/// event (the workloads make 7 to 12). A clock read also slows the work
/// around it, so the measured overhead is larger.
const TRACE_BUDGET: f64 = 0.02;
const SPANS_PER_EVENT: f64 = 12.0;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(find(&name).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{name}` (one of: {})", names.join(", "))
                })?);
            }
            "--seed" => {
                let v = value()?;
                seed = v
                    .parse()
                    .map_err(|_| format!("--seed takes an unsigned integer, got `{v}`"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse()
                    .ok()
                    .filter(|&s| s > 0)
                    .ok_or(format!("--seconds takes a positive integer, got `{v}`"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Operations attempted and failed; an operation is one checked run.
#[derive(Default)]
struct Ops {
    attempted: u64,
    failed: u64,
}

impl Ops {
    fn record(&mut self, what: &str, failures: Vec<String>) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            for f in failures {
                eprintln!("FAILED {what}: {f}");
            }
        }
    }
}

fn main() -> ExitCode {
    // The measurement budget covers everything the process does,
    // the pinned check and the span-cost calibration included.
    let start = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("qres-perf: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("qres-perf: refusing to measure a build with debug assertions; use --release");
        return ExitCode::from(2);
    }
    let w = args.workload;
    let provenance = provenance(w, args.seed);
    println!("provenance {provenance}");
    if w.obs {
        qres_obs::set_level(qres_obs::Level::Info);
    }
    let mut ops = Ops::default();
    ops.record("pinned check", pinned_check(w));
    let budget = (start, Duration::from_secs(args.seconds));
    let metrics = if args.trace {
        traced(w, args.seed, budget, &provenance, &mut ops)
    } else {
        end_to_end(w, args.seed, budget, &mut ops)
    };
    let correct = ops.failed == 0;
    let metrics = metrics
        .into_iter()
        .map(|(name, value, unit)| {
            let body = Value::Object(vec![
                ("value".into(), Value::Float(value)),
                ("unit".into(), Value::Str(unit.into())),
            ]);
            (name.to_string(), body)
        })
        .collect();
    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::UInt(ops.attempted)),
        ("failed".into(), Value::UInt(ops.failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    println!("{}", result.to_compact_string());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The short fixed input every invocation checks bit for bit, whatever
/// its `--seed`.
fn pinned_check(w: &Workload) -> Vec<String> {
    let scenario = w.scenario(GOLDEN_SEED, w.check_secs);
    let target = scenario.p_hd_target;
    reset_obs();
    let r = Engine::new(scenario).run();
    println!("pinned check: digest {:#018x}", digest(&r));
    check_run(w, &r, target, Some(w.check_golden))
}

fn golden_for(w: &Workload, seed: u64) -> Option<u64> {
    (seed == GOLDEN_SEED).then_some(w.golden)
}

/// Times `Engine::new` (set-up) and `Engine::run` on one scenario.
fn timed_run(scenario: Scenario) -> (f64, f64, RunResult) {
    reset_obs();
    let t0 = Instant::now();
    let engine = Engine::new(scenario);
    let setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let result = engine.run();
    (setup_s, t1.elapsed().as_secs_f64(), result)
}

/// The process's start and its measurement budget.
type Budget = (Instant, Duration);

/// Whether another repetition, as long as the mean of the `done` ones
/// since `loop_start`, still ends within the budget.
fn another_fits((start, seconds): Budget, loop_start: Instant, done: usize) -> bool {
    let per_rep = loop_start.elapsed() / done.max(1) as u32;
    done < MAX_REPS && start.elapsed() + per_rep <= seconds
}

fn end_to_end(
    w: &Workload,
    seed: u64,
    budget: Budget,
    ops: &mut Ops,
) -> Vec<(&'static str, f64, &'static str)> {
    let mut setup = Vec::new();
    let (mut sim_rate, mut adm_rate) = (Vec::new(), Vec::new());
    let (mut hd, mut cb) = ((0u64, 0u64), (0u64, 0u64));
    // Reference-job times, taken before, between and after the
    // repetitions; their median is the host's speed over the run.
    let mut reference_s: Vec<f64> = (0..REFERENCE_RUNS).map(|_| reference::time_s()).collect();
    let loop_start = Instant::now();
    let mut k = 0;
    while k < w.qos_reps || another_fits(budget, loop_start, k) {
        let rep = rep_seed(seed, k);
        let scenario = w.scenario(rep, w.rep_secs);
        let target = scenario.p_hd_target;
        let (setup_s, wall_s, r) = timed_run(scenario);
        reference_s.push(reference::time_s());
        setup.push(setup_s);
        sim_rate.push(w.rep_secs / wall_s);
        adm_rate.push(r.system_cb.trials() as f64 / wall_s);
        if k < w.qos_reps {
            hd = (hd.0 + r.system_hd.hits(), hd.1 + r.system_hd.trials());
            cb = (cb.0 + r.system_cb.hits(), cb.1 + r.system_cb.trials());
        }
        println!(
            "rep {k}: seed {rep} wall {wall_s:.4} s, {} admissions, P_HD {:.6}, P_CB {:.6}, digest {:#018x}",
            r.system_cb.trials(),
            r.p_hd(),
            r.p_cb(),
            digest(&r)
        );
        let golden = if k == 0 { golden_for(w, seed) } else { None };
        ops.record(&format!("rep {k}"), check_run(w, &r, target, golden));
        k += 1;
    }
    reference_s.extend((0..REFERENCE_RUNS).map(|_| reference::time_s()));
    // How much slower than the nominal host the host ran; every time is
    // rescaled to the nominal host.
    let slowdown = summarize("reference_job_s", &reference_s) / reference::NOMINAL_S;
    println!("host slowdown {slowdown:.4}: the medians below are wall-clock, the result divides times by it");
    let values = [
        summarize("setup_s", &setup) / slowdown,
        summarize("sim_s_per_wall_s", &sim_rate) * slowdown,
        summarize("admissions_per_s", &adm_rate) * slowdown,
        peak_rss_mib(),
        hd.0 as f64 / hd.1.max(1) as f64,
        cb.0 as f64 / cb.1.max(1) as f64,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect()
}

/// Prints a metric's median with its quartiles and sample count, and
/// returns the median.
fn summarize(name: &str, samples: &[f64]) -> f64 {
    let (q1, mid, q3) = quartiles(samples);
    println!(
        "{name}: median {mid:.6e}, IQR {q1:.6e}..{q3:.6e} ({:.2}% of median), n {}",
        (q3 - q1) / mid * 100.0,
        samples.len()
    );
    mid
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(f64::NAN);
    kib / 1024.0
}

fn traced(
    w: &Workload,
    seed: u64,
    budget: Budget,
    provenance: &str,
    ops: &mut Ops,
) -> Vec<(&'static str, f64, &'static str)> {
    let cost = calibrate();
    let mut every = 0;
    let mut pairs: Vec<[f64; PER_LAYER.len()]> = Vec::new();
    let loop_start = Instant::now();
    while pairs.is_empty() || another_fits(budget, loop_start, pairs.len()) {
        let scenario = w.scenario(seed, w.rep_secs);
        let target = scenario.p_hd_target;
        reset_obs();
        let mut engine = Engine::new(scenario.clone());
        let t0 = Instant::now();
        let untraced = engine.run_keeping_state();
        let untraced_wall_s = t0.elapsed().as_secs_f64();
        let untraced_probe = probe(engine.system_mut());
        drop(engine);
        if every == 0 {
            every = sampling_stride(untraced.events_dispatched, untraced_wall_s, cost);
        }
        reset_obs();
        let run = match TracedEngine::new(scenario, cost) {
            Ok(e) => e.run(every),
            Err(msg) => {
                ops.record("traced run", vec![msg]);
                return Vec::new();
            }
        };
        let mut failures = check_run(w, &run.result, target, golden_for(w, seed));
        if qres_json::to_string(&run.result) != qres_json::to_string(&untraced) {
            failures.push("traced RunResult differs from Engine::run's".into());
        }
        if run.probe != untraced_probe {
            failures.push(format!(
                "traced system state {:?} differs from Engine::run's {:?}",
                run.probe, untraced_probe
            ));
        }
        ops.record(&format!("traced pair {}", pairs.len()), failures);
        println!(
            "pair {}: untraced {untraced_wall_s:.4} s, traced {:.4} s, every {every}th event timed",
            pairs.len(),
            run.wall_s
        );
        if pairs.is_empty() {
            write_spans(w, seed, provenance, &run.tracer);
        }
        pairs.push(layer_values(&run, untraced_wall_s));
    }
    PER_LAYER
        .iter()
        .enumerate()
        .map(|(i, &(name, unit))| {
            let samples: Vec<f64> = pairs.iter().map(|p| p[i]).collect();
            let v = median(&samples);
            println!("{name}: {v:.6e} {unit} (median of {})", samples.len());
            (name, v, unit)
        })
        .collect()
}

/// Times every k-th event, with k such that the calibrated span cost adds
/// about `TRACE_BUDGET` to a run whose events cost what the untraced
/// run's did.
fn sampling_stride(events: u64, wall_s: f64, cost: SpanCost) -> u64 {
    let event_ns = wall_s * 1e9 / events.max(1) as f64;
    let k = SPANS_PER_EVENT * cost.child_ns() / (TRACE_BUDGET * event_ns);
    (k.round() as u64).max(1)
}

fn write_spans(w: &Workload, seed: u64, provenance: &str, tracer: &Tracer) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans_{}_seed{seed}.json", w.name));
    match std::fs::create_dir_all(&dir).and_then(|()| tracer.write_spans(&path, provenance)) {
        Ok(()) => println!("spans: {}", path.display()),
        Err(e) => eprintln!("qres-perf: could not write {}: {e}", path.display()),
    }
}

/// Host, build and input stamp, as a JSON object.
fn provenance(w: &Workload, seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let (rev, dirty) = git_revision();
    Value::Object(vec![
        ("nproc".into(), Value::UInt(nproc as u64)),
        ("rev".into(), Value::Str(rev)),
        ("dirty".into(), dirty.map_or(Value::Null, Value::Bool)),
        ("cpu".into(), Value::Str(cpu)),
        ("workload".into(), Value::Str(w.name.into())),
        ("seed".into(), Value::UInt(seed)),
    ])
    .to_compact_string()
}

/// The checkout's git revision and whether tracked files differ from it;
/// `("unknown", None)` outside a git work tree.
fn git_revision() -> (String, Option<bool>) {
    let git = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    if !Path::new(".git").exists() {
        return ("unknown".into(), None);
    }
    match git(&["rev-parse", "HEAD"]) {
        Some(rev) => {
            let dirty =
                git(&["status", "--porcelain", "--untracked-files=no"]).map(|s| !s.is_empty());
            (rev, dirty)
        }
        None => ("unknown".into(), None),
    }
}
