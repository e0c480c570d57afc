//! Decision-provenance flight recorder: a bounded ring "black box" of
//! complete admission decision records.
//!
//! Every admission verdict (any scheme) can be taped here with
//! its full input vector: the requested BU, the cell's occupancy and
//! capacity, the reserve threshold compared against, and — for the
//! predictive schemes — the per-neighbor `B_i,0` contributions with their
//! Eq.-4 `p_h` sums, plus every AC2/AC3 neighbor feasibility check in rank
//! order. Records are keyed by the simulator's `admission_req_seq`, so a
//! record is a globally unique, replayable account of one decision.
//!
//! The simulation thread stages a decision's terms and checks in
//! thread-local buffers while the admission test runs, then assembles and
//! pushes the record once the verdict is in. The recorder is strictly
//! passive — on or off, every simulation output is bit-identical.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use qres_json::{FromJson, ToJson, Value};

/// Default decision-record ring capacity.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;

/// How many trailing records of a cell an alert-triggered capture freezes.
pub const CAPTURE_WINDOW: usize = 256;

/// One per-neighbor `B_i,0` contribution inside a decision record.
///
/// `p_h_sum`/`conns` carry the Eq.-4 detail (sum of remaining-handoff
/// probabilities over the `conns` connections that contributed) when the
/// term was freshly evaluated; a memo hit reuses a prior evaluation and
/// carries no detail.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightTerm {
    /// Contributing neighbor cell id.
    pub neighbor: u32,
    /// The `B_i,0` value folded into `B_r` (BUs).
    pub value: f64,
    /// True when the tolerance memo served this term without re-evaluation.
    pub memo_hit: bool,
    /// Sum of per-connection `p_h` terms behind `value` (fresh evals only).
    pub p_h_sum: Option<f64>,
    /// Number of connections that contributed to `p_h_sum`.
    pub conns: Option<u32>,
}

qres_json::json_struct!(FlightTerm {
    neighbor,
    value,
    memo_hit,
    p_h_sum,
    conns
});

/// One AC2/AC3 neighbor feasibility check, in visit (rank) order.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightCheck {
    /// 1-based neighbor rank in the admission loop.
    pub rank: u8,
    /// The neighbor cell id checked.
    pub neighbor: u32,
    /// The neighbor's own `B_r` at check time (BUs).
    pub br: f64,
    /// The neighbor's occupied bandwidth (BUs).
    pub used: f64,
    /// The neighbor's link capacity (BUs).
    pub capacity: f64,
    /// Whether the check passed (`used <= capacity - br`).
    pub ok: bool,
}

qres_json::json_struct!(FlightCheck {
    rank,
    neighbor,
    br,
    used,
    capacity,
    ok
});

/// A complete admission decision record.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecord {
    /// The `admission_req_seq` that keys this decision.
    pub req: u64,
    /// Sim time of the decision (seconds).
    pub t: f64,
    /// The cell the new connection arrived at.
    pub cell: u32,
    /// Admission scheme label (`AC1`, `AC2`, `AC3`, `static(g)`, `NS`).
    pub scheme: String,
    /// Requested bandwidth (BUs).
    pub bu: f64,
    /// Occupied bandwidth in the cell at decision time (BUs).
    pub used: f64,
    /// Link capacity of the cell (BUs).
    pub capacity: f64,
    /// The reserve threshold compared against (`B_r`, a static guard, or
    /// the NS fractional sum, per `scheme`).
    pub reserve: f64,
    /// The cell's adaptive estimation window `T_est` (seconds).
    pub t_est_secs: f64,
    /// Per-neighbor `B_i,0` terms behind `reserve` (empty for static).
    pub terms: Vec<FlightTerm>,
    /// AC2/AC3 neighbor feasibility checks, in rank order.
    pub checks: Vec<FlightCheck>,
    /// The verdict.
    pub admitted: bool,
    /// For AC2/AC3 denials vetoed remotely: the 1-based blocking rank.
    pub blocked_rank: Option<u8>,
}

qres_json::json_struct!(FlightRecord {
    req,
    t,
    cell,
    scheme,
    bu,
    used,
    capacity,
    reserve,
    t_est_secs,
    terms,
    checks,
    admitted,
    blocked_rank
});

/// Recorder switch, independent of the obs level so the overhead of the
/// decision tape can be measured (and disabled) separately.
static FLIGHT_ON: AtomicBool = AtomicBool::new(true);

struct FlightPlane {
    records: VecDeque<FlightRecord>,
    capacity: usize,
    dropped: u64,
    captures: Vec<String>,
    capture_dir: Option<PathBuf>,
}

static PLANE: Mutex<FlightPlane> = Mutex::new(FlightPlane {
    records: VecDeque::new(),
    capacity: DEFAULT_FLIGHT_CAPACITY,
    dropped: 0,
    captures: Vec::new(),
    capture_dir: None,
});

thread_local! {
    /// Unkeyed Eq.-4 scratch: set by `neighbor_contribution` on a fresh
    /// evaluation, taken immediately by the memo layer on the same thread.
    static EVAL_DETAIL: Cell<Option<(f64, u32)>> = const { Cell::new(None) };
    /// Driver-side `B_r` term vectors keyed by `(req, target)`.
    static STAGED_TERMS: RefCell<Vec<(u64, u32, Vec<FlightTerm>)>> =
        const { RefCell::new(Vec::new()) };
    /// Driver-side AC2/AC3 checks for the in-flight admission.
    static STAGED_CHECKS: RefCell<Vec<FlightCheck>> = const { RefCell::new(Vec::new()) };
}

/// The hot-path gate: true when telemetry is on and the flight recorder
/// has not been independently disabled.
#[inline(always)]
pub fn flight_enabled() -> bool {
    crate::recorder::enabled() && FLIGHT_ON.load(Ordering::Relaxed)
}

/// Switches the flight recorder independently of the obs level.
pub fn set_flight_enabled(on: bool) {
    FLIGHT_ON.store(on, Ordering::Relaxed);
}

/// Sets the decision-record ring capacity (oldest evicted beyond it).
pub fn set_flight_capacity(cap: usize) {
    assert!(cap > 0, "flight ring capacity must be positive");
    let mut p = PLANE.lock().unwrap();
    while p.records.len() > cap {
        p.records.pop_front();
        p.dropped += 1;
    }
    p.capacity = cap;
}

/// Directory that alert-triggered captures write into. `None` (the
/// default) disables capture files entirely — library runs and tests
/// never touch the filesystem unless the CLI opts in.
pub fn set_flight_capture_dir(dir: Option<PathBuf>) {
    PLANE.lock().unwrap().capture_dir = dir;
}

/// Stages the Eq.-4 evaluation detail of the contribution the current
/// thread just computed. Same-thread, set-then-take scratch.
#[inline]
pub fn stage_eval_detail(p_h_sum: f64, conns: u32) {
    EVAL_DETAIL.with(|c| c.set(Some((p_h_sum, conns))));
}

/// Takes the staged evaluation detail (None after a memo hit).
#[inline]
pub fn take_eval_detail() -> Option<(f64, u32)> {
    EVAL_DETAIL.with(Cell::take)
}

/// Stages the per-neighbor term vector a `compute_br` call produced, keyed
/// by `(req, target)`; the admission record assembly takes it back.
pub fn stage_terms(req: u64, target: u32, terms: Vec<FlightTerm>) {
    STAGED_TERMS.with(|t| t.borrow_mut().push((req, target, terms)));
}

/// Takes the staged term vector for `(req, target)` — the requesting
/// cell's own `B_r` breakdown — and clears everything else staged (terms
/// from neighbor-side `B_r` computations in the same admission, and any
/// leftovers from periodic recomputations between admissions).
pub fn take_terms(req: u64, target: u32) -> Vec<FlightTerm> {
    STAGED_TERMS.with(|t| {
        let mut staged = t.borrow_mut();
        let found = staged
            .iter()
            .position(|(r, c, _)| *r == req && *c == target)
            .map(|i| staged.remove(i).2)
            .unwrap_or_default();
        staged.clear();
        found
    })
}

/// Stages one AC2/AC3 neighbor feasibility check for the in-flight
/// admission.
pub fn stage_check(check: FlightCheck) {
    STAGED_CHECKS.with(|c| c.borrow_mut().push(check));
}

/// Takes (and clears) the staged feasibility checks.
pub fn take_checks() -> Vec<FlightCheck> {
    STAGED_CHECKS.with(|c| std::mem::take(&mut *c.borrow_mut()))
}

/// Pushes a completed decision record into the ring (evicting the oldest
/// beyond capacity).
pub fn record(rec: FlightRecord) {
    let mut p = PLANE.lock().unwrap();
    if p.records.len() >= p.capacity {
        p.records.pop_front();
        p.dropped += 1;
    }
    p.records.push_back(rec);
}

/// Names the dominant factor behind a record's verdict.
///
/// * `admitted` — the request was accepted;
/// * `neighbor_veto` — an AC2/AC3 neighbor feasibility check failed;
/// * `link_full` — the request does not fit even with zero reserve;
/// * `reservation_pressure` — raw capacity existed, but the reserve
///   threshold (`B_r`, guard, or NS sum) claimed it.
pub fn denial_cause(rec: &FlightRecord) -> &'static str {
    if rec.admitted {
        "admitted"
    } else if rec.blocked_rank.is_some() {
        "neighbor_veto"
    } else if rec.used + rec.bu > rec.capacity {
        "link_full"
    } else {
        "reservation_pressure"
    }
}

fn record_with_cause(rec: &FlightRecord) -> Value {
    let Value::Object(mut fields) = rec.to_json() else {
        unreachable!("FlightRecord serializes to an object");
    };
    fields.push((
        "cause".to_string(),
        Value::Str(denial_cause(rec).to_string()),
    ));
    Value::Object(fields)
}

/// The full flight document: ring status plus every buffered record.
pub fn flight_json() -> Value {
    let p = PLANE.lock().unwrap();
    Value::Object(vec![
        ("enabled".to_string(), Value::Bool(flight_enabled())),
        ("capacity".to_string(), Value::UInt(p.capacity as u64)),
        ("len".to_string(), Value::UInt(p.records.len() as u64)),
        ("dropped".to_string(), Value::UInt(p.dropped)),
        (
            "captures".to_string(),
            Value::Array(p.captures.iter().map(|c| Value::Str(c.clone())).collect()),
        ),
        (
            "records".to_string(),
            Value::Array(p.records.iter().map(ToJson::to_json).collect()),
        ),
    ])
}

/// Compact flight section for the metrics snapshot: status and verdict
/// tallies, no record bodies.
pub fn flight_summary_json() -> Value {
    let p = PLANE.lock().unwrap();
    let mut admitted = 0u64;
    let mut denied = 0u64;
    let mut causes = [
        ("link_full", 0u64),
        ("reservation_pressure", 0),
        ("neighbor_veto", 0),
    ];
    for rec in &p.records {
        if rec.admitted {
            admitted += 1;
        } else {
            denied += 1;
            let cause = denial_cause(rec);
            if let Some(slot) = causes.iter_mut().find(|(name, _)| *name == cause) {
                slot.1 += 1;
            }
        }
    }
    Value::Object(vec![
        ("enabled".to_string(), Value::Bool(flight_enabled())),
        ("capacity".to_string(), Value::UInt(p.capacity as u64)),
        ("len".to_string(), Value::UInt(p.records.len() as u64)),
        ("dropped".to_string(), Value::UInt(p.dropped)),
        ("admitted".to_string(), Value::UInt(admitted)),
        ("denied".to_string(), Value::UInt(denied)),
        (
            "causes".to_string(),
            Value::Object(
                causes
                    .iter()
                    .map(|(name, n)| (name.to_string(), Value::UInt(*n)))
                    .collect(),
            ),
        ),
        ("captures".to_string(), Value::UInt(p.captures.len() as u64)),
    ])
}

/// Answers `/explain`: by request sequence (`req`), by cell with a `last`
/// window, or — with neither — the last `last` records overall. Each
/// returned record carries its classified `cause`.
pub fn explain_json(req: Option<u64>, cell: Option<u32>, last: usize) -> Value {
    let p = PLANE.lock().unwrap();
    let last = last.max(1);
    let selected: Vec<&FlightRecord> = match (req, cell) {
        (Some(r), _) => p.records.iter().filter(|rec| rec.req == r).collect(),
        (None, Some(c)) => {
            let matching: Vec<&FlightRecord> =
                p.records.iter().filter(|rec| rec.cell == c).collect();
            let skip = matching.len().saturating_sub(last);
            matching[skip..].to_vec()
        }
        (None, None) => {
            let skip = p.records.len().saturating_sub(last);
            p.records.iter().skip(skip).collect()
        }
    };
    let mut query = Vec::new();
    if let Some(r) = req {
        query.push(("req".to_string(), Value::UInt(r)));
    }
    if let Some(c) = cell {
        query.push(("cell".to_string(), Value::UInt(u64::from(c))));
    }
    query.push(("last".to_string(), Value::UInt(last as u64)));
    Value::Object(vec![
        ("query".to_string(), Value::Object(query)),
        ("matched".to_string(), Value::UInt(selected.len() as u64)),
        (
            "records".to_string(),
            Value::Array(selected.iter().map(|r| record_with_cause(r)).collect()),
        ),
    ])
}

/// Extracts the decision records from a flight document: a bare
/// `flight_json()` payload, a capture file, or anything nesting one under
/// `"flight"` or `"obs"` → `"flight"`.
pub fn records_from_doc(doc: &Value) -> Result<Vec<FlightRecord>, String> {
    let holder = if doc.get("records").is_some() {
        doc
    } else if let Some(flight) = doc.get("flight") {
        flight
    } else if let Some(flight) = doc.get("obs").and_then(|o| o.get("flight")) {
        flight
    } else {
        doc
    };
    let records = holder
        .get("records")
        .ok_or("no `records` array in document (not a flight capture?)")?;
    Vec::<FlightRecord>::from_json(records).map_err(|e| format!("bad flight record: {e}"))
}

/// Renders a flight document as a per-cell denial attribution table,
/// naming each cell's dominant denial cause.
pub fn render_explain(doc: &Value) -> Result<String, String> {
    let records = records_from_doc(doc)?;
    let mut out = String::new();
    use std::fmt::Write as _;
    let _ = writeln!(out, "flight records: {}", records.len());
    if records.is_empty() {
        return Ok(out);
    }
    // Per-cell tallies, cell-id order.
    let mut cells: Vec<u32> = records.iter().map(|r| r.cell).collect();
    cells.sort_unstable();
    cells.dedup();
    let _ = writeln!(
        out,
        "{:>6} {:>10} {:>9} {:>7} {:>10} {:>12} {:>14} {:>22}",
        "cell",
        "decisions",
        "admitted",
        "denied",
        "link_full",
        "res_pressure",
        "neighbor_veto",
        "dominant_denial"
    );
    for cell in cells {
        let mut admitted = 0u64;
        let mut full = 0u64;
        let mut pressure = 0u64;
        let mut veto = 0u64;
        for rec in records.iter().filter(|r| r.cell == cell) {
            match denial_cause(rec) {
                "admitted" => admitted += 1,
                "link_full" => full += 1,
                "reservation_pressure" => pressure += 1,
                _ => veto += 1,
            }
        }
        let denied = full + pressure + veto;
        let dominant = if denied == 0 {
            "-"
        } else if full >= pressure && full >= veto {
            "link_full"
        } else if pressure >= veto {
            "reservation_pressure"
        } else {
            "neighbor_veto"
        };
        let _ = writeln!(
            out,
            "{:>6} {:>10} {:>9} {:>7} {:>10} {:>12} {:>14} {:>22}",
            cell,
            admitted + denied,
            admitted,
            denied,
            full,
            pressure,
            veto,
            dominant
        );
    }
    // Show the most recent denial in full, as the walkthrough example.
    if let Some(rec) = records.iter().rev().find(|r| !r.admitted) {
        let _ = writeln!(
            out,
            "last denial: req={} t={:.1}s cell={} scheme={} bu={} used={}/{} reserve={:.3} cause={}",
            rec.req,
            rec.t,
            rec.cell,
            rec.scheme,
            rec.bu,
            rec.used,
            rec.capacity,
            rec.reserve,
            denial_cause(rec)
        );
        for term in &rec.terms {
            let detail = match (term.p_h_sum, term.conns) {
                (Some(p), Some(n)) => format!(" p_h_sum={p:.4} conns={n}"),
                _ if term.memo_hit => " (memo)".to_string(),
                _ => String::new(),
            };
            let _ = writeln!(
                out,
                "  B_i,0[{}] = {:.4}{}",
                term.neighbor, term.value, detail
            );
        }
        for check in &rec.checks {
            let _ = writeln!(
                out,
                "  check rank={} neighbor={} used={} cap={} br={:.3} -> {}",
                check.rank,
                check.neighbor,
                check.used,
                check.capacity,
                check.br,
                if check.ok { "ok" } else { "VETO" }
            );
        }
    }
    Ok(out)
}

/// Freezes the trailing [`CAPTURE_WINDOW`] records of `cell` to
/// `obs_flight_<cell>_<ts>.json` in the configured capture directory.
/// Returns the path written and the record count, or `None` when capture
/// is disabled (no directory) or the cell has no records yet.
pub fn capture_for_cell(cell: u32, now: f64, rule: &str) -> Option<(String, u64)> {
    let mut p = PLANE.lock().unwrap();
    let dir = p.capture_dir.clone()?;
    let matching: Vec<&FlightRecord> = p.records.iter().filter(|r| r.cell == cell).collect();
    if matching.is_empty() {
        return None;
    }
    let skip = matching.len().saturating_sub(CAPTURE_WINDOW);
    let window = &matching[skip..];
    let doc = Value::Object(vec![
        ("rule".to_string(), Value::Str(rule.to_string())),
        ("cell".to_string(), Value::UInt(u64::from(cell))),
        ("t".to_string(), Value::Float(now)),
        (
            "records".to_string(),
            Value::Array(window.iter().map(|r| r.to_json()).collect()),
        ),
    ]);
    let n = window.len() as u64;
    let path = dir.join(format!("obs_flight_{cell}_{}.json", now as u64));
    std::fs::write(&path, doc.to_pretty_string() + "\n").ok()?;
    let path_str = path.display().to_string();
    p.captures.push(path_str.clone());
    Some((path_str, n))
}

/// Appends the flight gauges to the Prometheus exposition.
pub fn prometheus_fragment(out: &mut String) {
    use std::fmt::Write as _;
    let p = PLANE.lock().unwrap();
    out.push_str(
        "# HELP qres_flight_records Admission decision records held in the flight ring.\n",
    );
    out.push_str("# TYPE qres_flight_records gauge\n");
    let _ = writeln!(out, "qres_flight_records {}", p.records.len());
    out.push_str(
        "# HELP qres_flight_dropped_total Decision records evicted from the flight ring.\n",
    );
    out.push_str("# TYPE qres_flight_dropped_total counter\n");
    let _ = writeln!(out, "qres_flight_dropped_total {}", p.dropped);
    out.push_str(
        "# HELP qres_flight_captures_total Alert-triggered flight capture files written.\n",
    );
    out.push_str("# TYPE qres_flight_captures_total counter\n");
    let _ = writeln!(out, "qres_flight_captures_total {}", p.captures.len());
}

/// Clears the ring, tallies, capture registry, and capture directory, and
/// restores the default capacity. Leaves the on/off switch alone (like
/// `reset` leaves the level), and clears this thread's staging buffers.
pub fn reset_flight() {
    {
        let mut p = PLANE.lock().unwrap();
        p.records.clear();
        p.capacity = DEFAULT_FLIGHT_CAPACITY;
        p.dropped = 0;
        p.captures.clear();
        p.capture_dir = None;
    }
    let _ = take_eval_detail();
    STAGED_TERMS.with(|t| t.borrow_mut().clear());
    let _ = take_checks();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record(req: u64, cell: u32, admitted: bool) -> FlightRecord {
        FlightRecord {
            req,
            t: 12.5,
            cell,
            scheme: "AC2".to_string(),
            bu: 1.0,
            used: 25.0,
            capacity: 30.0,
            reserve: 4.25,
            t_est_secs: 32.0,
            terms: vec![
                FlightTerm {
                    neighbor: cell + 1,
                    value: 2.125,
                    memo_hit: false,
                    p_h_sum: Some(2.125),
                    conns: Some(7),
                },
                FlightTerm {
                    neighbor: cell + 2,
                    value: 2.125,
                    memo_hit: true,
                    p_h_sum: None,
                    conns: None,
                },
            ],
            checks: vec![FlightCheck {
                rank: 1,
                neighbor: cell + 1,
                br: 3.5,
                used: 20.0,
                capacity: 30.0,
                ok: true,
            }],
            admitted,
            blocked_rank: None,
        }
    }

    /// Global state forces the flight tests through one serial body.
    #[test]
    fn flight_lifecycle() {
        ring_evicts_and_counts_drops();
        json_round_trips_records_exactly();
        explain_filters_by_req_and_cell();
        denial_causes_classify();
        staged_terms_key_by_req_and_target();
        capture_writes_window_file();
    }

    fn ring_evicts_and_counts_drops() {
        reset_flight();
        set_flight_capacity(3);
        for i in 0..5 {
            record(sample_record(i, 4, true));
        }
        let doc = flight_json();
        assert_eq!(doc.get("len"), Some(&Value::UInt(3)));
        assert_eq!(doc.get("dropped"), Some(&Value::UInt(2)));
        let records = records_from_doc(&doc).unwrap();
        assert_eq!(records[0].req, 2, "oldest two must be evicted");
        reset_flight();
    }

    fn json_round_trips_records_exactly() {
        reset_flight();
        let mut rec = sample_record(7, 4, false);
        rec.blocked_rank = Some(2);
        rec.reserve = 1.0 / 3.0; // exercise a non-terminating fraction
        record(rec.clone());
        let text = flight_json().to_pretty_string();
        let parsed = records_from_doc(&Value::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, vec![rec], "records must round-trip bit-exactly");
        reset_flight();
    }

    fn explain_filters_by_req_and_cell() {
        reset_flight();
        for i in 0..10 {
            record(sample_record(i, if i % 2 == 0 { 4 } else { 5 }, true));
        }
        let by_req = explain_json(Some(6), None, 10);
        assert_eq!(by_req.get("matched"), Some(&Value::UInt(1)));
        let by_cell = explain_json(None, Some(5), 3);
        assert_eq!(by_cell.get("matched"), Some(&Value::UInt(3)));
        let Some(Value::Array(records)) = by_cell.get("records") else {
            panic!("records array expected");
        };
        assert_eq!(records[0].get("req"), Some(&Value::UInt(5)));
        assert_eq!(
            records[0].get("cause"),
            Some(&Value::Str("admitted".to_string()))
        );
        let tail = explain_json(None, None, 2);
        assert_eq!(tail.get("matched"), Some(&Value::UInt(2)));
        reset_flight();
    }

    fn denial_causes_classify() {
        let admitted = sample_record(1, 4, true);
        assert_eq!(denial_cause(&admitted), "admitted");
        let mut veto = sample_record(2, 4, false);
        veto.blocked_rank = Some(1);
        assert_eq!(denial_cause(&veto), "neighbor_veto");
        let mut full = sample_record(3, 4, false);
        full.used = 30.0; // 30 + 1 > 30
        assert_eq!(denial_cause(&full), "link_full");
        let pressure = sample_record(4, 4, false); // 25 + 1 <= 30, reserve bites
        assert_eq!(denial_cause(&pressure), "reservation_pressure");
    }

    fn staged_terms_key_by_req_and_target() {
        reset_flight();
        let own = vec![FlightTerm {
            neighbor: 5,
            value: 1.5,
            memo_hit: false,
            p_h_sum: None,
            conns: None,
        }];
        stage_terms(11, 4, own.clone());
        stage_terms(11, 5, vec![]); // neighbor-side computation in same admission
        assert_eq!(take_terms(11, 4), own);
        assert!(
            take_terms(11, 5).is_empty(),
            "take_terms must clear all staged vectors"
        );
        stage_eval_detail(0.75, 3);
        assert_eq!(take_eval_detail(), Some((0.75, 3)));
        assert_eq!(take_eval_detail(), None, "scratch is take-once");
        stage_check(sample_record(1, 4, true).checks[0].clone());
        assert_eq!(take_checks().len(), 1);
        assert!(take_checks().is_empty());
        reset_flight();
    }

    fn capture_writes_window_file() {
        reset_flight();
        assert_eq!(
            capture_for_cell(4, 100.0, "p_hd_burn"),
            None,
            "no capture without a directory"
        );
        for i in 0..4 {
            record(sample_record(i, 4, i % 2 == 0));
        }
        let dir = std::env::temp_dir().join(format!("qres_flight_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        set_flight_capture_dir(Some(dir.clone()));
        let (path, n) = capture_for_cell(4, 100.0, "p_hd_burn").expect("capture");
        assert_eq!(n, 4);
        assert!(path.ends_with("obs_flight_4_100.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = Value::parse(&text).unwrap();
        assert_eq!(doc.get("rule"), Some(&Value::Str("p_hd_burn".into())));
        assert_eq!(records_from_doc(&doc).unwrap().len(), 4);
        let rendered = render_explain(&doc).unwrap();
        assert!(rendered.contains("flight records: 4"), "{rendered}");
        assert!(rendered.contains("reservation_pressure"), "{rendered}");
        let summary = flight_summary_json();
        assert_eq!(summary.get("captures"), Some(&Value::UInt(1)));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
        reset_flight();
    }
}
