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
//! The admission test stages the requesting cell's terms and its checks
//! in the admission's [`crate::Staging`] buffer while it runs; once the
//! verdict is in, [`crate::Staging::publish`] completes the record with
//! them and pushes it. When a cell's `P_HD` burn fires, the capture
//! trigger ([`crate::alert`]) freezes the cell's trailing records to a
//! file ([`capture_for_cell`]). The recorder is
//! strictly passive — on or off, every simulation output is bit-identical.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use qres_json::{FromJson, ToJson, Value};

/// Default decision-record ring capacity.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;

/// How many trailing records of a cell a capture freezes.
pub const CAPTURE_WINDOW: usize = 256;

/// One per-neighbor `B_i,0` contribution inside a decision record.
///
/// `p_h_sum`/`conns` carry the Eq.-4 detail (sum of remaining-handoff
/// probabilities over the `conns` connections that contributed) of a
/// predictive scheme's term; the NS baseline's terms carry none.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightTerm {
    /// Contributing neighbor cell id.
    pub neighbor: u32,
    /// The `B_i,0` value folded into `B_r` (BUs).
    pub value: f64,
    /// Sum of per-connection `p_h` terms behind `value` (Eq.-4 terms only).
    pub p_h_sum: Option<f64>,
    /// Number of connections that contributed to `p_h_sum`.
    pub conns: Option<u32>,
}

qres_json::json_struct!(FlightTerm {
    neighbor,
    value,
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
    /// Admission scheme label (`AC1`, `AC2`, `AC3`, `static(g)`, `NS`),
    /// shared by every record of a run.
    pub scheme: Arc<str>,
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

/// The decision-record ring of an [`crate::Obs`]. Its off switch,
/// `Obs::flight_off`, is independent of the obs level so the overhead of
/// the decision tape can be measured (and disabled) separately.
pub(crate) struct FlightPlane {
    records: VecDeque<FlightRecord>,
    capacity: usize,
    dropped: u64,
    captures: Vec<String>,
    capture_dir: Option<PathBuf>,
}

impl Default for FlightPlane {
    fn default() -> Self {
        FlightPlane {
            records: VecDeque::new(),
            capacity: DEFAULT_FLIGHT_CAPACITY,
            dropped: 0,
            captures: Vec::new(),
            capture_dir: None,
        }
    }
}

impl FlightPlane {
    /// Pushes `rec` and returns the record it evicted, if the ring was
    /// full: [`crate::Staging::publish`] reuses the evicted record's
    /// `terms` and `checks` for the next admission, so a full ring
    /// allocates nothing per record.
    pub(crate) fn push(&mut self, rec: FlightRecord) -> Option<FlightRecord> {
        let evicted = if self.records.len() >= self.capacity {
            self.dropped += 1;
            self.records.pop_front()
        } else {
            None
        };
        self.records.push_back(rec);
        evicted
    }
}

fn with_plane<R>(f: impl FnOnce(&mut FlightPlane) -> R) -> R {
    crate::with_stores(|s| f(&mut s.flight))
}

/// The hot-path gate: true when telemetry is on and the flight recorder
/// has not been independently disabled.
#[inline(always)]
pub fn flight_enabled() -> bool {
    crate::with(|o| o.on.load(Ordering::Relaxed) && !o.flight_off.load(Ordering::Relaxed))
}

/// Switches the flight recorder independently of the obs level.
pub fn set_flight_enabled(on: bool) {
    crate::with(|o| o.flight_off.store(!on, Ordering::Relaxed));
}

/// Sets the decision-record ring capacity (oldest evicted beyond it).
pub fn set_flight_capacity(cap: usize) {
    assert!(cap > 0, "flight ring capacity must be positive");
    with_plane(|p| {
        while p.records.len() > cap {
            p.records.pop_front();
            p.dropped += 1;
        }
        p.capacity = cap;
    });
}

/// Directory that the trigger's captures write into. `None` (the
/// default) disables capture files entirely — library runs and tests
/// never touch the filesystem unless the CLI opts in.
pub fn set_flight_capture_dir(dir: Option<PathBuf>) {
    with_plane(|p| p.capture_dir = dir);
}

/// Pushes a completed decision record into the ring (evicting the oldest
/// beyond capacity).
pub fn record(rec: FlightRecord) {
    with_plane(|p| {
        p.push(rec);
    });
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

/// The flight section of the telemetry snapshot: ring status, verdict and
/// denial-cause tallies over the buffered records, the capture
/// files written, and every buffered record.
pub fn flight_json() -> Value {
    let enabled = flight_enabled();
    with_plane(|p| flight_section(p, enabled))
}

fn flight_section(p: &FlightPlane, enabled: bool) -> Value {
    let mut causes = [
        ("link_full", 0u64),
        ("reservation_pressure", 0),
        ("neighbor_veto", 0),
    ];
    for rec in &p.records {
        let cause = denial_cause(rec);
        if let Some(slot) = causes.iter_mut().find(|(name, _)| *name == cause) {
            slot.1 += 1;
        }
    }
    let denied: u64 = causes.iter().map(|(_, n)| n).sum();
    Value::Object(vec![
        ("enabled".to_string(), Value::Bool(enabled)),
        ("capacity".to_string(), Value::UInt(p.capacity as u64)),
        ("len".to_string(), Value::UInt(p.records.len() as u64)),
        ("dropped".to_string(), Value::UInt(p.dropped)),
        (
            "admitted".to_string(),
            Value::UInt(p.records.len() as u64 - denied),
        ),
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

/// Extracts the decision records from an `obs.json` (its `flight`
/// section) or a capture file (top-level `records`).
pub fn records_from_doc(doc: &Value) -> Result<Vec<FlightRecord>, String> {
    let records = doc
        .get("flight")
        .unwrap_or(doc)
        .get("records")
        .ok_or("no `records` array (not an obs.json or a flight capture)")?;
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
/// `obs_flight_<cell>_<ts>.json` in the configured capture directory, or,
/// when an earlier capture of this handle has that name (sweep points
/// share a handle, and two can burn in the same cell in the same
/// second), to `obs_flight_<cell>_<ts>_<k>.json` with `k` the capture's
/// ordinal. Returns the path written and the record count, or `None`
/// when capture is disabled (no directory), the cell has no records
/// yet, or the file cannot be written.
///
/// The document is built and its name taken under the stores' lock; the
/// file is written after the lock is released, so threads sharing the
/// handle do not wait on the disk.
pub fn capture_for_cell(cell: u32, now: f64, rule: &str) -> Option<(String, u64)> {
    let (path, doc, n) = with_plane(|p| capture(p, cell, now, rule))?;
    if std::fs::write(&path, doc.to_pretty_string() + "\n").is_err() {
        with_plane(|p| {
            if let Some(i) = p.captures.iter().rposition(|c| *c == path) {
                p.captures.remove(i);
            }
        });
        return None;
    }
    Some((path, n))
}

/// The capture document of `cell` and the path it goes to, which is
/// registered in `p.captures` here.
fn capture(p: &mut FlightPlane, cell: u32, now: f64, rule: &str) -> Option<(String, Value, u64)> {
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
    let mut path = dir.join(format!("obs_flight_{cell}_{}.json", now as u64));
    if p.captures.contains(&path.display().to_string()) {
        let k = p.captures.len();
        path = dir.join(format!("obs_flight_{cell}_{}_{k}.json", now as u64));
    }
    let path = path.display().to_string();
    p.captures.push(path.clone());
    Some((path, doc, n))
}

/// Clears the ring, tallies, capture registry, and capture directory, and
/// restores the default capacity. Leaves the on/off switch alone, as
/// [`crate::reset_qos`] and [`crate::reset_calib`] leave the level.
pub fn reset_flight() {
    with_plane(|p| {
        p.records.clear();
        p.capacity = DEFAULT_FLIGHT_CAPACITY;
        p.dropped = 0;
        p.captures.clear();
        p.capture_dir = None;
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record(req: u64, cell: u32, admitted: bool) -> FlightRecord {
        FlightRecord {
            req,
            t: 12.5,
            cell,
            scheme: "AC2".into(),
            bu: 1.0,
            used: 25.0,
            capacity: 30.0,
            reserve: 4.25,
            t_est_secs: 32.0,
            terms: vec![
                FlightTerm {
                    neighbor: cell + 1,
                    value: 2.125,
                    p_h_sum: Some(2.125),
                    conns: Some(7),
                },
                FlightTerm {
                    neighbor: cell + 2,
                    value: 2.125,
                    p_h_sum: Some(1.0625),
                    conns: Some(4),
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

    #[test]
    fn ring_evicts_and_counts_drops() {
        set_flight_capacity(3);
        for i in 0..5 {
            record(sample_record(i, 4, true));
        }
        let doc = flight_json();
        assert_eq!(doc.get("len"), Some(&Value::UInt(3)));
        assert_eq!(doc.get("dropped"), Some(&Value::UInt(2)));
        let records = records_from_doc(&doc).unwrap();
        assert_eq!(records[0].req, 2, "oldest two must be evicted");
    }

    #[test]
    fn json_round_trips_records_exactly() {
        let mut rec = sample_record(7, 4, false);
        rec.blocked_rank = Some(2);
        rec.reserve = 1.0 / 3.0; // exercise a non-terminating fraction
        record(rec.clone());
        let text = flight_json().to_pretty_string();
        let parsed = records_from_doc(&Value::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, vec![rec], "records must round-trip bit-exactly");
    }

    #[test]
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

    #[test]
    fn capture_writes_window_file() {
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
        let summary = flight_json();
        assert_eq!(
            summary.get("captures"),
            Some(&Value::Array(vec![Value::Str(path.clone())]))
        );
        assert_eq!(summary.get("denied"), Some(&Value::UInt(2)));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    /// A capture whose file cannot be written (its directory is gone)
    /// returns `None` and is not listed.
    #[test]
    fn unwritable_capture_is_not_listed() {
        record(sample_record(1, 4, true));
        let dir = std::env::temp_dir().join(format!("qres_flight_gone_{}", std::process::id()));
        set_flight_capture_dir(Some(dir));
        assert_eq!(capture_for_cell(4, 100.0, "p_hd_burn"), None);
        assert_eq!(
            flight_json().get("captures"),
            Some(&Value::Array(Vec::new()))
        );
    }

    /// Captures of the same cell in the same second (two sweep points on
    /// one handle) each get their own file: every listed path exists and
    /// no two are equal.
    #[test]
    fn same_second_captures_get_distinct_files() {
        for i in 0..4 {
            record(sample_record(i, 4, true));
            record(sample_record(i, 5, true));
        }
        let dir = std::env::temp_dir().join(format!("qres_flight_same_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        set_flight_capture_dir(Some(dir.clone()));
        for (cell, t) in [(4, 100.0), (4, 100.5), (5, 100.0), (4, 100.0)] {
            capture_for_cell(cell, t, "p_hd_burn").expect("capture");
        }
        let Some(Value::Array(listed)) = flight_json().get("captures").cloned() else {
            panic!("no captures list");
        };
        let paths: Vec<String> = listed
            .iter()
            .map(|v| match v {
                Value::Str(s) => s.clone(),
                other => panic!("capture path {other:?}"),
            })
            .collect();
        assert_eq!(paths.len(), 4);
        let mut distinct = paths.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), 4, "{paths:?}");
        assert!(paths[0].ends_with("obs_flight_4_100.json"), "{paths:?}");
        assert!(paths[1].ends_with("obs_flight_4_100_1.json"), "{paths:?}");
        for path in &paths {
            assert!(std::path::Path::new(path).is_file(), "{path} missing");
            let _ = std::fs::remove_file(path);
        }
        let _ = std::fs::remove_dir(&dir);
    }
}
