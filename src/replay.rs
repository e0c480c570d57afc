//! Deterministic re-execution of flight-recorder decision windows.
//!
//! `qres obs replay` feeds a captured window of [`FlightRecord`]s back
//! through the *same* admission predicates the live system ran
//! ([`qres_core::admission::admits_with_reserve`] and
//! [`qres_core::admission::neighbor_reserve_feasible`]) and checks that
//! every verdict reproduces bit-identically:
//!
//! * the reservation threshold is re-derived by folding the recorded
//!   per-neighbor `B_i,0` terms in order — the exact float-summation
//!   order `compute_br` used — and must land on the recorded `reserve`
//!   to the last bit;
//! * each AC2/AC3 neighbor check is re-evaluated from its recorded
//!   `(used, capacity, B_r)` inputs and the first failing check must
//!   name the recorded vetoing rank;
//! * the local Eq.-1 test re-runs on `(used, bu, capacity, reserve)`.
//!
//! A mismatch means the recorded inputs no longer explain the recorded
//! verdict — either the capture is from an incompatible build or the
//! admission path changed semantics. CI replays every auto-captured
//! window and fails on any mismatch.

use qres_json::Value;
use qres_obs::flight::FlightRecord;

/// One record whose re-executed verdict diverged from the tape.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayMismatch {
    /// The record's admission-request sequence number.
    pub req: u64,
    /// The requesting cell.
    pub cell: u32,
    /// What went wrong, in one line.
    pub detail: String,
}

/// The outcome of replaying one decision window.
#[derive(Debug, Clone, Default)]
pub struct ReplaySummary {
    /// Records replayed.
    pub records: usize,
    /// Records whose re-derived reserve matched the tape bit-exactly.
    pub reserve_exact: usize,
    /// Verdict or reserve divergences (empty on a clean replay).
    pub mismatches: Vec<ReplayMismatch>,
}

impl ReplaySummary {
    /// True when every verdict reproduced.
    pub fn is_clean(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Re-executes one record and appends any divergence to `out`.
fn replay_record(rec: &FlightRecord, out: &mut ReplaySummary) {
    out.records += 1;
    // Re-derive the threshold. Static schemes record no terms (the guard
    // band is a constant); every other scheme's reserve is the in-order
    // fold of its per-neighbor terms, which must reproduce the recorded
    // value bit-exactly.
    let is_static = rec.scheme.starts_with("static");
    let reserve = if is_static || rec.terms.is_empty() {
        out.reserve_exact += 1;
        rec.reserve
    } else {
        let folded = rec.terms.iter().fold(0.0f64, |acc, t| acc + t.value);
        if folded.to_bits() == rec.reserve.to_bits() {
            out.reserve_exact += 1;
        } else {
            out.mismatches.push(ReplayMismatch {
                req: rec.req,
                cell: rec.cell,
                detail: format!(
                    "reserve drift: fold of {} terms = {folded:?}, taped {:?}",
                    rec.terms.len(),
                    rec.reserve
                ),
            });
        }
        folded
    };
    // Neighbor vetoes fire before the local test, in rank order — the
    // first recorded check that fails its re-evaluated predicate names
    // the blocking rank.
    let veto = rec
        .checks
        .iter()
        .find(|c| !qres_core::admission::neighbor_reserve_feasible(c.used, c.capacity, c.br));
    for c in &rec.checks {
        let ok = qres_core::admission::neighbor_reserve_feasible(c.used, c.capacity, c.br);
        if ok != c.ok {
            out.mismatches.push(ReplayMismatch {
                req: rec.req,
                cell: rec.cell,
                detail: format!(
                    "check drift at rank {}: neighbor {} re-evaluates {} from \
                     used={:?} capacity={:?} br={:?}, taped {}",
                    c.rank, c.neighbor, ok, c.used, c.capacity, c.br, c.ok
                ),
            });
        }
    }
    let local_ok =
        qres_core::admission::admits_with_reserve(rec.used, rec.bu, rec.capacity, reserve);
    let (derived_admitted, derived_rank) = match veto {
        Some(c) => (false, Some(c.rank)),
        None => (local_ok, None),
    };
    if derived_admitted != rec.admitted || derived_rank != rec.blocked_rank {
        out.mismatches.push(ReplayMismatch {
            req: rec.req,
            cell: rec.cell,
            detail: format!(
                "verdict drift: re-executed admitted={derived_admitted} \
                 blocked_rank={derived_rank:?}, taped admitted={} blocked_rank={:?}",
                rec.admitted, rec.blocked_rank
            ),
        });
    }
}

/// Replays every record in a flight document (an `obs_flight.json` dump,
/// an alert capture, or a full obs snapshot with a `flight` section).
pub fn replay_flight_doc(doc: &Value) -> Result<ReplaySummary, String> {
    let records = qres_obs::flight::records_from_doc(doc)?;
    let mut out = ReplaySummary::default();
    for rec in &records {
        replay_record(rec, &mut out);
    }
    Ok(out)
}

/// Renders a replay summary for the CLI.
pub fn render_summary(summary: &ReplaySummary) -> String {
    let mut out = format!(
        "replayed {} decision(s): {} reserve-exact, {} mismatch(es)\n",
        summary.records,
        summary.reserve_exact,
        summary.mismatches.len()
    );
    for m in &summary.mismatches {
        out.push_str(&format!("  req {} cell {}: {}\n", m.req, m.cell, m.detail));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qres_obs::flight::{FlightCheck, FlightTerm};

    fn base_record() -> FlightRecord {
        FlightRecord {
            req: 7,
            t: 120.0,
            cell: 3,
            scheme: "AC3".to_string(),
            bu: 1.0,
            used: 25.0,
            capacity: 30.0,
            reserve: 0.75,
            t_est_secs: 4.0,
            terms: vec![
                FlightTerm {
                    neighbor: 2,
                    value: 0.5,
                    memo_hit: false,
                    p_h_sum: Some(0.5),
                    conns: Some(3),
                },
                FlightTerm {
                    neighbor: 4,
                    value: 0.25,
                    memo_hit: true,
                    p_h_sum: None,
                    conns: None,
                },
            ],
            checks: vec![],
            admitted: true,
            blocked_rank: None,
        }
    }

    fn doc_of(records: Vec<FlightRecord>) -> Value {
        use qres_json::ToJson;
        Value::Object(vec![(
            "records".to_string(),
            Value::Array(records.iter().map(|r| r.to_json()).collect()),
        )])
    }

    #[test]
    fn clean_tape_replays_clean() {
        let summary = replay_flight_doc(&doc_of(vec![base_record()])).unwrap();
        assert_eq!(summary.records, 1);
        assert_eq!(summary.reserve_exact, 1);
        assert!(summary.is_clean());
    }

    #[test]
    fn verdict_tampering_is_detected() {
        let mut rec = base_record();
        rec.admitted = false; // inputs say admit
        let summary = replay_flight_doc(&doc_of(vec![rec])).unwrap();
        assert_eq!(summary.mismatches.len(), 1);
        assert!(summary.mismatches[0].detail.contains("verdict drift"));
    }

    #[test]
    fn reserve_tampering_is_detected() {
        let mut rec = base_record();
        rec.reserve = 0.7500000001;
        let summary = replay_flight_doc(&doc_of(vec![rec])).unwrap();
        assert!(!summary.is_clean());
        assert!(summary.mismatches[0].detail.contains("reserve drift"));
    }

    #[test]
    fn neighbor_veto_reproduces_rank() {
        let mut rec = base_record();
        rec.admitted = false;
        rec.blocked_rank = Some(1);
        rec.checks = vec![
            FlightCheck {
                rank: 0,
                neighbor: 2,
                br: 2.0,
                used: 20.0,
                capacity: 30.0,
                ok: true,
            },
            FlightCheck {
                rank: 1,
                neighbor: 4,
                br: 5.0,
                used: 28.0,
                capacity: 30.0,
                ok: false,
            },
        ];
        let summary = replay_flight_doc(&doc_of(vec![rec])).unwrap();
        assert!(summary.is_clean(), "{:?}", summary.mismatches);
    }

    #[test]
    fn static_records_skip_the_fold() {
        let mut rec = base_record();
        rec.scheme = "static(G=5)".to_string();
        rec.terms.clear();
        rec.reserve = 5.0;
        rec.used = 24.0;
        let summary = replay_flight_doc(&doc_of(vec![rec])).unwrap();
        assert!(summary.is_clean());
    }

    #[test]
    fn rejects_documents_without_records() {
        assert!(replay_flight_doc(&Value::Object(vec![])).is_err());
    }
}
